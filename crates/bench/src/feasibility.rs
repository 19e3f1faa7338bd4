//! The "Spectral feasibility" finding of the paper record: how many
//! sequential spectral passes each layer of the covered networks needs
//! once one bus carries at most the usable WDM channels
//! ([`FeasibilityModel`]), and the optical time that costs.

use crate::paper::networks;
use crate::report::{section, table};
use pcnna_core::config::PcnnaConfig;
use pcnna_core::feasibility::{FeasibilityModel, SpectralBudget};
use pcnna_core::CoreError;
use pcnna_photonics::constants::SPEED_OF_LIGHT;

/// Appends the "Spectral feasibility" section: the budget, then one
/// per-layer table and one summary line per network.
pub(crate) fn spectral_feasibility(out: &mut String, config: PcnnaConfig) -> Result<(), CoreError> {
    let b = SpectralBudget::default();
    let fsr_nm = b.fsr_hz() * b.center_m * b.center_m / SPEED_OF_LIGHT * 1e9;
    section(
        out,
        "Spectral feasibility",
        &format!(
            "Reproduction extension. Eq. (5) needs one WDM carrier per receptive-field \
             value; one bus carries at most the tighter of the C band and one ring \
             FSR. At {} GHz spacing: C band {} channels; ring FSR {} channels \
             ({fsr_nm:.1} nm at {} µm radius, {} nm centre); usable {} simultaneous \
             carriers. A layer needing more runs in ⌈carriers / usable⌉ sequential \
             spectral passes, each multiplying eq. (7)'s optical time.",
            b.channel_spacing_hz / 1e9,
            b.c_band_channels(),
            b.fsr_channels(),
            b.ring_radius_m * 1e6,
            b.center_m * 1e9,
            b.usable_channels(),
        ),
    );
    let model = FeasibilityModel::new(config, b)?;
    for (net, layers) in networks() {
        let verdicts = model.network(&layers);
        out.push_str(&format!("### {net}\n\n"));
        let rows = verdicts.iter().map(|r| {
            let (carriers, usable) = (r.wavelengths_required, r.usable_channels);
            let (c_band, fsr, passes) = (r.c_band_channels, r.fsr_channels, r.spectral_passes);
            let (paper, corrected) = (r.paper_optical_time, r.corrected_optical_time);
            format!(
                "{}|{carriers}|{usable}|{c_band}|{fsr}|{passes}|{paper}|{corrected}",
                r.name
            )
        });
        let head = "layer|carriers|usable|C band|FSR|passes|paper optical|corrected optical";
        table(out, head, rows);
        let single = verdicts.iter().filter(|r| r.single_pass).count();
        let passes = verdicts.iter().map(|r| r.spectral_passes);
        out.push_str(&format!(
            "{single}/{} layers run single-pass as the paper assumes; the corrected \
             optical time is {}–{}× the paper's.\n\n",
            verdicts.len(),
            passes.clone().min().unwrap_or(0),
            passes.max().unwrap_or(0),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_layers() {
        let mut md = String::new();
        spectral_feasibility(&mut md, PcnnaConfig::default()).unwrap();
        assert!(md.contains("| layer | carriers | usable | C band | FSR | passes |"));
        for (net, layers) in networks() {
            assert!(md.contains(&format!("### {net}\n")), "{net}");
            for (layer, _) in &layers {
                assert!(md.contains(&format!("| {layer} |")), "{net} {layer}");
            }
        }
        // AlexNet conv1: 363 carriers over 22 usable channels, 17 passes
        assert!(md.contains("| conv1 | 363 | 22 | 88 | 22 | 17 | 605.00 ns | 10.29 us |"));
    }
}
