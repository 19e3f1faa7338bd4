//! Physical-feasibility analysis of a PCNNA mapping (reproduction
//! extension).
//!
//! The paper's eq. (5) requires one WDM carrier per receptive-field value —
//! `Nkernel` carriers. Two physical budgets bound how many carriers one
//! broadcast bus can actually carry:
//!
//! 1. **The C band** (~4.4 THz): at 50 GHz spacing, 88 channels.
//! 2. **The microring free spectral range**: a ring resonates periodically
//!    every `FSR = λ²/(n_g·L)`; carriers further apart than one FSR alias
//!    onto the same ring. A 10 µm-radius ring (n_g ≈ 4.2) has an FSR of
//!    ≈ 9.1 nm ≈ 1.14 THz → 22 channels at 50 GHz.
//!
//! AlexNet conv1 needs 363 carriers — 4× the C band and 16× one FSR. The
//! feasible design *spectrally partitions* the receptive field: the layer's
//! carriers are served in `ceil(Nkernel / usable)` sequential spectral
//! passes, each an extra fast-clock cycle, multiplying eq. (7)'s optical
//! time. This module quantifies that correction per layer, a reproduction
//! finding the paper omits (see EXPERIMENTS.md "Spectral feasibility").

use crate::config::PcnnaConfig;
use crate::mapping::{AreaModel, RingAllocation};
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;
use pcnna_photonics::constants::SPEED_OF_LIGHT;
use pcnna_photonics::wavelength::{C_BAND_MAX_M, C_BAND_MIN_M};

/// Spectral-budget parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralBudget {
    /// WDM channel spacing, Hz.
    pub channel_spacing_hz: f64,
    /// Microring radius, metres (sets the FSR).
    pub ring_radius_m: f64,
    /// Waveguide group index.
    pub group_index: f64,
    /// Centre wavelength, metres.
    pub center_m: f64,
}

impl Default for SpectralBudget {
    fn default() -> Self {
        SpectralBudget {
            channel_spacing_hz: 50e9,
            ring_radius_m: 10e-6,
            group_index: 4.2,
            center_m: 1550e-9,
        }
    }
}

impl SpectralBudget {
    /// Returns a copy with a different WDM channel spacing, Hz (the
    /// design-space explorer's wavelength-count knob: tighter spacing means
    /// more usable carriers within both budgets).
    #[must_use]
    pub fn with_channel_spacing_hz(mut self, spacing_hz: f64) -> Self {
        self.channel_spacing_hz = spacing_hz;
        self
    }

    /// Returns a copy with a different microring radius, metres (sets the
    /// FSR and thus the per-ring carrier budget — the MRR bank-size knob).
    #[must_use]
    pub fn with_ring_radius_m(mut self, radius_m: f64) -> Self {
        self.ring_radius_m = radius_m;
        self
    }

    /// Channels that fit the conventional C band at this spacing.
    #[must_use]
    pub fn c_band_channels(&self) -> u64 {
        let f_lo = SPEED_OF_LIGHT / C_BAND_MAX_M;
        let f_hi = SPEED_OF_LIGHT / C_BAND_MIN_M;
        ((f_hi - f_lo) / self.channel_spacing_hz).floor() as u64 + 1
    }

    /// The ring FSR in Hz: `c·FSR_λ/λ² = c/(n_g·L)`.
    #[must_use]
    pub fn fsr_hz(&self) -> f64 {
        let circumference = 2.0 * core::f64::consts::PI * self.ring_radius_m;
        SPEED_OF_LIGHT / (self.group_index * circumference)
    }

    /// Channels that fit within one FSR at this spacing.
    #[must_use]
    pub fn fsr_channels(&self) -> u64 {
        (self.fsr_hz() / self.channel_spacing_hz).floor() as u64
    }

    /// Usable simultaneous carriers: the tighter of the two budgets.
    #[must_use]
    pub fn usable_channels(&self) -> u64 {
        self.c_band_channels().min(self.fsr_channels()).max(1)
    }
}

/// Per-layer feasibility verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFeasibility {
    /// Layer name.
    pub name: String,
    /// Carriers eq. (5) demands (`Nkernel`, or `m·m` channel-sequential).
    pub wavelengths_required: u64,
    /// Simultaneous carriers the physics allows.
    pub usable_channels: u64,
    /// C-band capacity at the configured spacing.
    pub c_band_channels: u64,
    /// FSR capacity at the configured ring size.
    pub fsr_channels: u64,
    /// Sequential spectral passes needed: `ceil(required / usable)`.
    pub spectral_passes: u64,
    /// Whether the layer runs in a single pass as the paper assumes.
    pub single_pass: bool,
    /// eq. (7) optical time as the paper computes it.
    pub paper_optical_time: SimTime,
    /// Optical time corrected for spectral partitioning.
    pub corrected_optical_time: SimTime,
    /// Ring count under the configured policy.
    pub rings: u64,
    /// Ring area, mm².
    pub ring_area_mm2: f64,
}

/// The lean per-layer spectral verdict — just the fields search hot loops
/// consume, `Copy`, no name interning, no allocation. See
/// [`FeasibilityModel::layer_spectrum`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpectrum {
    /// Optical time corrected for spectral partitioning.
    pub corrected_optical_time: SimTime,
    /// Sequential spectral passes needed: `ceil(required / usable)`.
    pub spectral_passes: u64,
    /// Ring area at the configured pitch, mm².
    pub ring_area_mm2: f64,
}

/// Analyses layers against the spectral budgets.
#[derive(Debug, Clone)]
pub struct FeasibilityModel {
    config: PcnnaConfig,
    budget: SpectralBudget,
}

impl FeasibilityModel {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid configs.
    pub fn new(config: PcnnaConfig, budget: SpectralBudget) -> Result<Self> {
        config.validate()?;
        Ok(FeasibilityModel { config, budget })
    }

    /// The spectral budget in force.
    #[must_use]
    pub fn budget(&self) -> &SpectralBudget {
        &self.budget
    }

    /// The lean spectral verdict of one layer — the search hot-loop
    /// counterpart of [`layer`](Self::layer): identical arithmetic, only
    /// the fields the design-space objectives consume, and no allocation.
    #[must_use]
    pub fn layer_spectrum(&self, g: &ConvGeometry) -> LayerSpectrum {
        self.layer_spectrum_with(g, &RingAllocation::for_layer(g, self.config.allocation))
    }

    /// [`layer_spectrum`](Self::layer_spectrum) with a caller-computed
    /// ring allocation (so [`layer`](Self::layer) computes it once).
    fn layer_spectrum_with(&self, g: &ConvGeometry, alloc: &RingAllocation) -> LayerSpectrum {
        let spectral_passes = alloc.wavelengths.div_ceil(self.budget.usable_channels());
        let corrected = self
            .config
            .fast_clock
            .cycles(g.n_locations() * alloc.passes_per_location * spectral_passes);
        let area = AreaModel {
            ring_pitch_m: self.config.ring_pitch_m,
        };
        LayerSpectrum {
            corrected_optical_time: corrected,
            spectral_passes,
            ring_area_mm2: area.rings_area_mm2(alloc.rings),
        }
    }

    /// Feasibility of one layer.
    #[must_use]
    pub fn layer(&self, name: &str, g: &ConvGeometry) -> LayerFeasibility {
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        let required = alloc.wavelengths;
        let usable = self.budget.usable_channels();
        let lean = self.layer_spectrum_with(g, &alloc);
        let spectral_passes = lean.spectral_passes;
        let paper_optical = self
            .config
            .fast_clock
            .cycles(g.n_locations() * alloc.passes_per_location);
        let corrected = lean.corrected_optical_time;
        LayerFeasibility {
            name: name.to_owned(),
            wavelengths_required: required,
            usable_channels: usable,
            c_band_channels: self.budget.c_band_channels(),
            fsr_channels: self.budget.fsr_channels(),
            spectral_passes,
            single_pass: spectral_passes == 1,
            paper_optical_time: paper_optical,
            corrected_optical_time: corrected,
            rings: alloc.rings,
            ring_area_mm2: lean.ring_area_mm2,
        }
    }

    /// Feasibility of a list of layers.
    #[must_use]
    pub fn network(&self, layers: &[(&str, ConvGeometry)]) -> Vec<LayerFeasibility> {
        layers.iter().map(|(name, g)| self.layer(name, g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
    use pcnna_cnn::zoo;

    fn model() -> FeasibilityModel {
        FeasibilityModel::new(PcnnaConfig::default(), SpectralBudget::default()).unwrap()
    }

    #[test]
    fn c_band_holds_about_89_channels_at_50ghz() {
        let b = SpectralBudget::default();
        let c = b.c_band_channels();
        assert!((85..=92).contains(&c), "C-band channels {c}");
    }

    #[test]
    fn fsr_of_10um_ring_is_about_1_1_thz() {
        let b = SpectralBudget::default();
        let fsr = b.fsr_hz();
        assert!(
            (1.0e12..1.3e12).contains(&fsr),
            "FSR {fsr} Hz outside the expected range"
        );
        let ch = b.fsr_channels();
        assert!((20..=26).contains(&ch), "FSR channels {ch}");
    }

    #[test]
    fn fsr_is_the_binding_budget_at_default_geometry() {
        let b = SpectralBudget::default();
        assert!(b.fsr_channels() < b.c_band_channels());
        assert_eq!(b.usable_channels(), b.fsr_channels());
    }

    #[test]
    fn no_alexnet_layer_is_single_pass_under_filtered_allocation() {
        // The reproduction finding: every AlexNet layer's Nkernel exceeds
        // the simultaneous-carrier budget; the paper's single-cycle MAC
        // assumption needs spectral partitioning.
        let m = model();
        for r in m.network(&zoo::alexnet_conv_layers()) {
            assert!(
                !r.single_pass,
                "{}: {} carriers vs {} usable",
                r.name, r.wavelengths_required, r.usable_channels
            );
            assert!(r.corrected_optical_time > r.paper_optical_time);
        }
    }

    #[test]
    fn conv1_needs_about_16_spectral_passes() {
        let m = model();
        let r = m.layer("conv1", &zoo::alexnet_conv_layers()[0].1);
        assert_eq!(r.wavelengths_required, 363);
        // 363 / 22-23 usable ≈ 16-17 passes
        assert!(
            (15..=19).contains(&r.spectral_passes),
            "{}",
            r.spectral_passes
        );
    }

    #[test]
    fn channel_sequential_allocation_often_fits_one_pass() {
        // m·m carriers (9 for 3x3 kernels) fit easily.
        let cfg =
            PcnnaConfig::default().with_allocation(AllocationPolicy::FilteredChannelSequential);
        let m = FeasibilityModel::new(cfg, SpectralBudget::default()).unwrap();
        let conv3 = zoo::alexnet_conv_layers()[2].1;
        let r = m.layer("conv3", &conv3);
        assert_eq!(r.wavelengths_required, 9);
        assert!(r.single_pass);
    }

    #[test]
    fn corrected_time_is_paper_time_times_passes() {
        let m = model();
        let r = m.layer("conv4", &zoo::alexnet_conv_layers()[3].1);
        assert_eq!(
            r.corrected_optical_time.as_ps(),
            r.paper_optical_time.as_ps() * r.spectral_passes
        );
    }

    #[test]
    fn bigger_rings_mean_fewer_usable_channels() {
        let small = SpectralBudget::default().with_ring_radius_m(5e-6);
        let big = SpectralBudget::default().with_ring_radius_m(20e-6);
        assert!(small.fsr_channels() > big.fsr_channels());
    }

    #[test]
    fn budget_builders_land_on_the_right_fields() {
        let b = SpectralBudget::default()
            .with_channel_spacing_hz(25e9)
            .with_ring_radius_m(7.5e-6);
        assert_eq!(b.channel_spacing_hz, 25e9);
        assert_eq!(b.ring_radius_m, 7.5e-6);
        // tighter spacing buys more carriers than the default 50 GHz
        assert!(b.usable_channels() > SpectralBudget::default().usable_channels());
    }

    #[test]
    fn tiny_layer_is_single_pass() {
        let m = model();
        let g = ConvGeometry::new(8, 3, 0, 1, 2, 4).unwrap(); // 18 carriers
        let r = m.layer("tiny", &g);
        assert!(r.single_pass);
        assert_eq!(r.corrected_optical_time, r.paper_optical_time);
    }
}
