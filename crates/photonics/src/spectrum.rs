//! Transmission-spectrum scans — the diagnostic a photonics lab would run.
//!
//! Sweeping a probe laser across a weight bank's through/drop ports reveals
//! every ring's resonance position and depth; it is how real banks are
//! characterised before calibration (Tait et al.'s figures are exactly such
//! scans). Used by the noise-study example and tests to verify that the
//! bank's spectral structure matches its programmed weights.

use crate::weight_bank::MrrWeightBank;

/// One point of a spectrum scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumPoint {
    /// Probe wavelength, metres.
    pub wavelength_m: f64,
    /// Aggregate through-bus transmission at this wavelength.
    pub through: f64,
    /// Aggregate drop-bus transmission at this wavelength.
    pub drop: f64,
}

/// Scans a bank's through/drop response over `[start_m, stop_m]` with
/// `points` samples (a single unit-power probe, swept).
#[must_use]
pub fn scan_bank(
    bank: &MrrWeightBank,
    start_m: f64,
    stop_m: f64,
    points: usize,
) -> Vec<SpectrumPoint> {
    let n = points.max(2);
    (0..n)
        .map(|i| {
            let wl = start_m + (stop_m - start_m) * i as f64 / (n - 1) as f64;
            let mut through = 1.0f64;
            let mut drop = 0.0f64;
            for ring in bank.rings() {
                let d = ring.drop_transmission(wl);
                let t = ring.through_transmission(wl);
                drop += through * d;
                through *= t;
            }
            SpectrumPoint {
                wavelength_m: wl,
                through,
                drop,
            }
        })
        .collect()
}

/// Finds local minima of the through-port scan deeper than `threshold`
/// (resonance dips), returning their wavelengths.
#[must_use]
pub fn find_resonances(scan: &[SpectrumPoint], threshold: f64) -> Vec<f64> {
    let mut dips = Vec::new();
    for w in scan.windows(3) {
        let (a, b, c) = (w[0].through, w[1].through, w[2].through);
        if b < a && b < c && b < threshold {
            dips.push(w[1].wavelength_m);
        }
    }
    dips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microring::RingParams;
    use crate::wavelength::WdmGrid;

    fn bank(n: usize, weights: &[f64]) -> MrrWeightBank {
        let grid = WdmGrid::dense_50ghz(n).unwrap();
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        let mut bank = MrrWeightBank::new(grid, params).unwrap();
        bank.calibrate(weights, 1e-5, 200).unwrap();
        bank
    }

    #[test]
    fn scan_spans_requested_range() {
        let b = bank(3, &[0.5, 0.5, 0.5]);
        let scan = scan_bank(&b, 1549e-9, 1551e-9, 101);
        assert_eq!(scan.len(), 101);
        assert!((scan[0].wavelength_m - 1549e-9).abs() < 1e-15);
        assert!((scan[100].wavelength_m - 1551e-9).abs() < 1e-15);
    }

    #[test]
    fn transmissions_are_physical_everywhere() {
        let b = bank(4, &[0.8, -0.3, 0.1, -0.9]);
        for p in scan_bank(&b, 1548e-9, 1552e-9, 500) {
            assert!((0.0..=1.0).contains(&p.through), "through {}", p.through);
            assert!(p.drop >= 0.0);
            assert!(p.through + p.drop <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn on_resonance_rings_carve_dips_at_their_carriers() {
        // Program strong positive weights: rings near resonance → deep
        // through-port dips near each carrier.
        let b = bank(3, &[0.8, 0.8, 0.8]);
        let carriers = b.grid().wavelengths_m();
        let scan = scan_bank(&b, carriers[2] - 0.2e-9, carriers[0] + 0.2e-9, 4001);
        let dips = find_resonances(&scan, 0.5);
        assert_eq!(dips.len(), 3, "expected 3 resonance dips, got {dips:?}");
        // each dip sits within half a linewidth of a carrier
        for dip in dips {
            let nearest = carriers
                .iter()
                .map(|c| (c - dip).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 50e-12, "dip {dip} too far from any carrier");
        }
    }

    #[test]
    fn parked_bank_has_no_deep_dips_at_carriers() {
        let grid = WdmGrid::dense_50ghz(3).unwrap();
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        let b = MrrWeightBank::new(grid, params).unwrap(); // parked
        let carriers = b.grid().wavelengths_m();
        let scan = scan_bank(&b, carriers[2], carriers[0], 2001);
        // through stays high at every carrier (rings are detuned away)
        for &c in &carriers {
            let nearest = scan
                .iter()
                .min_by(|a, b| {
                    (a.wavelength_m - c)
                        .abs()
                        .total_cmp(&(b.wavelength_m - c).abs())
                })
                .unwrap();
            assert!(
                nearest.through > 0.9,
                "carrier {c} through {}",
                nearest.through
            );
        }
    }
}
