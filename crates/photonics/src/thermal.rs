//! Thermal effects on microring weight banks.
//!
//! Thermal tuning is how PCNNA sets its weights, and it is also the
//! technology's Achilles heel: a ring's heater warms its neighbours
//! (**crosstalk**), and ambient temperature excursions shift *every*
//! resonance (**drift**, ~70–80 pm/K in silicon). The paper is silent on
//! both; real weight banks (Tait et al.) close a feedback loop around them.
//! This module models both disturbances and demonstrates the closed-loop
//! recovery, quantifying how often a PCNNA controller would need to
//! recalibrate.

use crate::weight_bank::MrrWeightBank;
use crate::{PhotonicError, Result};

/// First-order thermal disturbance model for a linear bank layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Fraction of a ring's own thermal shift that leaks into its nearest
    /// neighbour; decays geometrically with ring distance.
    pub neighbor_coupling: f64,
    /// Resonance shift per kelvin of ambient change, metres/K (silicon:
    /// ~75 pm/K).
    pub drift_m_per_k: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel {
            neighbor_coupling: 0.05,
            drift_m_per_k: 75e-12,
        }
    }
}

impl ThermalModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for coupling outside
    /// `[0, 1)` or negative drift.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.neighbor_coupling) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!(
                    "neighbor coupling must be in [0, 1), got {}",
                    self.neighbor_coupling
                ),
            });
        }
        if self.drift_m_per_k < 0.0 {
            return Err(PhotonicError::InvalidParameter {
                reason: "drift must be non-negative".to_owned(),
            });
        }
        Ok(())
    }

    /// The crosstalk-induced detuning perturbation each ring sees from the
    /// other rings' heaters: `Δ_j = Σ_{i≠j} c^{|i−j|} · shift_i` (same sign
    /// as the ring's own tuning — heat moves every resonance the same way,
    /// i.e. it *reduces* the victim's detuning).
    #[must_use]
    pub fn crosstalk_perturbations_m(&self, bank: &MrrWeightBank) -> Vec<f64> {
        let shifts = bank.tuning_shifts_m();
        let n = shifts.len();
        let mut deltas = vec![0.0f64; n];
        for (j, delta) in deltas.iter_mut().enumerate() {
            for (i, &shift) in shifts.iter().enumerate() {
                if i == j {
                    continue;
                }
                let distance = i.abs_diff(j) as i32;
                *delta -= self.neighbor_coupling.powi(distance) * shift;
            }
        }
        deltas
    }

    /// Applies heater crosstalk to a calibrated bank, returning the maximum
    /// absolute effective-weight error it caused.
    pub fn apply_crosstalk(&self, bank: &mut MrrWeightBank) -> f64 {
        let before = bank.effective_weights();
        // one perturbation per ring, by construction
        let deltas = self.crosstalk_perturbations_m(bank);
        bank.perturb_rings(&deltas);
        let after = bank.effective_weights();
        before
            .iter()
            .zip(&after)
            .map(|(&b, &a)| (b - a).abs())
            .fold(0.0, f64::max)
    }

    /// Applies an ambient temperature excursion of `delta_k` kelvin: every
    /// resonance shifts by `drift · ΔT`, reducing each ring's carrier
    /// detuning by the same amount. Returns the max weight error caused.
    pub fn apply_ambient(&self, bank: &mut MrrWeightBank, delta_k: f64) -> f64 {
        let before = bank.effective_weights();
        bank.shift_detunings(-self.drift_m_per_k * delta_k);
        let after = bank.effective_weights();
        before
            .iter()
            .zip(&after)
            .map(|(&b, &a)| (b - a).abs())
            .fold(0.0, f64::max)
    }

    /// The largest ambient excursion (kelvin) a bank tolerates before any
    /// weight drifts by more than `tolerance`, found by bisection on a
    /// cloned bank.
    #[must_use]
    pub fn tolerable_excursion_k(&self, bank: &MrrWeightBank, tolerance: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 50.0f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let err = self.apply_ambient(&mut bank.clone(), mid);
            if err > tolerance {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microring::RingParams;
    use crate::wavelength::WdmGrid;

    fn calibrated_bank(n: usize) -> (MrrWeightBank, Vec<f64>) {
        let grid = WdmGrid::dense_50ghz(n).unwrap();
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        let mut bank = MrrWeightBank::new(grid, params).unwrap();
        let targets: Vec<f64> = (0..n).map(|i| -0.7 + 1.4 * i as f64 / n as f64).collect();
        bank.calibrate(&targets, 1e-6, 200).unwrap();
        (bank, targets)
    }

    #[test]
    fn validation() {
        assert!(ThermalModel {
            neighbor_coupling: 1.5,
            ..ThermalModel::default()
        }
        .validate()
        .is_err());
        assert!(ThermalModel {
            drift_m_per_k: -1.0,
            ..ThermalModel::default()
        }
        .validate()
        .is_err());
        assert!(ThermalModel::default().validate().is_ok());
    }

    #[test]
    fn crosstalk_decays_with_distance() {
        let (bank, _) = calibrated_bank(6);
        let tm = ThermalModel::default();
        let deltas = tm.crosstalk_perturbations_m(&bank);
        // every ring sees some perturbation
        assert!(deltas.iter().all(|&d| d != 0.0));
        // a middle ring sees more aggregate crosstalk than an end ring with
        // similar neighbours
        assert!(deltas[2].abs() > deltas[0].abs() * 0.8);
    }

    #[test]
    fn crosstalk_perturbs_weights_measurably() {
        let (mut bank, _) = calibrated_bank(8);
        let tm = ThermalModel::default();
        // 5% of a full-range neighbour shift is ~10 pm ≈ 0.65 linewidths:
        // thermal crosstalk genuinely wrecks uncompensated weights (which
        // is why real weight banks calibrate with the thermal field in the
        // loop — demonstrated by `recalibration_recovers_from_crosstalk`).
        let err = tm.apply_crosstalk(&mut bank);
        assert!(err > 0.01, "crosstalk err {err} suspiciously small");
        assert!(err <= 2.0, "weight error cannot exceed the weight range");
    }

    #[test]
    fn zero_coupling_is_harmless() {
        let (mut bank, _) = calibrated_bank(6);
        let tm = ThermalModel {
            neighbor_coupling: 0.0,
            ..ThermalModel::default()
        };
        let err = tm.apply_crosstalk(&mut bank);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn ambient_drift_scales_with_excursion() {
        let tm = ThermalModel::default();
        let (bank, _) = calibrated_bank(5);
        let mut b1 = bank.clone();
        let mut b2 = bank.clone();
        let e1 = tm.apply_ambient(&mut b1, 0.1);
        let e2 = tm.apply_ambient(&mut b2, 1.0);
        assert!(e2 > e1, "1 K must hurt more than 0.1 K ({e2} vs {e1})");
    }

    #[test]
    fn one_kelvin_breaks_an_uncompensated_bank() {
        // 75 pm/K vs a 15.5 pm HWHM: a 1 K excursion moves resonances by
        // ~5 linewidths — weights are destroyed without a control loop.
        let tm = ThermalModel::default();
        let (mut bank, _) = calibrated_bank(5);
        let err = tm.apply_ambient(&mut bank, 1.0);
        assert!(err > 0.3, "1 K drift only cost {err}?");
    }

    #[test]
    fn recalibration_recovers_from_crosstalk() {
        let (mut bank, targets) = calibrated_bank(8);
        let tm = ThermalModel::default();
        tm.apply_crosstalk(&mut bank);
        let report = bank.calibrate(&targets, 1e-6, 200).unwrap();
        assert!(report.residual <= 1e-6);
    }

    #[test]
    fn tolerable_excursion_is_sub_kelvin() {
        let tm = ThermalModel::default();
        let (bank, _) = calibrated_bank(5);
        let tol_k = tm.tolerable_excursion_k(&bank, 0.01);
        assert!(
            tol_k > 0.0 && tol_k < 1.0,
            "1% weight tolerance should be a sub-kelvin budget, got {tol_k} K"
        );
    }

    #[test]
    fn bisection_budget_tracks_the_worst_slope_bound() {
        // Analytic bound: the ambient shift that moves a ring sitting at
        // the Lorentzian's steepest point, |dw/dδ|max = gain·(3√3/8)/δ½,
        // by `tolerance`. No calibrated ring drifts faster, so bisection
        // never finds a smaller budget, and banks whose targets span the
        // weight range hold a ring near that slope, so not much larger.
        let tm = ThermalModel::default();
        for n in [4, 8, 16] {
            let (bank, _) = calibrated_bank(n);
            let ring = bank.rings()[0].params();
            let hwhm = 1550e-9 / (2.0 * ring.q_factor);
            let gain = ring.drop_peak + 1.0 - ring.epsilon();
            let slope_per_m = gain * (3.0 * 3.0f64.sqrt() / 8.0) / hwhm;
            for tolerance in [0.005, 0.01, 0.02, 0.05] {
                let analytic = tolerance / slope_per_m / tm.drift_m_per_k;
                let bisection = tm.tolerable_excursion_k(&bank, tolerance);
                assert!(
                    analytic <= bisection && bisection <= 1.1 * analytic,
                    "{n} rings at {tolerance}: bisection {bisection} K vs analytic {analytic} K"
                );
            }
        }
    }
}
