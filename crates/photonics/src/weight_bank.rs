//! MRR weight banks: one serial bank of rings per kernel (neuron).
//!
//! In broadcast-and-weight, every kernel owns a bank of `N` rings, one per
//! input carrier. All carriers traverse the bank's through bus in series;
//! each ring splits its carrier (and, parasitically, its neighbours'
//! Lorentzian tails) between the drop bus and the through bus. A balanced
//! photodiode pair subtracts the two bus powers, yielding
//! `I ∝ Σ_j P_j · w_eff(j)`.
//!
//! Because ring `i` also touches channel `j ≠ i`, the *effective* weights
//! deviate from the per-ring settings. [`MrrWeightBank::calibrate`] runs the
//! fixed-point correction loop a hardware controller would run (Tait et al.
//! calibrate their banks the same way, with photodetector feedback).

use crate::microring::{Microring, RingParams};
use crate::wavelength::WdmGrid;
use crate::{PhotonicError, Result};

/// A serial bank of microrings weighting the channels of a [`WdmGrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct MrrWeightBank {
    grid: WdmGrid,
    rings: Vec<Microring>,
}

/// Result of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final maximum absolute error between target and effective weights.
    pub residual: f64,
}

impl MrrWeightBank {
    /// Builds a bank with one ring per grid channel, all parked (weight ≈ −1).
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures from [`Microring::new`].
    pub fn new(grid: WdmGrid, params: RingParams) -> Result<Self> {
        let rings = grid
            .wavelengths_m()
            .into_iter()
            .map(|wl| Microring::new(params, wl))
            .collect::<Result<Vec<_>>>()?;
        Ok(MrrWeightBank { grid, rings })
    }

    /// Number of rings (= channels).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// Whether the bank has no rings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty()
    }

    /// The WDM grid this bank weights.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Access to the individual rings.
    #[must_use]
    pub fn rings(&self) -> &[Microring] {
        &self.rings
    }

    /// Realisable weight range `(min, max)` common to all rings.
    #[must_use]
    pub fn weight_range(&self) -> (f64, f64) {
        let min = self
            .rings
            .iter()
            .map(Microring::min_weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let max = self
            .rings
            .iter()
            .map(Microring::max_weight)
            .fold(f64::INFINITY, f64::min);
        (min, max)
    }

    /// Splits the per-channel input powers between the drop and through
    /// buses, returning `(drop_powers, through_powers)` per channel.
    ///
    /// Channel `j` passes every ring in series: ring `i` diverts
    /// `T_drop,i(λ_j)` of the *remaining* power to the drop bus and passes
    /// `T_thru,i(λ_j)` onward — the crosstalk-exact propagation.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] if `powers_w` length
    /// differs from the channel count.
    pub fn propagate(&self, powers_w: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        if powers_w.len() != self.rings.len() {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.rings.len(),
                actual: powers_w.len(),
            });
        }
        Ok(self.transfer(powers_w))
    }

    /// [`propagate`](Self::propagate) for powers already sized to the
    /// bank (a shorter slice yields shorter outputs).
    fn transfer(&self, powers_w: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let wavelengths = self.grid.wavelengths_m();
        let mut drops = vec![0.0f64; powers_w.len()];
        let mut thrus = vec![0.0f64; powers_w.len()];
        for (j, (&p, &wl)) in powers_w.iter().zip(&wavelengths).enumerate() {
            let mut remaining = p;
            let mut dropped = 0.0f64;
            for ring in &self.rings {
                let d = ring.drop_transmission(wl);
                let t = ring.through_transmission(wl);
                dropped += remaining * d;
                remaining *= t;
            }
            drops[j] = dropped;
            thrus[j] = remaining;
        }
        (drops, thrus)
    }

    /// The effective signed weight each channel currently experiences,
    /// including crosstalk: `w_eff(j) = drop_j − thru_j` for unit input power.
    #[must_use]
    pub fn effective_weights(&self) -> Vec<f64> {
        let (drops, thrus) = self.channel_coefficients();
        drops.iter().zip(&thrus).map(|(&d, &t)| d - t).collect()
    }

    /// Naively sets each ring to its target weight, ignoring crosstalk.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] on a length mismatch
    /// or [`PhotonicError::WeightOutOfRange`] if any weight is unrealisable.
    pub fn set_weights_uncalibrated(&mut self, weights: &[f64]) -> Result<()> {
        if weights.len() != self.rings.len() {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.rings.len(),
                actual: weights.len(),
            });
        }
        for (ring, &w) in self.rings.iter_mut().zip(weights) {
            ring.set_weight(w)?;
        }
        Ok(())
    }

    /// Sets target weights and runs the feedback calibration loop until the
    /// effective weights match within `tolerance` (max-norm) or `max_iters`
    /// is reached.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] /
    /// [`PhotonicError::WeightOutOfRange`] as in
    /// [`Self::set_weights_uncalibrated`], or
    /// [`PhotonicError::CalibrationDiverged`] if the loop cannot reach the
    /// tolerance (e.g. channel spacing too tight for the ring Q).
    pub fn calibrate(
        &mut self,
        targets: &[f64],
        tolerance: f64,
        max_iters: usize,
    ) -> Result<CalibrationReport> {
        self.set_weights_uncalibrated(targets)?;
        let (lo, hi) = self.weight_range();
        let mut corrected: Vec<f64> = targets.to_vec();
        let mut residual = f64::INFINITY;
        for iter in 0..max_iters {
            let effective = self.effective_weights();
            residual = effective
                .iter()
                .zip(targets)
                .map(|(&e, &t)| (e - t).abs())
                .fold(0.0, f64::max);
            if residual <= tolerance {
                return Ok(CalibrationReport {
                    iterations: iter,
                    residual,
                });
            }
            for ((c, &e), &t) in corrected.iter_mut().zip(&effective).zip(targets) {
                // move the per-ring setpoint opposite the observed error,
                // damped for stability
                *c = (*c + 0.8 * (t - e)).clamp(lo, hi);
            }
            for (ring, &c) in self.rings.iter_mut().zip(&corrected) {
                ring.set_weight(c)?;
            }
        }
        if residual <= tolerance {
            Ok(CalibrationReport {
                iterations: max_iters,
                residual,
            })
        } else {
            Err(PhotonicError::CalibrationDiverged {
                residual,
                tolerance,
            })
        }
    }

    /// Total heater power of all rings, watts.
    #[must_use]
    pub fn heater_power_w(&self) -> f64 {
        self.rings.iter().map(Microring::heater_power_w).sum()
    }

    /// Applies per-ring analog detuning perturbations (thermal effects),
    /// one delta per ring in bank order.
    pub(crate) fn perturb_rings(&mut self, deltas_m: &[f64]) {
        for (ring, &d) in self.rings.iter_mut().zip(deltas_m) {
            ring.perturb(d);
        }
    }

    /// Shifts every ring's detuning by the same `delta_m` — a uniform
    /// (ambient) thermal excursion.
    pub fn shift_detunings(&mut self, delta_m: f64) {
        for ring in &mut self.rings {
            ring.perturb(delta_m);
        }
    }

    /// The thermal tuning shift each ring's heater imposes, metres.
    #[must_use]
    pub fn tuning_shifts_m(&self) -> Vec<f64> {
        self.rings.iter().map(Microring::tuning_shift_m).collect()
    }

    /// Per-channel linear transfer coefficients `(drop, through)`: the bank
    /// is linear in the input powers, so `propagate(p)[j] = (p_j·drop_j,
    /// p_j·thru_j)`. Precomputing these turns a per-evaluation `O(N²)`
    /// propagation into `O(N)` — the functional simulator's fast path.
    #[must_use]
    pub fn channel_coefficients(&self) -> (Vec<f64>, Vec<f64>) {
        self.transfer(&vec![1.0; self.rings.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(n: usize) -> MrrWeightBank {
        let grid = WdmGrid::dense_50ghz(n).unwrap();
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        MrrWeightBank::new(grid, params).unwrap()
    }

    #[test]
    fn bank_has_one_ring_per_channel() {
        let b = bank(8);
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
        assert_eq!(b.rings().len(), b.grid().channels());
    }

    #[test]
    fn parked_bank_weights_near_minus_one() {
        let b = bank(4);
        for w in b.effective_weights() {
            assert!(w < -0.95, "parked weight {w}");
        }
    }

    #[test]
    fn propagate_validates_length() {
        let b = bank(4);
        assert!(b.propagate(&[1.0; 3]).is_err());
        assert!(b.propagate(&[1.0; 4]).is_ok());
    }

    #[test]
    fn propagate_conserves_or_loses_power() {
        // drop + through ≤ input (ring insertion loss dissipates the rest)
        let mut b = bank(4);
        b.set_weights_uncalibrated(&[0.5, -0.5, 0.8, 0.0]).unwrap();
        let powers = [1.0e-3; 4];
        let (drops, thrus) = b.propagate(&powers).unwrap();
        for j in 0..4 {
            assert!(drops[j] + thrus[j] <= powers[j] + 1e-12);
            assert!(drops[j] >= 0.0 && thrus[j] >= 0.0);
        }
    }

    #[test]
    fn uncalibrated_weights_show_crosstalk_error() {
        let mut b = bank(8);
        let targets = vec![0.7; 8];
        b.set_weights_uncalibrated(&targets).unwrap();
        let eff = b.effective_weights();
        let err = eff
            .iter()
            .zip(&targets)
            .map(|(&e, &t)| (e - t).abs())
            .fold(0.0, f64::max);
        assert!(err > 1e-4, "expected visible crosstalk, err {err}");
    }

    #[test]
    fn calibration_reduces_crosstalk_error() {
        let mut b = bank(8);
        let targets: Vec<f64> = (0..8).map(|i| -0.8 + 0.2 * i as f64).collect();
        let report = b.calibrate(&targets, 1e-6, 100).unwrap();
        assert!(report.residual <= 1e-6);
        let eff = b.effective_weights();
        for (e, t) in eff.iter().zip(&targets) {
            assert!((e - t).abs() < 1e-5, "calibrated {e} vs {t}");
        }
    }

    #[test]
    fn calibration_handles_extreme_weights() {
        let mut b = bank(6);
        let (lo, hi) = b.weight_range();
        let targets = vec![lo * 0.99, hi * 0.99, 0.0, lo * 0.5, hi * 0.5, 0.1];
        let report = b.calibrate(&targets, 1e-5, 200).unwrap();
        assert!(report.residual <= 1e-5);
    }

    #[test]
    fn calibration_rejects_unrealisable() {
        let mut b = bank(4);
        assert!(b.calibrate(&[2.0, 0.0, 0.0, 0.0], 1e-6, 50).is_err());
    }

    #[test]
    fn weighted_sum_matches_targets_after_calibration() {
        let mut b = bank(5);
        let targets = [0.3, -0.6, 0.8, -0.1, 0.0];
        b.calibrate(&targets, 1e-7, 200).unwrap();
        let powers = [0.2e-3, 0.4e-3, 0.6e-3, 0.8e-3, 1.0e-3];
        let (drops, thrus) = b.propagate(&powers).unwrap();
        let balanced: f64 = drops.iter().sum::<f64>() - thrus.iter().sum::<f64>();
        let ideal: f64 = powers.iter().zip(&targets).map(|(&p, &w)| p * w).sum();
        assert!(
            (balanced - ideal).abs() < 1e-8,
            "balanced {balanced} vs ideal {ideal}"
        );
    }

    #[test]
    fn heater_power_grows_with_positive_weights() {
        let mut b = bank(4);
        let parked = b.heater_power_w();
        b.set_weights_uncalibrated(&[0.8; 4]).unwrap();
        assert!(b.heater_power_w() > parked);
    }

    #[test]
    fn quantized_bank_calibrates_to_looser_tolerance() {
        let grid = WdmGrid::dense_50ghz(6).unwrap();
        let b = MrrWeightBank::new(grid, RingParams::default());
        let mut b = b.unwrap();
        let targets = [0.5, -0.5, 0.25, -0.25, 0.0, 0.75];
        // 10-bit heaters can't hit 1e-6; 1e-2 (≈ the heater LSB in weight
        // units) is attainable.
        let report = b.calibrate(&targets, 1e-2, 300).unwrap();
        assert!(report.residual <= 1e-2);
    }
}
