//! Photodiodes and balanced detection.
//!
//! "A photodiode sums up all the incoming wavelengths into an aggregate
//! photo-current" (paper §III) — the accumulate half of the optical MAC.
//! The paper notes integrated photodiodes run at "tens of GHz if not
//! hundreds" at zero bias, so detection is never the bottleneck; what the
//! functional simulation needs from this model is the photocurrent and its
//! noise (shot + thermal), which set the analog precision of the MAC.

use rand::Rng;

use crate::constants::{BOLTZMANN, ELEMENTARY_CHARGE, ROOM_TEMPERATURE};
use crate::{PhotonicError, Result};

/// A PIN photodiode with a transimpedance load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodiode {
    /// Responsivity, A/W.
    pub responsivity_a_w: f64,
    /// Dark current, A.
    pub dark_current_a: f64,
    /// Load (transimpedance) resistance, ohms.
    pub load_ohms: f64,
    /// Detection temperature, K.
    pub temperature_k: f64,
}

impl Default for Photodiode {
    /// 1 A/W responsivity, 10 nA dark current, 50 Ω load at room temperature.
    fn default() -> Self {
        Photodiode {
            responsivity_a_w: 1.0,
            dark_current_a: 10e-9,
            load_ohms: 50.0,
            temperature_k: ROOM_TEMPERATURE,
        }
    }
}

impl Photodiode {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for non-positive
    /// responsivity, load, or temperature.
    pub fn validate(&self) -> Result<()> {
        if !(self.responsivity_a_w > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!(
                    "responsivity must be positive, got {}",
                    self.responsivity_a_w
                ),
            });
        }
        if !(self.load_ohms > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("load must be positive, got {}", self.load_ohms),
            });
        }
        if !(self.temperature_k > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("temperature must be positive, got {}", self.temperature_k),
            });
        }
        Ok(())
    }

    /// Mean photocurrent for a total incident optical power (watts):
    /// `I = R·P + I_dark`.
    #[must_use]
    pub fn photocurrent_a(&self, power_w: f64) -> f64 {
        self.responsivity_a_w * power_w.max(0.0) + self.dark_current_a
    }

    /// Shot-noise current variance over bandwidth `bw_hz`: `2·q·I·B`.
    #[must_use]
    pub fn shot_noise_variance(&self, current_a: f64, bw_hz: f64) -> f64 {
        2.0 * ELEMENTARY_CHARGE * current_a.abs() * bw_hz
    }

    /// Thermal (Johnson) noise current variance over `bw_hz`: `4·kB·T·B/R`.
    #[must_use]
    pub fn thermal_noise_variance(&self, bw_hz: f64) -> f64 {
        4.0 * BOLTZMANN * self.temperature_k * bw_hz / self.load_ohms
    }
}

/// A balanced photodiode pair: output = I(+) − I(−).
///
/// Broadcast-and-weight realises *signed* weights by steering carrier power
/// between a drop bus (detected by the + diode) and a through bus (the −
/// diode); the differential current is proportional to the signed weighted
/// sum, and common-mode terms (dark current) cancel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BalancedPair {
    /// The (identical) diodes of the pair.
    pub diode: Photodiode,
}

impl BalancedPair {
    /// Mean differential current for `(plus_power, minus_power)` in watts.
    #[must_use]
    pub fn differential_current_a(&self, plus_w: f64, minus_w: f64) -> f64 {
        // dark currents cancel in the difference
        self.diode.responsivity_a_w * (plus_w.max(0.0) - minus_w.max(0.0))
    }

    /// Noise variance of the differential current: both diodes contribute
    /// shot noise (variances add) and both loads contribute thermal noise.
    #[must_use]
    pub fn noise_variance(&self, plus_w: f64, minus_w: f64, bw_hz: f64) -> f64 {
        let i_plus = self.diode.photocurrent_a(plus_w);
        let i_minus = self.diode.photocurrent_a(minus_w);
        self.diode.shot_noise_variance(i_plus, bw_hz)
            + self.diode.shot_noise_variance(i_minus, bw_hz)
            + 2.0 * self.diode.thermal_noise_variance(bw_hz)
    }

    /// Samples a noisy differential current.
    pub fn sample_differential_a(
        &self,
        plus_w: f64,
        minus_w: f64,
        bw_hz: f64,
        rng: &mut impl Rng,
    ) -> f64 {
        let mean = self.differential_current_a(plus_w, minus_w);
        let sigma = self.noise_variance(plus_w, minus_w, bw_hz).sqrt();
        mean + sigma * gaussian(rng)
    }
}

fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Photodiode {
            responsivity_a_w: 0.0,
            ..Photodiode::default()
        }
        .validate()
        .is_err());
        assert!(Photodiode {
            load_ohms: -1.0,
            ..Photodiode::default()
        }
        .validate()
        .is_err());
        assert!(Photodiode::default().validate().is_ok());
    }

    #[test]
    fn photocurrent_is_linear_in_power() {
        let pd = Photodiode::default();
        let i1 = pd.photocurrent_a(1e-3) - pd.dark_current_a;
        let i2 = pd.photocurrent_a(2e-3) - pd.dark_current_a;
        assert!((i2 / i1 - 2.0).abs() < 1e-12);
        // negative power clamps to dark current only
        assert!((pd.photocurrent_a(-1.0) - pd.dark_current_a).abs() < 1e-18);
    }

    #[test]
    fn shot_noise_matches_formula() {
        let pd = Photodiode::default();
        let var = pd.shot_noise_variance(1e-3, 5e9);
        let expect = 2.0 * ELEMENTARY_CHARGE * 1e-3 * 5e9;
        assert!((var - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn thermal_noise_matches_formula() {
        let pd = Photodiode::default();
        let var = pd.thermal_noise_variance(5e9);
        let expect = 4.0 * BOLTZMANN * 300.0 * 5e9 / 50.0;
        assert!((var - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn balanced_pair_cancels_dark_current() {
        let bp = BalancedPair::default();
        assert_eq!(bp.differential_current_a(1e-3, 1e-3), 0.0);
        let i = bp.differential_current_a(2e-3, 1e-3);
        assert!((i - 1e-3).abs() < 1e-12); // R = 1 A/W
    }

    #[test]
    fn balanced_pair_sign_follows_dominant_bus() {
        let bp = BalancedPair::default();
        assert!(bp.differential_current_a(2e-3, 1e-3) > 0.0);
        assert!(bp.differential_current_a(1e-3, 2e-3) < 0.0);
    }

    #[test]
    fn balanced_noise_exceeds_single_diode_noise() {
        let bp = BalancedPair::default();
        let single = bp
            .diode
            .shot_noise_variance(bp.diode.photocurrent_a(1e-3), 5e9)
            + bp.diode.thermal_noise_variance(5e9);
        let pair = bp.noise_variance(1e-3, 1e-3, 5e9);
        assert!(pair > single);
    }

    #[test]
    fn snr_improves_with_power() {
        let bp = BalancedPair::default();
        let snr = |p: f64| {
            let sig = bp.differential_current_a(p, 0.0);
            sig * sig / bp.noise_variance(p, 0.0, 5e9)
        };
        assert!(snr(1e-3) > snr(1e-5));
    }
}
