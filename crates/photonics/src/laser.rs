//! Laser diodes and laser arrays.
//!
//! Each WDM carrier comes from a dedicated laser diode (the paper's "Laser
//! beams of different wavelengths generated by Laser Diodes (LD)"). The
//! model captures the two quantities the rest of the system cares about:
//! emitted optical power (with relative-intensity noise, RIN) and electrical
//! wall-plug consumption.

use rand::Rng;

use crate::{PhotonicError, Result};

/// A single-wavelength laser diode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserDiode {
    /// Mean emitted optical power, watts.
    pub power_w: f64,
    /// Relative intensity noise, dB/Hz (e.g. −150).
    pub rin_db_hz: f64,
    /// Wall-plug efficiency in (0, 1].
    pub wall_plug_efficiency: f64,
}

impl Default for LaserDiode {
    /// 1 mW output, −150 dB/Hz RIN, 10% wall-plug efficiency.
    fn default() -> Self {
        LaserDiode {
            power_w: 1.0e-3,
            rin_db_hz: -150.0,
            wall_plug_efficiency: 0.1,
        }
    }
}

impl LaserDiode {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for non-positive power or
    /// out-of-range efficiency.
    pub fn validate(&self) -> Result<()> {
        if !(self.power_w > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("laser power must be positive, got {}", self.power_w),
            });
        }
        if !(self.wall_plug_efficiency > 0.0 && self.wall_plug_efficiency <= 1.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!(
                    "wall-plug efficiency must be in (0,1], got {}",
                    self.wall_plug_efficiency
                ),
            });
        }
        Ok(())
    }

    /// RIN-induced power variance over a detection bandwidth `bw_hz`:
    /// `σ² = P² · 10^(RIN/10) · B`.
    #[must_use]
    pub fn rin_power_variance(&self, bw_hz: f64) -> f64 {
        self.power_w * self.power_w * 10f64.powf(self.rin_db_hz / 10.0) * bw_hz
    }

    /// Samples an instantaneous emitted power including RIN over bandwidth
    /// `bw_hz` (Gaussian approximation, floored at zero).
    pub fn sample_power(&self, bw_hz: f64, rng: &mut impl Rng) -> f64 {
        let sigma = self.rin_power_variance(bw_hz).sqrt();
        let z = gaussian(rng);
        (self.power_w + sigma * z).max(0.0)
    }

    /// Electrical power drawn, watts.
    #[must_use]
    pub fn electrical_power_w(&self) -> f64 {
        self.power_w / self.wall_plug_efficiency
    }

    /// The diode after aging to `power_factor` of its nominal output
    /// (clamped to `[0, 1]`): emitted power drops while the drive
    /// current — and so the electrical draw — stays at its nominal
    /// set point, which is exactly how diode aging manifests (falling
    /// wall-plug efficiency at constant bias). RIN is left unchanged,
    /// a conservative reading (aged diodes are typically noisier).
    #[must_use]
    pub fn aged(&self, power_factor: f64) -> LaserDiode {
        let factor = power_factor.clamp(0.0, 1.0).max(f64::MIN_POSITIVE);
        LaserDiode {
            power_w: self.power_w * factor,
            rin_db_hz: self.rin_db_hz,
            wall_plug_efficiency: self.wall_plug_efficiency * factor,
        }
    }
}

/// An array of identical laser diodes, one per WDM channel.
#[derive(Debug, Clone, PartialEq)]
pub struct LaserArray {
    diode: LaserDiode,
    count: usize,
}

impl LaserArray {
    /// Creates an array of `count` identical diodes.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for zero count or invalid
    /// diode parameters.
    pub fn new(diode: LaserDiode, count: usize) -> Result<Self> {
        diode.validate()?;
        if count == 0 {
            return Err(PhotonicError::InvalidParameter {
                reason: "laser array needs at least one diode".to_owned(),
            });
        }
        Ok(LaserArray { diode, count })
    }

    /// Number of diodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the array is empty (never true post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-diode model.
    #[must_use]
    pub fn diode(&self) -> &LaserDiode {
        &self.diode
    }

    /// Mean per-channel powers (all identical).
    #[must_use]
    pub fn mean_powers_w(&self) -> Vec<f64> {
        vec![self.diode.power_w; self.count]
    }

    /// Samples per-channel powers with independent RIN.
    pub fn sample_powers_w(&self, bw_hz: f64, rng: &mut impl Rng) -> Vec<f64> {
        (0..self.count)
            .map(|_| self.diode.sample_power(bw_hz, rng))
            .collect()
    }

    /// Total electrical draw of the array, watts.
    #[must_use]
    pub fn electrical_power_w(&self) -> f64 {
        self.diode.electrical_power_w() * self.count as f64
    }
}

/// Standard normal sample via Box-Muller (kept local: the substrate avoids
/// distribution crates).
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(LaserDiode {
            power_w: 0.0,
            ..LaserDiode::default()
        }
        .validate()
        .is_err());
        assert!(LaserDiode {
            wall_plug_efficiency: 1.5,
            ..LaserDiode::default()
        }
        .validate()
        .is_err());
        assert!(LaserDiode::default().validate().is_ok());
        assert!(LaserArray::new(LaserDiode::default(), 0).is_err());
    }

    #[test]
    fn rin_variance_scales_with_bandwidth_and_power() {
        let ld = LaserDiode::default();
        let v1 = ld.rin_power_variance(5e9);
        let v2 = ld.rin_power_variance(10e9);
        assert!((v2 / v1 - 2.0).abs() < 1e-12);
        let strong = LaserDiode {
            power_w: 2e-3,
            ..ld
        };
        assert!((strong.rin_power_variance(5e9) / v1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rin_at_minus_150_is_tiny_relative_to_signal() {
        let ld = LaserDiode::default();
        let sigma = ld.rin_power_variance(5e9).sqrt();
        assert!(sigma / ld.power_w < 1e-2);
    }

    #[test]
    fn sampled_power_statistics() {
        let ld = LaserDiode::default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| ld.sample_power(5e9, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - ld.power_w).abs() / ld.power_w < 0.01);
        assert!(samples.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn electrical_power_includes_efficiency() {
        let ld = LaserDiode::default();
        assert!((ld.electrical_power_w() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn array_totals() {
        let arr = LaserArray::new(LaserDiode::default(), 16).unwrap();
        assert_eq!(arr.len(), 16);
        assert!(!arr.is_empty());
        assert_eq!(arr.mean_powers_w().len(), 16);
        assert!((arr.electrical_power_w() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn aged_diode_emits_less_at_constant_draw() {
        let ld = LaserDiode::default();
        let old = ld.aged(0.6);
        assert!((old.power_w - 0.6e-3).abs() < 1e-15);
        // aging is an efficiency loss: electrical draw stays at the
        // nominal bias set point
        assert!((old.electrical_power_w() - ld.electrical_power_w()).abs() < 1e-12);
        assert!(old.validate().is_ok());
        // clamped: factor 0 still yields a valid (vestigial) diode
        assert!(ld.aged(0.0).validate().is_ok());
        assert_eq!(ld.aged(1.0), ld);
    }

    #[test]
    fn array_samples_are_independent_ish() {
        let arr = LaserArray::new(LaserDiode::default(), 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let a = arr.sample_powers_w(5e9, &mut rng);
        let b = arr.sample_powers_w(5e9, &mut rng);
        assert_ne!(a, b);
    }
}
