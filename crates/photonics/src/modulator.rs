//! Mach-Zehnder intensity modulators.
//!
//! The paper drives its input carriers with MZMs: "analog input values from
//! DAC modulate the laser beams with Mach Zehnder Modulators (MZM), which
//! are usually faster than the 5GHz clock" (§V-B). An MZM's intensity
//! transfer is the raised cosine `T(v) = sin²(π·v / (2·Vπ))`; to impose a
//! *linear* intensity x the driver pre-distorts with
//! `v = (2·Vπ/π)·asin(√x)`, which this model implements, including the
//! finite resolution of the driving DAC and the modulator's insertion loss
//! and extinction floor.

use crate::{PhotonicError, Result};

/// A Mach-Zehnder intensity modulator with pre-distorted drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mzm {
    /// Half-wave voltage, volts.
    pub v_pi: f64,
    /// Insertion loss as a linear power factor in (0, 1].
    pub insertion: f64,
    /// Extinction ratio in dB (floor transmission = insertion·10^(−ER/10)).
    pub extinction_db: f64,
    /// Analog 3 dB bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Drive-DAC resolution in bits; `None` = ideal continuous drive.
    pub drive_bits: Option<u8>,
}

impl Default for Mzm {
    /// Typical silicon MZM: Vπ = 2 V, 3 dB insertion loss, 25 dB extinction,
    /// 20 GHz bandwidth ("usually faster than the 5 GHz clock"), driven by
    /// the paper's 16-bit DAC.
    fn default() -> Self {
        Mzm {
            v_pi: 2.0,
            insertion: 0.5,
            extinction_db: 25.0,
            bandwidth_hz: 20e9,
            drive_bits: Some(16),
        }
    }
}

impl Mzm {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] on non-physical values.
    pub fn validate(&self) -> Result<()> {
        if !(self.v_pi > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("Vπ must be positive, got {}", self.v_pi),
            });
        }
        if !(self.insertion > 0.0 && self.insertion <= 1.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("insertion must be in (0,1], got {}", self.insertion),
            });
        }
        if !(self.bandwidth_hz > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: "bandwidth must be positive".to_owned(),
            });
        }
        Ok(())
    }

    /// Raw intensity transfer at drive voltage `v`:
    /// `insertion · sin²(π v / (2 Vπ))`, floored by the extinction ratio.
    #[must_use]
    pub fn transmission(&self, v: f64) -> f64 {
        let t = (core::f64::consts::PI * v / (2.0 * self.v_pi))
            .sin()
            .powi(2);
        let floor = 10f64.powf(-self.extinction_db / 10.0);
        self.insertion * t.max(floor)
    }

    /// Pre-distorted drive voltage that would produce normalized intensity
    /// `x ∈ [0, 1]` through the sine-squared transfer.
    #[must_use]
    pub fn drive_voltage(&self, x: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        (2.0 * self.v_pi / core::f64::consts::PI) * x.sqrt().asin()
    }

    /// Modulates a normalized intensity `x ∈ [0, 1]`: pre-distorts, applies
    /// the (possibly quantized) drive, and returns the achieved normalized
    /// output intensity — `insertion · x` up to DAC rounding and the
    /// extinction floor.
    #[must_use]
    pub fn modulate(&self, x: f64) -> f64 {
        let mut v = self.drive_voltage(x);
        if let Some(bits) = self.drive_bits {
            let levels = ((1u64 << bits) - 1) as f64;
            let step = self.v_pi / levels;
            v = (v / step).round() * step;
        }
        self.transmission(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> Mzm {
        Mzm {
            drive_bits: None,
            insertion: 1.0,
            extinction_db: 300.0, // effectively a perfect null
            ..Mzm::default()
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(Mzm {
            v_pi: -1.0,
            ..Mzm::default()
        }
        .validate()
        .is_err());
        assert!(Mzm {
            insertion: 0.0,
            ..Mzm::default()
        }
        .validate()
        .is_err());
        assert!(Mzm {
            bandwidth_hz: 0.0,
            ..Mzm::default()
        }
        .validate()
        .is_err());
        assert!(Mzm::default().validate().is_ok());
    }

    #[test]
    fn transfer_is_sine_squared() {
        let m = ideal();
        assert!(m.transmission(0.0) < 1e-5);
        assert!((m.transmission(m.v_pi) - 1.0).abs() < 1e-12);
        assert!((m.transmission(m.v_pi / 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn predistortion_linearises_exactly() {
        let m = ideal();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let y = m.modulate(x);
            assert!((y - x).abs() < 1e-9, "x={x} y={y}");
        }
    }

    #[test]
    fn insertion_loss_scales_output() {
        let m = Mzm {
            drive_bits: None,
            insertion: 0.5,
            ..ideal()
        };
        assert!((m.modulate(0.8) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn quantized_drive_error_is_small_for_16_bits() {
        let m = Mzm {
            insertion: 1.0,
            extinction_db: 60.0,
            ..Mzm::default()
        };
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            let y = m.modulate(x);
            assert!((y - x).abs() < 1e-3, "x={x} y={y}");
        }
    }

    #[test]
    fn extinction_floor_limits_zero() {
        let m = Mzm {
            drive_bits: None,
            insertion: 1.0,
            extinction_db: 25.0,
            ..Mzm::default()
        };
        let floor = 10f64.powf(-2.5);
        assert!((m.modulate(0.0) - floor).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let m = ideal();
        assert!((m.modulate(1.7) - 1.0).abs() < 1e-9);
        assert!(m.modulate(-0.3) < 1e-5);
    }

    #[test]
    fn bandwidth_check_matches_paper_claim() {
        // §V-B: MZMs are "usually faster than the 5GHz clock".
        let m = Mzm::default();
        assert!(m.bandwidth_hz >= 5e9);
        assert!(m.bandwidth_hz < 50e9);
    }
}
