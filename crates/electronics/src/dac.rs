//! Digital-to-analog converters.
//!
//! "In PCNNA DACs operate at a rate of 6GSa/s \[16\] while each takes up an
//! area of 0.52mm². Our design comprises 1 kernel weight DAC and 10 input
//! DACs." (§V-B). The DAC is the paper's declared full-system bottleneck:
//! eq. (8) divides the per-location input updates across the 10 input DACs.

use crate::time::SimTime;
use crate::{ElectronicError, Result};

/// One DAC: rate, resolution, area, power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacModel {
    /// Conversion rate, samples/s.
    pub rate_sps: f64,
    /// Resolution, bits.
    pub bits: u8,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Power draw while converting, watts.
    pub power_w: f64,
}

impl Default for DacModel {
    /// The paper's reference \[16\]: 16-bit, 6 GSa/s, 0.52 mm² (power from
    /// the ISSCC'18 part, ~350 mW).
    fn default() -> Self {
        DacModel {
            rate_sps: 6e9,
            bits: 16,
            area_mm2: 0.52,
            power_w: 0.35,
        }
    }
}

impl DacModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] on non-positive rate or
    /// zero bits.
    pub fn validate(&self) -> Result<()> {
        if !(self.rate_sps > 0.0) {
            return Err(ElectronicError::InvalidParameter {
                reason: format!("DAC rate must be positive, got {}", self.rate_sps),
            });
        }
        if self.bits == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "DAC must have at least 1 bit".to_owned(),
            });
        }
        Ok(())
    }

    /// Time for one conversion.
    #[must_use]
    pub fn sample_time(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.rate_sps)
    }

    /// Time for `n` sequential conversions on this one DAC.
    #[must_use]
    pub fn convert_time(&self, n: u64) -> SimTime {
        SimTime::from_secs_f64(n as f64 / self.rate_sps)
    }

    /// Energy for `n` conversions, joules.
    #[must_use]
    pub fn convert_energy_j(&self, n: u64) -> f64 {
        self.power_w * n as f64 / self.rate_sps
    }
}

/// A bank of identical DACs converting a batch in parallel.
///
/// The paper's input path has 10 of these; a batch of `n` values takes
/// `ceil(n / n_dacs)` sequential conversions — exactly eq. (8)'s
/// `nc·m·s / NDAC` when `n = nc·m·s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacArray {
    /// Per-DAC model.
    pub dac: DacModel,
    /// Number of parallel DACs.
    pub count: usize,
}

impl DacArray {
    /// Creates an array of `count` parallel DACs.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for zero count or an
    /// invalid per-DAC model.
    pub fn new(dac: DacModel, count: usize) -> Result<Self> {
        dac.validate()?;
        if count == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "DAC array needs at least one DAC".to_owned(),
            });
        }
        Ok(DacArray { dac, count })
    }

    /// Sequential conversions each DAC performs for a batch of `n` values:
    /// `ceil(n / count)` — the paper's eq. (8) numerator division.
    #[must_use]
    pub fn conversions_per_dac(&self, n: u64) -> u64 {
        n.div_ceil(self.count as u64)
    }

    /// Wall time to convert a batch of `n` values.
    #[must_use]
    pub fn convert_time(&self, n: u64) -> SimTime {
        self.dac.convert_time(self.conversions_per_dac(n))
    }

    /// Energy to convert a batch of `n` values (all DACs, joules).
    #[must_use]
    pub fn convert_energy_j(&self, n: u64) -> f64 {
        // n actual conversions happen in total regardless of distribution
        self.dac.convert_energy_j(n)
    }

    /// Total array area, mm².
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        self.dac.area_mm2 * self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(DacModel {
            rate_sps: 0.0,
            ..DacModel::default()
        }
        .validate()
        .is_err());
        assert!(DacModel {
            bits: 0,
            ..DacModel::default()
        }
        .validate()
        .is_err());
        assert!(DacModel::default().validate().is_ok());
        assert!(DacArray::new(DacModel::default(), 0).is_err());
    }

    #[test]
    fn sample_time_at_6gsps() {
        let d = DacModel::default();
        // 1/6 GHz ≈ 166.7 ps
        assert_eq!(d.sample_time(), SimTime::from_ps(167));
    }

    #[test]
    fn paper_equation_8_division() {
        // eq. (8): 384·3·1 / 10 DACs ≈ 116 conversions per DAC.
        let arr = DacArray::new(DacModel::default(), 10).unwrap();
        assert_eq!(arr.conversions_per_dac(384 * 3), 116);
    }

    #[test]
    fn batch_time_matches_conversions() {
        let arr = DacArray::new(DacModel::default(), 10).unwrap();
        let t = arr.convert_time(1152);
        let expect = SimTime::from_secs_f64(116.0 / 6e9);
        assert_eq!(t, expect);
        // ~19.3 ns
        assert!((t.as_ns_f64() - 19.33).abs() < 0.1);
    }

    #[test]
    fn single_dac_array_is_sequential() {
        let arr = DacArray::new(DacModel::default(), 1).unwrap();
        assert_eq!(arr.conversions_per_dac(7), 7);
        assert_eq!(arr.convert_time(7), DacModel::default().convert_time(7));
    }

    #[test]
    fn zero_batch_is_free() {
        let arr = DacArray::new(DacModel::default(), 10).unwrap();
        assert_eq!(arr.convert_time(0), SimTime::ZERO);
        assert_eq!(arr.convert_energy_j(0), 0.0);
    }

    #[test]
    fn energy_counts_total_conversions() {
        let arr = DacArray::new(DacModel::default(), 10).unwrap();
        let e1 = arr.convert_energy_j(100);
        let e2 = arr.convert_energy_j(200);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn area_scales_with_count() {
        let arr = DacArray::new(DacModel::default(), 10).unwrap();
        assert!((arr.area_mm2() - 5.2).abs() < 1e-12);
    }
}
