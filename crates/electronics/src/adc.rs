//! Analog-to-digital converters.
//!
//! "At the output, calculated convolutions are digitized with a 2.8GSa/s
//! Analog-to-Digital Converter (ADC) \[17\] and stored into the off-chip
//! DRAM through the output buffer" (§V-B). Each kernel location produces
//! `K` convolution results; the configured ADC array digitizes them.

use crate::time::SimTime;
use crate::{ElectronicError, Result};

/// Nominal-minus-effective resolution of a multi-GSa/s converter, bits.
/// Aperture jitter and comparator noise at full rate cost roughly two
/// codes of SNDR: the paper's reference ADC \[17\] codes 10 bits but
/// measures ~50.9 dB SNDR ≈ 8 ENOB.
pub const ENOB_LOSS_BITS: u8 = 2;

/// One ADC: rate, effective resolution, power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcModel {
    /// Conversion rate, samples/s.
    pub rate_sps: f64,
    /// Nominal resolution, bits.
    pub bits: u8,
    /// Power draw, watts.
    pub power_w: f64,
    /// Die area, mm².
    pub area_mm2: f64,
}

impl Default for AdcModel {
    /// The paper's reference \[17\]: 2.8 GSa/s time-interleaved ADC,
    /// 44.6 mW, ~50.9 dB SNDR (≈ 8 effective bits; nominal 10 b).
    fn default() -> Self {
        AdcModel {
            rate_sps: 2.8e9,
            bits: 10,
            power_w: 0.0446,
            area_mm2: 0.4,
        }
    }
}

impl AdcModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] on non-positive rate or
    /// zero bits.
    pub fn validate(&self) -> Result<()> {
        if !(self.rate_sps > 0.0) {
            return Err(ElectronicError::InvalidParameter {
                reason: format!("ADC rate must be positive, got {}", self.rate_sps),
            });
        }
        if self.bits == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "ADC must have at least 1 bit".to_owned(),
            });
        }
        Ok(())
    }

    /// Effective resolution (ENOB) at full sample rate, bits. Nominal
    /// code width minus [`ENOB_LOSS_BITS`] of jitter/comparator noise,
    /// never below 1: the paper's reference converter codes 10 bits but
    /// delivers ~50.9 dB SNDR ≈ 8 effective bits at 2.8 GSa/s.
    #[must_use]
    pub fn effective_bits(&self) -> u8 {
        self.bits.saturating_sub(ENOB_LOSS_BITS).max(1)
    }

    /// Time for one conversion.
    #[must_use]
    pub fn sample_time(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.rate_sps)
    }

    /// Time for `n` sequential conversions.
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

/// A bank of identical ADCs digitizing a batch in parallel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcArray {
    /// Per-ADC model.
    pub adc: AdcModel,
    /// Number of parallel ADCs.
    pub count: usize,
}

impl AdcArray {
    /// Creates an array of `count` parallel ADCs.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for zero count or an
    /// invalid per-ADC model.
    pub fn new(adc: AdcModel, count: usize) -> Result<Self> {
        adc.validate()?;
        if count == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "ADC array needs at least one ADC".to_owned(),
            });
        }
        Ok(AdcArray { adc, count })
    }

    /// Sequential conversions per ADC for a batch of `n`.
    #[must_use]
    pub fn conversions_per_adc(&self, n: u64) -> u64 {
        n.div_ceil(self.count as u64)
    }

    /// Wall time to digitize a batch of `n` values.
    #[must_use]
    pub fn convert_time(&self, n: u64) -> SimTime {
        self.adc.convert_time(self.conversions_per_adc(n))
    }

    /// Energy to digitize a batch of `n` values, joules.
    #[must_use]
    pub fn convert_energy_j(&self, n: u64) -> f64 {
        self.adc.convert_energy_j(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(AdcModel {
            rate_sps: -1.0,
            ..AdcModel::default()
        }
        .validate()
        .is_err());
        assert!(AdcModel {
            bits: 0,
            ..AdcModel::default()
        }
        .validate()
        .is_err());
        assert!(AdcModel::default().validate().is_ok());
        assert!(AdcArray::new(AdcModel::default(), 0).is_err());
    }

    #[test]
    fn effective_bits_track_the_paper_reference() {
        assert_eq!(AdcModel::default().effective_bits(), 8);
        // never collapses to zero, even for a 1-bit converter
        assert_eq!(
            AdcModel {
                bits: 1,
                ..AdcModel::default()
            }
            .effective_bits(),
            1
        );
    }

    #[test]
    fn sample_time_at_2p8gsps() {
        let a = AdcModel::default();
        // 1/2.8 GHz ≈ 357 ps
        assert_eq!(a.sample_time(), SimTime::from_ps(357));
    }

    #[test]
    fn digitizing_alexnet_conv1_outputs_per_location() {
        // 96 kernels → 96 results per location; one ADC at 2.8 GSa/s
        let a = AdcModel::default();
        let t = a.convert_time(96);
        assert!((t.as_ns_f64() - 34.3).abs() < 0.1, "{t}");
    }

    #[test]
    fn array_divides_work() {
        let arr = AdcArray::new(AdcModel::default(), 4).unwrap();
        assert_eq!(arr.conversions_per_adc(96), 24);
        assert_eq!(arr.convert_time(96), AdcModel::default().convert_time(24));
    }

    #[test]
    fn energy_is_per_conversion() {
        let a = AdcModel::default();
        let e = a.convert_energy_j(2_800_000_000);
        // one second of conversions = power_w joules
        assert!((e - a.power_w).abs() < 1e-12);
    }

    #[test]
    fn zero_batch_is_free() {
        let arr = AdcArray::new(AdcModel::default(), 2).unwrap();
        assert_eq!(arr.convert_time(0), SimTime::ZERO);
    }
}
