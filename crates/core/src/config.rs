//! PCNNA hardware configuration.
//!
//! [`PcnnaConfig::default`] is the paper's design point, assembled from the
//! numbers in §IV and §V-B. Every knob is public so the design-space
//! explorer can sweep them.

use crate::{CoreError, Result};
use pcnna_electronics::adc::AdcModel;
use pcnna_electronics::clock::ClockDomain;
use pcnna_electronics::dac::DacModel;
use pcnna_electronics::dram::DramModel;
use pcnna_electronics::sram::SramModel;
use pcnna_photonics::link::LinkConfig;

/// How rings (and wavelengths) are allocated to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// No receptive-field filtering — paper eq. (4):
    /// `Nrings = Ninput · K · Nkernel`. Shown only as the paper's baseline;
    /// physically absurd for real layers (billions of rings).
    Unfiltered,
    /// Receptive-field filtering — paper eq. (5): `Nrings = K · Nkernel`.
    /// All `nc` channels of the receptive field are weighted in parallel.
    Filtered,
    /// Receptive-field filtering with channel-sequential processing:
    /// `Nrings = K · m · m`; the `nc` input channels share rings across
    /// `nc` optical cycles. This is the policy implied by the paper's
    /// conv4 numbers (3456 rings, 2.2 mm²), which `tests/claims.rs`
    /// checks.
    FilteredChannelSequential,
}

impl AllocationPolicy {
    /// A short fixed-width tag for table rendering.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AllocationPolicy::Unfiltered => "unfilt",
            AllocationPolicy::Filtered => "filt",
            AllocationPolicy::FilteredChannelSequential => "chseq",
        }
    }
}

/// The order kernel locations are visited in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanOrder {
    /// Row-major raster, as the paper's Figure 3 depicts. At each row wrap
    /// the receptive field changes almost entirely.
    RowMajor,
    /// Boustrophedon (serpentine) scan — an optimization this reproduction
    /// adds: consecutive locations always overlap, so the steady-state
    /// update count `nc·m·s` also holds at row turns.
    Serpentine,
}

/// Which electronic stages bound the full-system time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BottleneckModel {
    /// The paper's model: only the input-DAC constraint of eq. (8) limits
    /// the per-location rate ("the speed bottleneck of PCNNA is the DAC").
    DacOnly,
    /// This reproduction's fuller model: per-location time is the maximum
    /// of DAC, SRAM, optical, and ADC stage times (pipelined stages).
    MaxOfStages,
}

/// Complete PCNNA hardware description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcnnaConfig {
    /// Fast (optical-core) clock — paper: 5 GHz.
    pub fast_clock: ClockDomain,
    /// Input DAC model — paper \[16\]: 16 b, 6 GSa/s.
    pub input_dac: DacModel,
    /// Number of parallel input DACs — paper: 10.
    pub n_input_dacs: usize,
    /// Kernel-weight DAC count — paper: 1.
    pub n_weight_dacs: usize,
    /// Output ADC model — paper \[17\]: 2.8 GSa/s.
    pub adc: AdcModel,
    /// Number of parallel output ADCs. The paper writes "a 2.8GSa/s ADC"
    /// (singular) but its execution-time model assumes the back end never
    /// limits; 32 ADCs make that assumption true for every AlexNet layer.
    pub n_adcs: usize,
    /// Input cache — paper \[15\]: 128 kb, 7 ns.
    pub sram: SramModel,
    /// Off-chip memory model (unpinned by the paper).
    pub dram: DramModel,
    /// Microring pitch (square), metres — paper: 25 µm.
    pub ring_pitch_m: f64,
    /// Ring/wavelength allocation policy.
    pub allocation: AllocationPolicy,
    /// Kernel-location scan order.
    pub scan: ScanOrder,
    /// Electronic bottleneck model for full-system time.
    pub bottleneck: BottleneckModel,
    /// Whether per-layer kernel-weight loading (through the single weight
    /// DAC) is charged to execution time. The paper amortises/ignores it;
    /// the simulator can expose it.
    pub include_weight_load: bool,
    /// Photonic link configuration for functional simulation.
    pub link: LinkConfig,
    /// Bytes per stored value (16-bit words per §V-B).
    pub bytes_per_value: u64,
}

impl Default for PcnnaConfig {
    fn default() -> Self {
        PcnnaConfig {
            fast_clock: ClockDomain::fast_5ghz(),
            input_dac: DacModel::default(),
            n_input_dacs: 10,
            n_weight_dacs: 1,
            adc: AdcModel::default(),
            n_adcs: 32,
            sram: SramModel::default(),
            dram: DramModel::default(),
            ring_pitch_m: 25e-6,
            allocation: AllocationPolicy::Filtered,
            scan: ScanOrder::RowMajor,
            bottleneck: BottleneckModel::DacOnly,
            include_weight_load: false,
            link: LinkConfig::default(),
            bytes_per_value: 2,
        }
    }
}

impl PcnnaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero converter counts, a
    /// non-positive ring pitch, or invalid sub-models.
    pub fn validate(&self) -> Result<()> {
        if self.n_input_dacs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least one input DAC".to_owned(),
            });
        }
        if self.n_weight_dacs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least one weight DAC".to_owned(),
            });
        }
        if self.n_adcs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "need at least one ADC".to_owned(),
            });
        }
        if !(self.ring_pitch_m > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("ring pitch must be positive, got {}", self.ring_pitch_m),
            });
        }
        if self.bytes_per_value == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "bytes per value must be nonzero".to_owned(),
            });
        }
        self.input_dac.validate()?;
        self.adc.validate()?;
        self.sram.validate()?;
        self.dram.validate()?;
        Ok(())
    }

    /// Returns a copy with a different input-DAC count (design-space sweeps).
    #[must_use]
    pub fn with_input_dacs(mut self, n: usize) -> Self {
        self.n_input_dacs = n;
        self
    }

    /// Returns a copy with a different fast clock.
    #[must_use]
    pub fn with_fast_clock(mut self, clock: ClockDomain) -> Self {
        self.fast_clock = clock;
        self
    }

    /// Returns a copy with a different allocation policy.
    #[must_use]
    pub fn with_allocation(mut self, policy: AllocationPolicy) -> Self {
        self.allocation = policy;
        self
    }

    /// Returns a copy with a different scan order.
    #[must_use]
    pub fn with_scan(mut self, scan: ScanOrder) -> Self {
        self.scan = scan;
        self
    }

    /// Returns a copy with a different bottleneck model.
    #[must_use]
    pub fn with_bottleneck(mut self, model: BottleneckModel) -> Self {
        self.bottleneck = model;
        self
    }

    /// Returns a copy with a different output-ADC count.
    #[must_use]
    pub fn with_adcs(mut self, n: usize) -> Self {
        self.n_adcs = n;
        self
    }

    /// Returns a copy with a different output-ADC model (rate/bits/power).
    #[must_use]
    pub fn with_adc(mut self, adc: AdcModel) -> Self {
        self.adc = adc;
        self
    }

    /// Returns a copy with a different photonic link configuration.
    #[must_use]
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Returns a copy that charges (or stops charging) per-layer kernel
    /// weight loading to execution time.
    #[must_use]
    pub fn with_weight_load_charged(mut self, charge: bool) -> Self {
        self.include_weight_load = charge;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_design_point() {
        let c = PcnnaConfig::default();
        assert_eq!(c.fast_clock.frequency_hz(), 5e9);
        assert_eq!(c.n_input_dacs, 10);
        assert_eq!(c.n_weight_dacs, 1);
        assert_eq!(c.input_dac.rate_sps, 6e9);
        assert_eq!(c.adc.rate_sps, 2.8e9);
        assert_eq!(c.sram.capacity_words(), 8192);
        assert_eq!(c.ring_pitch_m, 25e-6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_zeros() {
        assert!(PcnnaConfig::default()
            .with_input_dacs(0)
            .validate()
            .is_err());
        let c = PcnnaConfig {
            n_adcs: 0,
            ..PcnnaConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PcnnaConfig {
            ring_pitch_m: 0.0,
            ..PcnnaConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PcnnaConfig {
            bytes_per_value: 0,
            ..PcnnaConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_helpers() {
        let c = PcnnaConfig::default()
            .with_input_dacs(20)
            .with_allocation(AllocationPolicy::FilteredChannelSequential)
            .with_scan(ScanOrder::Serpentine)
            .with_bottleneck(BottleneckModel::MaxOfStages);
        assert_eq!(c.n_input_dacs, 20);
        assert_eq!(c.allocation, AllocationPolicy::FilteredChannelSequential);
        assert_eq!(c.scan, ScanOrder::Serpentine);
        assert_eq!(c.bottleneck, BottleneckModel::MaxOfStages);
    }

    #[test]
    fn builders_cover_every_dse_knob() {
        // Each `with_*` builder must land on its own field and leave the
        // rest of the paper design point untouched.
        let adc = AdcModel {
            bits: 6,
            ..AdcModel::default()
        };
        let c = PcnnaConfig::default()
            .with_adcs(64)
            .with_adc(adc)
            .with_weight_load_charged(true);
        assert_eq!(c.n_adcs, 64);
        assert_eq!(c.adc.bits, 6);
        assert!(c.include_weight_load);
        // untouched fields keep the paper design point
        assert_eq!(c.n_input_dacs, 10);
        assert_eq!(c.fast_clock.frequency_hz(), 5e9);
        assert!(c.validate().is_ok());
        let c = PcnnaConfig::default().with_link(LinkConfig::default());
        assert_eq!(c, PcnnaConfig::default());
    }
}
