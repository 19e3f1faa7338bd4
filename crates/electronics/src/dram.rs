//! Off-chip DRAM model.
//!
//! PCNNA stores input feature maps, kernel weights and convolution results
//! in off-chip DRAM (paper §IV, Figure 4). The paper never pins a specific
//! part, so this is a classic first-order bandwidth + fixed-latency model
//! with traffic accounting — sufficient for the pipeline simulator to decide
//! whether DRAM, rather than the DAC, ever becomes the bottleneck.

use crate::time::SimTime;
use crate::{ElectronicError, Result};

/// Bandwidth/latency model of the off-chip memory channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed access latency per burst.
    pub latency: SimTime,
    /// Energy per byte transferred, joules (typ. ~20 pJ/byte for DDR4).
    pub energy_per_byte_j: f64,
}

impl Default for DramModel {
    /// A single-channel DDR4-like interface: 12.8 GB/s, 60 ns latency,
    /// 20 pJ/byte.
    fn default() -> Self {
        DramModel {
            bandwidth_bytes_per_s: 12.8e9,
            latency: SimTime::from_ns(60),
            energy_per_byte_j: 20e-12,
        }
    }
}

impl DramModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] on non-positive
    /// bandwidth.
    pub fn validate(&self) -> Result<()> {
        if !(self.bandwidth_bytes_per_s > 0.0) {
            return Err(ElectronicError::InvalidParameter {
                reason: format!(
                    "DRAM bandwidth must be positive, got {}",
                    self.bandwidth_bytes_per_s
                ),
            });
        }
        Ok(())
    }

    /// Time for a *streamed* transfer of `bytes` (latency amortised away).
    #[must_use]
    pub fn streaming_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_s)
    }

    /// Energy to move `bytes`, joules.
    #[must_use]
    pub fn transfer_energy_j(&self, bytes: u64) -> f64 {
        self.energy_per_byte_j * bytes as f64
    }
}

/// Running totals of DRAM traffic, split by direction and purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramTraffic {
    /// Input-feature-map bytes read.
    pub input_reads: u64,
    /// Kernel-weight bytes read.
    pub weight_reads: u64,
    /// Output-feature-map bytes written.
    pub output_writes: u64,
}

impl DramTraffic {
    /// Total bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.input_reads + self.weight_reads + self.output_writes
    }

    /// Adds another traffic record.
    #[must_use]
    pub fn combined(&self, other: &DramTraffic) -> DramTraffic {
        DramTraffic {
            input_reads: self.input_reads + other.input_reads,
            weight_reads: self.weight_reads + other.weight_reads,
            output_writes: self.output_writes + other.output_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(DramModel {
            bandwidth_bytes_per_s: 0.0,
            ..DramModel::default()
        }
        .validate()
        .is_err());
        assert!(DramModel::default().validate().is_ok());
    }

    #[test]
    fn zero_transfer_is_free() {
        let d = DramModel::default();
        assert_eq!(d.streaming_time(0), SimTime::ZERO);
        assert_eq!(d.transfer_energy_j(0), 0.0);
    }

    #[test]
    fn streaming_hides_latency() {
        let d = DramModel::default();
        // 12.8 GB at 12.8 GB/s = 1 s
        let t = d.streaming_time(12_800_000_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_bytes() {
        let d = DramModel::default();
        assert!((d.transfer_energy_j(1_000_000) - 20e-6).abs() < 1e-15);
    }

    #[test]
    fn traffic_accounting() {
        let a = DramTraffic {
            input_reads: 100,
            weight_reads: 50,
            output_writes: 25,
        };
        assert_eq!(a.total_bytes(), 175);
        let b = a.combined(&a);
        assert_eq!(b.total_bytes(), 350);
        assert_eq!(b.weight_reads, 100);
    }

    #[test]
    fn alexnet_conv1_input_stream_time_is_microseconds() {
        // 224·224·3 16-bit words ≈ 301 kB: trivially fast vs. compute.
        let d = DramModel::default();
        let bytes = 224 * 224 * 3 * 2u64;
        let t = d.streaming_time(bytes);
        assert!(t.as_us_f64() < 30.0, "{t}");
    }
}
