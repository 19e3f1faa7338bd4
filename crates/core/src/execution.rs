//! Whole-network sequential execution (paper §IV: "convolution layers are
//! processed sequentially. Convolution result values of each layer are
//! stored back to the off-chip DRAM").
//!
//! The analytical and simulation models price single layers; this module
//! chains them the way the paper's single physical layer would actually
//! run a network: per layer, (optionally) load kernel weights, execute,
//! write the output feature map back to DRAM, and reload it as the next
//! layer's input. Produces end-to-end latency and frames/second — the
//! figure of merit Eyeriss and YodaNN publish.

use crate::analytical::AnalyticalModel;
use crate::config::PcnnaConfig;
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// One layer's slice of a network execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPhase {
    /// Layer name.
    pub name: String,
    /// Kernel-weight load into the MRR banks (charged per the config).
    pub weight_load: SimTime,
    /// Compute (full-system analytical time).
    pub compute: SimTime,
    /// Output feature map writeback to DRAM.
    pub writeback: SimTime,
    /// The phase's total contribution to network latency.
    pub total: SimTime,
}

/// A whole-network execution estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkExecution {
    /// Per-layer phases, in execution order.
    pub phases: Vec<ExecutionPhase>,
    /// End-to-end latency for one input frame.
    pub latency: SimTime,
}

impl NetworkExecution {
    /// Frames per second at this latency (single-frame, no batching).
    #[must_use]
    pub fn frames_per_second(&self) -> f64 {
        let secs = self.latency.as_secs_f64();
        if secs > 0.0 {
            1.0 / secs
        } else {
            0.0
        }
    }
}

/// Sequential network execution model.
#[derive(Debug, Clone)]
pub struct ExecutionModel {
    config: PcnnaConfig,
    analytical: AnalyticalModel,
}

impl ExecutionModel {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid configs.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        Ok(ExecutionModel {
            config,
            analytical: AnalyticalModel::new(config)?,
        })
    }

    /// Executes a list of conv layers sequentially.
    ///
    /// Weight loading is charged when `config.include_weight_load` is set
    /// (the paper amortises it; charging it is the honest whole-network
    /// accounting since every layer reprograms the single physical bank).
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn run(&self, layers: &[(&str, ConvGeometry)]) -> Result<NetworkExecution> {
        let mut phases = Vec::with_capacity(layers.len());
        let mut latency = SimTime::ZERO;
        for (name, g) in layers {
            let (weight_load, compute, writeback) = self.layer_phase(name, g)?;
            let weight_load = if self.config.include_weight_load {
                weight_load
            } else {
                SimTime::ZERO
            };
            let total = weight_load + compute + writeback;
            latency += total;
            phases.push(ExecutionPhase {
                name: (*name).to_owned(),
                weight_load,
                compute,
                writeback,
                total,
            });
        }
        Ok(NetworkExecution { phases, latency })
    }

    /// One layer's phase costs, `(weight_load, compute, writeback)`: the
    /// weight programming time, the full-system compute time without it,
    /// and the output feature map's streamed writeback to DRAM.
    fn layer_phase(&self, name: &str, g: &ConvGeometry) -> Result<(SimTime, SimTime, SimTime)> {
        let timing = self.analytical.layer_timing(name, g)?;
        let compute = if self.config.include_weight_load {
            // layer_timing already folds the weight load into
            // full_system_time when configured; take it out so callers
            // charge it separately without a double count.
            timing
                .full_system_time
                .saturating_sub(timing.weight_load_time)
        } else {
            timing.full_system_time
        };
        let writeback = self
            .config
            .dram
            .streaming_time(g.n_output() * self.config.bytes_per_value);
        Ok((timing.weight_load_time, compute, writeback))
    }
}

/// A batched execution estimate: `batch` frames processed layer-by-layer so
/// each layer's weights are programmed once per batch, not once per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedExecution {
    /// Frames in the batch.
    pub batch: u64,
    /// Total time for the whole batch.
    pub total: SimTime,
    /// Latency of the first frame (weights + one frame through every layer).
    pub first_frame_latency: SimTime,
}

impl BatchedExecution {
    /// Steady-state throughput, frames/second.
    #[must_use]
    pub fn frames_per_second(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs > 0.0 {
            self.batch as f64 / secs
        } else {
            0.0
        }
    }
}

impl ExecutionModel {
    /// Executes `batch` frames with layer-major ordering: for each layer,
    /// program weights once, then stream all `batch` frames' locations
    /// through it. This is the natural amortization the paper implies when
    /// it notes that "over the execution of one layer of a CNN the kernel
    /// weights do not change".
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn run_batched(
        &self,
        layers: &[(&str, ConvGeometry)],
        batch: u64,
    ) -> Result<BatchedExecution> {
        let mut total = SimTime::ZERO;
        let mut first_frame = SimTime::ZERO;
        for (name, g) in layers {
            // Weight programming always happens once per layer per batch in
            // this mode (regardless of include_weight_load, which governs
            // the per-frame accounting of `run`).
            let (weight_load, compute, writeback) = self.layer_phase(name, g)?;
            let per_frame = compute + writeback;
            total += weight_load + per_frame.saturating_mul(batch);
            first_frame += weight_load + per_frame;
        }
        Ok(BatchedExecution {
            batch,
            total,
            first_frame_latency: first_frame,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    #[test]
    fn alexnet_latency_is_sum_of_phases() {
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let run = m.run(&zoo::alexnet_conv_layers()).unwrap();
        let sum: SimTime = run.phases.iter().map(|p| p.total).sum();
        assert_eq!(sum, run.latency);
        assert_eq!(run.phases.len(), 5);
    }

    #[test]
    fn alexnet_conv_fps_is_high_without_weight_load() {
        // ~22 µs of compute plus ~100 µs of output writebacks → thousands
        // of frames/s for the conv stack alone. (Writeback, not the DAC,
        // dominates network-level latency at 12.8 GB/s — a reproduction
        // finding; see EXPERIMENTS.md "Writeback dominates latency".)
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let run = m.run(&zoo::alexnet_conv_layers()).unwrap();
        let fps = run.frames_per_second();
        assert!(fps > 5e3, "fps {fps}");
        let writeback: SimTime = run.phases.iter().map(|p| p.writeback).sum();
        assert!(
            writeback.ratio(run.latency) > 0.5,
            "writeback should dominate"
        );
    }

    #[test]
    fn charging_weight_load_collapses_throughput() {
        // The reproduction finding: reprogramming ~3.1 M ring set points per
        // frame through one 6 GSa/s DAC costs ~0.5 ms — it, not the DAC
        // input path, dominates whole-network latency.
        let cfg = PcnnaConfig {
            include_weight_load: true,
            ..PcnnaConfig::default()
        };
        let with = ExecutionModel::new(cfg)
            .unwrap()
            .run(&zoo::alexnet_conv_layers())
            .unwrap();
        let without = ExecutionModel::new(PcnnaConfig::default())
            .unwrap()
            .run(&zoo::alexnet_conv_layers())
            .unwrap();
        assert!(with.latency.as_us_f64() > 3.0 * without.latency.as_us_f64());
        // weight load phases dominate the frame latency
        let wl: SimTime = with.phases.iter().map(|p| p.weight_load).sum();
        assert!(
            wl.ratio(with.latency) > 0.7,
            "weight-load share {}",
            wl.ratio(with.latency)
        );
    }

    #[test]
    fn writeback_is_priced() {
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let run = m.run(&zoo::alexnet_conv_layers()).unwrap();
        for p in &run.phases {
            assert!(p.writeback > SimTime::ZERO, "{}", p.name);
        }
    }

    #[test]
    fn batching_amortizes_weight_load() {
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let layers = zoo::alexnet_conv_layers();
        let b1 = m.run_batched(&layers, 1).unwrap();
        let b64 = m.run_batched(&layers, 64).unwrap();
        let b1024 = m.run_batched(&layers, 1024).unwrap();
        // throughput improves with batch and saturates
        assert!(b64.frames_per_second() > 5.0 * b1.frames_per_second());
        assert!(b1024.frames_per_second() > b64.frames_per_second());
        // saturation: 1024 vs 64 gains less than 64 vs 1
        let gain_small = b64.frames_per_second() / b1.frames_per_second();
        let gain_large = b1024.frames_per_second() / b64.frames_per_second();
        assert!(gain_large < gain_small);
    }

    #[test]
    fn batched_first_frame_latency_includes_weights() {
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let layers = zoo::alexnet_conv_layers();
        let b = m.run_batched(&layers, 8).unwrap();
        let per_frame = m.run(&layers).unwrap().latency;
        assert!(b.first_frame_latency > per_frame);
        assert!(b.total >= b.first_frame_latency);
    }

    #[test]
    fn empty_network_has_zero_latency() {
        let m = ExecutionModel::new(PcnnaConfig::default()).unwrap();
        let run = m.run(&[]).unwrap();
        assert_eq!(run.latency, SimTime::ZERO);
        assert_eq!(run.frames_per_second(), 0.0);
    }
}
