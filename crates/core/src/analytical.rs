//! The paper's analytical execution-time framework (§V-B, eq. (6)–(8)).
//!
//! Two models:
//!
//! * **Optical core, PCNNA(O)** — eq. (7): one kernel location per fast
//!   clock cycle, `Tconv = Nlocs / fclock`, independent of `K`.
//! * **Full system, PCNNA(O+E)** — the electronic I/O constraint. The paper
//!   declares the input DAC the bottleneck: per location, `nc·m·s / NDAC`
//!   sequential conversions at 6 GSa/s (eq. (8)). This module reproduces
//!   that model verbatim ([`BottleneckModel::DacOnly`]) and extends it with
//!   a max-of-pipelined-stages model ([`BottleneckModel::MaxOfStages`]) that
//!   also prices the SRAM access, the optical pass(es), the ADC batch, and
//!   the DRAM stream — exposing where the paper's assumption holds and
//!   where it does not (see EXPERIMENTS.md "Max-of-stages bottleneck model").

use crate::config::{BottleneckModel, PcnnaConfig};
use crate::mapping::{AreaModel, RingAllocation};
use crate::{CoreError, Result};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::adc::AdcArray;
use pcnna_electronics::dac::DacArray;
use pcnna_electronics::time::SimTime;

/// Per-layer timing breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Number of kernel locations (`Nlocs`, eq. (6)).
    pub locations: u64,
    /// Optical passes per location (1, or `nc` when channel-sequential).
    pub passes_per_location: u64,
    /// PCNNA(O): optical-core execution time (eq. (7)).
    pub optical_time: SimTime,
    /// Steady-state input-DAC time per location (eq. (8) applied).
    pub dac_time_per_location: SimTime,
    /// Input updates per location assumed by the paper (`nc·m·s`).
    pub updates_per_location: u64,
    /// Pipelined SRAM access time per location.
    pub sram_time_per_location: SimTime,
    /// ADC digitization time per location (K results over the ADC array).
    pub adc_time_per_location: SimTime,
    /// DRAM streaming time per location for the update set (worst case, no
    /// cross-row reuse).
    pub dram_time_per_location: SimTime,
    /// PCNNA(O+E): full-system execution time under the configured
    /// bottleneck model.
    pub full_system_time: SimTime,
    /// Which stage bound the full-system time.
    pub bottleneck_stage: String,
    /// One-time per-layer kernel-weight load through the weight DAC(s)
    /// (reported separately; charged only if the config says so).
    pub weight_load_time: SimTime,
    /// Ring allocation used.
    pub rings: u64,
    /// Ring area, mm².
    pub ring_area_mm2: f64,
}

impl LayerTiming {
    /// Full-system speedup of the optical core over the full system — how
    /// much the electronics cost.
    #[must_use]
    pub fn io_slowdown(&self) -> f64 {
        self.full_system_time
            .ratio(self.optical_time.max(SimTime::from_ps(1)))
    }
}

/// The analytical model, parameterised by a [`PcnnaConfig`].
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    config: PcnnaConfig,
    input_dacs: DacArray,
    weight_dacs: DacArray,
    adcs: AdcArray,
}

impl AnalyticalModel {
    /// Builds the model (validates the config).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configurations.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        config.validate()?;
        let input_dacs = DacArray::new(config.input_dac, config.n_input_dacs)?;
        let weight_dacs = DacArray::new(config.input_dac, config.n_weight_dacs)?;
        let adcs = AdcArray::new(config.adc, config.n_adcs)?;
        Ok(AnalyticalModel {
            config,
            input_dacs,
            weight_dacs,
            adcs,
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PcnnaConfig {
        &self.config
    }

    /// PCNNA(O): eq. (7), scaled by the allocation policy's optical passes.
    #[must_use]
    pub fn optical_time(&self, g: &ConvGeometry) -> SimTime {
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        self.config
            .fast_clock
            .cycles(g.n_locations() * alloc.passes_per_location)
    }

    /// Steady-state per-location input-DAC time: eq. (8)'s conversion count
    /// over the input DAC array.
    #[must_use]
    pub fn dac_time_per_location(&self, g: &ConvGeometry) -> SimTime {
        self.input_dacs
            .convert_time(g.updated_inputs_per_location())
    }

    /// Per-location ADC time: `K` results over the ADC array.
    #[must_use]
    pub fn adc_time_per_location(&self, g: &ConvGeometry) -> SimTime {
        self.adcs.convert_time(g.kernels() as u64)
    }

    /// Per-location pipelined SRAM access time (one wide banked access).
    #[must_use]
    pub fn sram_time_per_location(&self) -> SimTime {
        self.config.sram.access_time
    }

    /// Per-location DRAM streaming time for the update set (worst case).
    #[must_use]
    pub fn dram_time_per_location(&self, g: &ConvGeometry) -> SimTime {
        self.config
            .dram
            .streaming_time(g.updated_inputs_per_location() * self.config.bytes_per_value)
    }

    /// One-time kernel-weight load for the layer: `K·Nkernel` (or `K·m·m`
    /// for channel-sequential) values through the weight DAC array.
    #[must_use]
    pub fn weight_load_time(&self, g: &ConvGeometry) -> SimTime {
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        self.weight_dacs.convert_time(alloc.rings)
    }

    /// Full-system per-location time and the name of the binding stage.
    #[must_use]
    pub fn full_system_per_location(&self, g: &ConvGeometry) -> (SimTime, &'static str) {
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        let optical = self.config.fast_clock.cycles(alloc.passes_per_location);
        let dac = self.dac_time_per_location(g);
        match self.config.bottleneck {
            BottleneckModel::DacOnly => (dac.max(optical), "dac"),
            BottleneckModel::MaxOfStages => {
                let stages = [
                    ("dac", dac),
                    ("sram", self.sram_time_per_location()),
                    ("optical", optical),
                    ("adc", self.adc_time_per_location(g)),
                    ("dram", self.dram_time_per_location(g)),
                ];
                #[allow(clippy::expect_used)] // `stages` is a five-element array
                let (name, time) = stages
                    .into_iter()
                    .max_by_key(|&(_, t)| t)
                    .expect("stages is non-empty");
                (time, name)
            }
        }
    }

    /// Full-system execution time of one layer — the lean path for search
    /// hot loops (the design-space explorer evaluates thousands of
    /// candidates per second): the same SRAM feasibility check and timing
    /// arithmetic as [`layer_timing`](Self::layer_timing), with no name
    /// interning, no per-stage breakdown, and no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResourceExceeded`] if the layer's working set
    /// exceeds the input SRAM.
    pub fn layer_full_system_time(&self, g: &ConvGeometry) -> Result<SimTime> {
        self.full_system_with_stage(g).map(|(full, _)| full)
    }

    /// The shared SRAM-check + timing arithmetic behind both the lean and
    /// the reporting per-layer paths.
    fn full_system_with_stage(&self, g: &ConvGeometry) -> Result<(SimTime, &'static str)> {
        let working_set = g.n_kernel();
        let capacity = self.config.sram.capacity_words();
        if working_set > capacity {
            return Err(CoreError::ResourceExceeded {
                resource: "input SRAM (words)",
                requested: working_set,
                available: capacity,
            });
        }
        let (per_loc, stage) = self.full_system_per_location(g);
        let mut full = per_loc.saturating_mul(g.n_locations());
        if self.config.include_weight_load {
            full += self.weight_load_time(g);
        }
        Ok((full, stage))
    }

    /// Full analysis of one layer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResourceExceeded`] if the layer's working set
    /// exceeds the input SRAM (the paper sizes the cache to hold a full
    /// receptive field).
    pub fn layer_timing(&self, name: &str, g: &ConvGeometry) -> Result<LayerTiming> {
        let (full, stage) = self.full_system_with_stage(g)?;
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        let weight_load = self.weight_load_time(g);
        let area = AreaModel {
            ring_pitch_m: self.config.ring_pitch_m,
        };
        Ok(LayerTiming {
            name: name.to_owned(),
            locations: g.n_locations(),
            passes_per_location: alloc.passes_per_location,
            optical_time: self.optical_time(g),
            dac_time_per_location: self.dac_time_per_location(g),
            updates_per_location: g.updated_inputs_per_location(),
            sram_time_per_location: self.sram_time_per_location(),
            adc_time_per_location: self.adc_time_per_location(g),
            dram_time_per_location: self.dram_time_per_location(g),
            full_system_time: full,
            bottleneck_stage: stage.to_owned(),
            weight_load_time: weight_load,
            rings: alloc.rings,
            ring_area_mm2: area.rings_area_mm2(alloc.rings),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
    use pcnna_cnn::zoo;

    fn model() -> AnalyticalModel {
        AnalyticalModel::new(PcnnaConfig::default()).unwrap()
    }

    #[test]
    fn equation_7_conv1_optical_time() {
        // conv1: 3025 locations at 5 GHz = 605 ns
        let m = model();
        let g = zoo::alexnet_conv_layers()[0].1;
        assert_eq!(m.optical_time(&g), SimTime::from_ps(3025 * 200));
    }

    #[test]
    fn optical_time_independent_of_kernels() {
        // §V-B: "Tconv in equation 7 is independent of the number of
        // kernels."
        let m = model();
        let g = zoo::alexnet_conv_layers()[2].1;
        let g2 = g.with_kernels(2 * g.kernels()).unwrap();
        assert_eq!(m.optical_time(&g), m.optical_time(&g2));
    }

    #[test]
    fn equation_8_conv4_dac_time() {
        // conv4: ceil(1152/10) = 116 conversions at 6 GSa/s ≈ 19.33 ns
        let m = model();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = m.dac_time_per_location(&g);
        assert!((t.as_ns_f64() - 116.0 / 6.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn full_system_dac_only_conv4() {
        // 169 locations × 19.33 ns ≈ 3.27 µs
        let m = model();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = m.layer_timing("conv4", &g).unwrap();
        assert!((t.full_system_time.as_us_f64() - 3.268).abs() < 0.01);
        assert_eq!(t.bottleneck_stage, "dac");
    }

    #[test]
    fn full_system_at_least_optical() {
        let m = model();
        for (name, g) in zoo::alexnet_conv_layers() {
            let t = m.layer_timing(name, &g).unwrap();
            assert!(
                t.full_system_time >= t.optical_time,
                "{name}: O+E {} < O {}",
                t.full_system_time,
                t.optical_time
            );
        }
    }

    #[test]
    fn io_slowdown_is_orders_of_magnitude() {
        // The gap between PCNNA(O) and PCNNA(O+E) in Figure 6 is ~2 orders.
        let m = model();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = m.layer_timing("conv4", &g).unwrap();
        let slowdown = t.io_slowdown();
        assert!((50.0..1000.0).contains(&slowdown), "io slowdown {slowdown}");
    }

    #[test]
    fn max_of_stages_never_faster_than_dac_only() {
        let dac_only = model();
        let fuller = AnalyticalModel::new(
            PcnnaConfig::default().with_bottleneck(BottleneckModel::MaxOfStages),
        )
        .unwrap();
        for (name, g) in zoo::alexnet_conv_layers() {
            let a = dac_only.layer_timing(name, &g).unwrap();
            let b = fuller.layer_timing(name, &g).unwrap();
            assert!(b.full_system_time >= a.full_system_time, "{name}");
        }
    }

    #[test]
    fn dram_binds_conv4_under_max_of_stages() {
        // The reproduction finding: at 12.8 GB/s, streaming 1152 new
        // 16-bit values per location takes 180 ns — 9× the paper's DAC
        // bottleneck. See EXPERIMENTS.md "Max-of-stages bottleneck model".
        let fuller = AnalyticalModel::new(
            PcnnaConfig::default().with_bottleneck(BottleneckModel::MaxOfStages),
        )
        .unwrap();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = fuller.layer_timing("conv4", &g).unwrap();
        assert_eq!(t.bottleneck_stage, "dram");
    }

    #[test]
    fn weight_load_is_significant_but_uncharged_by_default() {
        let m = model();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = m.layer_timing("conv4", &g).unwrap();
        // 1.3M rings through one 6 GSa/s DAC ≈ 221 µs >> 3.27 µs compute.
        assert!(t.weight_load_time > t.full_system_time);
        // Charged when requested:
        let cfg = PcnnaConfig {
            include_weight_load: true,
            ..PcnnaConfig::default()
        };
        let m2 = AnalyticalModel::new(cfg).unwrap();
        let t2 = m2.layer_timing("conv4", &g).unwrap();
        assert!(t2.full_system_time > t.full_system_time);
    }

    #[test]
    fn channel_sequential_multiplies_optical_passes() {
        let cfg =
            PcnnaConfig::default().with_allocation(AllocationPolicy::FilteredChannelSequential);
        let m = AnalyticalModel::new(cfg).unwrap();
        let g = zoo::alexnet_conv_layers()[3].1;
        let t = m.layer_timing("conv4", &g).unwrap();
        assert_eq!(t.passes_per_location, 384);
        assert_eq!(t.optical_time, SimTime::from_ps(169 * 384 * 200));
    }

    #[test]
    fn oversized_layer_rejected_by_sram_check() {
        // Nkernel beyond 8192 words cannot be cached.
        let m = model();
        let g = ConvGeometry::new(32, 5, 0, 1, 512, 4).unwrap(); // 12800 words
        assert!(matches!(
            m.layer_timing("big", &g),
            Err(CoreError::ResourceExceeded { .. })
        ));
    }

    #[test]
    fn all_alexnet_layers_fit_the_sram() {
        // The paper's cache sizing story: every AlexNet receptive field
        // fits in 8192 words (max is conv4/conv5's 3456).
        let m = model();
        for (name, g) in zoo::alexnet_conv_layers() {
            assert!(m.layer_timing(name, &g).is_ok());
        }
    }
}
