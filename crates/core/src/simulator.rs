//! Cycle-approximate pipeline simulation of Figure 4.
//!
//! Where [`crate::analytical`] multiplies closed-form per-location costs,
//! this simulator actually walks the schedule location by location through
//! the three pipeline stages of the architecture —
//!
//! ```text
//! front end : DRAM → input buffer → SRAM cache → input DACs → MZMs
//! optical   : MRR weight banks → balanced photodiodes   (1 fast cycle/pass)
//! back end  : ADC array → output buffer → DRAM
//! ```
//!
//! — with double buffering between stages (location *i+1*'s inputs convert
//! while location *i* flies through the rings and location *i−1* digitizes).
//! It uses the *exact* per-location update sets from the scheduler (not the
//! paper's steady-state estimate), a real cache simulation for the SRAM, and
//! charges DRAM misses, so it reports everything the analytical model
//! cannot: cache hit rates, true DRAM traffic, stage occupancy, and energy.

use crate::analytical::AnalyticalModel;
use crate::config::PcnnaConfig;
use crate::mapping::RingAllocation;
use crate::scheduler::LocationSchedule;
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::adc::AdcArray;
use pcnna_electronics::dac::DacArray;
use pcnna_electronics::dram::DramTraffic;
use pcnna_electronics::energy::EnergyLedger;
use pcnna_electronics::sram::{CacheSim, CacheStats};
use pcnna_electronics::time::SimTime;

/// Busy time per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBusy {
    /// Front end: cache + DAC conversion (+ DRAM miss service).
    pub front_end: SimTime,
    /// Optical core.
    pub optical: SimTime,
    /// Back end: ADC + writeback.
    pub back_end: SimTime,
}

/// Result of simulating one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Layer name.
    pub name: String,
    /// Locations processed.
    pub locations: u64,
    /// Total simulated execution time (last writeback completes).
    pub total_time: SimTime,
    /// Busy time per stage.
    pub busy: StageBusy,
    /// Input-cache statistics.
    pub cache: CacheStats,
    /// DRAM traffic, bytes.
    pub traffic: DramTraffic,
    /// Energy ledger.
    pub energy: EnergyLedger,
    /// One-time weight-load time (charged into `total_time` only when the
    /// config's `include_weight_load` is set).
    pub weight_load_time: SimTime,
    /// Exact total input loads (from the schedule).
    pub total_input_loads: u64,
}

impl SimResult {
    /// Utilisation of the optical core: optical busy time / total time.
    #[must_use]
    pub fn optical_utilization(&self) -> f64 {
        if self.total_time == SimTime::ZERO {
            0.0
        } else {
            self.busy.optical.ratio(self.total_time)
        }
    }
}

/// The pipeline simulator.
#[derive(Debug, Clone)]
pub struct PipelineSimulator {
    config: PcnnaConfig,
    input_dacs: DacArray,
    weight_dacs: DacArray,
    adcs: AdcArray,
}

impl PipelineSimulator {
    /// Builds a simulator (validates the config).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid
    /// configurations.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        config.validate()?;
        Ok(PipelineSimulator {
            config,
            input_dacs: DacArray::new(config.input_dac, config.n_input_dacs)?,
            weight_dacs: DacArray::new(config.input_dac, config.n_weight_dacs)?,
            adcs: AdcArray::new(config.adc, config.n_adcs)?,
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PcnnaConfig {
        &self.config
    }

    /// Simulates one conv layer.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::ResourceExceeded`] if the receptive field
    /// exceeds the SRAM (same check as the analytical model).
    pub fn simulate_layer(&self, name: &str, g: &ConvGeometry) -> Result<SimResult> {
        // Reuse the analytical model's resource validation.
        AnalyticalModel::new(self.config)?.layer_timing(name, g)?;

        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        let schedule = LocationSchedule::new(*g, self.config.scan);
        let mut cache = CacheSim::for_model(&self.config.sram)?;
        let bytes_per_value = self.config.bytes_per_value;
        let k = g.kernels() as u64;

        let optical_pass = self.config.fast_clock.cycles(alloc.passes_per_location);
        let adc_batch = self.adcs.convert_time(k);
        let writeback = self.config.dram.streaming_time(k * bytes_per_value);
        let back_duration = adc_batch.max(writeback);

        // Weight load: every ring's set point converted once by the weight
        // DAC array at layer start.
        let weight_load = self.weight_dacs.convert_time(alloc.rings);

        let mut front_free = if self.config.include_weight_load {
            weight_load
        } else {
            SimTime::ZERO
        };
        let mut optical_free = SimTime::ZERO;
        let mut back_free = SimTime::ZERO;
        let mut busy = StageBusy::default();
        let mut traffic = DramTraffic::default();
        let mut energy = EnergyLedger::default();
        let mut total_input_loads = 0u64;

        // Newly required values relative to the previous window, as the
        // schedule defines them.
        let new_counts = schedule.update_counts();
        for (&loc, new_count) in schedule.locations().iter().zip(new_counts) {
            let required = schedule.required_inputs(loc);
            total_input_loads += new_count;

            // Serve the new values: cache hits are free refills (the value
            // is still resident from an earlier window), misses stream from
            // DRAM.
            let misses = cache.access_all(&required);
            let miss_bytes = misses * bytes_per_value;
            traffic.input_reads += miss_bytes;
            energy.dram_j += self.config.dram.transfer_energy_j(miss_bytes);
            energy.sram_j += self.config.sram.power_w(1e6) * 1e-6 * new_count as f64;

            // Front end: one pipelined SRAM access window + DAC conversion
            // of the new values, plus DRAM streaming for misses.
            let dac_time = self.input_dacs.convert_time(new_count);
            energy.dac_j += self.input_dacs.convert_energy_j(new_count);
            let dram_time = self.config.dram.streaming_time(miss_bytes);
            let front_duration = self.config.sram.access_time.max(dac_time).max(dram_time);
            let front_done = front_free + front_duration;
            busy.front_end += front_duration;
            front_free = front_done;

            // Optical stage starts when its input is ready and the core is
            // free.
            let optical_start = front_done.max(optical_free);
            let optical_done = optical_start + optical_pass;
            busy.optical += optical_pass;
            optical_free = optical_done;

            // Back end digitizes and writes K results.
            let back_start = optical_done.max(back_free);
            let back_done = back_start + back_duration;
            busy.back_end += back_duration;
            back_free = back_done;
            energy.adc_j += self.adcs.convert_energy_j(k);
            traffic.output_writes += k * bytes_per_value;
            energy.dram_j += self.config.dram.transfer_energy_j(k * bytes_per_value);
        }

        // Weight traffic: rings' set points read from DRAM once.
        traffic.weight_reads += alloc.rings * bytes_per_value;
        energy.dram_j += self
            .config
            .dram
            .transfer_energy_j(alloc.rings * bytes_per_value);
        energy.dac_j += self.weight_dacs.convert_energy_j(alloc.rings);

        Ok(SimResult {
            name: name.to_owned(),
            locations: g.n_locations(),
            total_time: back_free,
            busy,
            cache: cache.stats(),
            traffic,
            energy,
            weight_load_time: weight_load,
            total_input_loads,
        })
    }

    /// Simulates a list of named layers.
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer failure.
    pub fn simulate_network(&self, layers: &[(&str, ConvGeometry)]) -> Result<Vec<SimResult>> {
        layers
            .iter()
            .map(|(name, g)| self.simulate_layer(name, g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BottleneckModel, ScanOrder};

    fn small_geometry() -> ConvGeometry {
        ConvGeometry::new(12, 3, 1, 1, 4, 8).unwrap()
    }

    fn sim() -> PipelineSimulator {
        PipelineSimulator::new(PcnnaConfig::default()).unwrap()
    }

    #[test]
    fn simulation_produces_sane_totals() {
        let r = sim().simulate_layer("t", &small_geometry()).unwrap();
        assert_eq!(r.locations, 144);
        assert!(r.total_time > SimTime::ZERO);
        assert!(r.busy.front_end > SimTime::ZERO);
        assert!(r.busy.optical > SimTime::ZERO);
        assert!(r.busy.back_end > SimTime::ZERO);
    }

    #[test]
    fn simulated_time_bounds_analytical_dac_only() {
        // The simulator includes SRAM/DRAM/ADC effects the paper's DacOnly
        // model ignores, so it can only be slower than Nlocs × t_dac,
        // and it must stay within the MaxOfStages envelope plus fill/drain.
        let g = small_geometry();
        let r = sim().simulate_layer("t", &g).unwrap();
        let dac_only = AnalyticalModel::new(PcnnaConfig::default()).unwrap();
        let a = dac_only.layer_timing("t", &g).unwrap();
        assert!(
            r.total_time >= a.full_system_time,
            "sim {} < analytical {}",
            r.total_time,
            a.full_system_time
        );
        let fuller = AnalyticalModel::new(
            PcnnaConfig::default().with_bottleneck(BottleneckModel::MaxOfStages),
        )
        .unwrap();
        let b = fuller.layer_timing("t", &g).unwrap();
        // Envelope: per-location max-stage times plus 3 fill/drain stages.
        let envelope = b.full_system_time
            + b.sram_time_per_location.saturating_mul(8)
            + b.adc_time_per_location.saturating_mul(8);
        assert!(
            r.total_time <= envelope,
            "sim {} > envelope {}",
            r.total_time,
            envelope
        );
    }

    #[test]
    fn cache_captures_sliding_window_reuse() {
        let r = sim().simulate_layer("t", &small_geometry()).unwrap();
        // Stride-1 3×3 windows overlap heavily: hit rate well above half.
        assert!(r.cache.hit_rate() > 0.5, "hit rate {}", r.cache.hit_rate());
    }

    #[test]
    fn serpentine_loads_fewer_inputs_than_raster() {
        let g = small_geometry();
        let raster = sim().simulate_layer("t", &g).unwrap();
        let serp = PipelineSimulator::new(PcnnaConfig::default().with_scan(ScanOrder::Serpentine))
            .unwrap()
            .simulate_layer("t", &g)
            .unwrap();
        assert!(serp.total_input_loads < raster.total_input_loads);
        assert!(serp.total_time <= raster.total_time);
    }

    /// The simulator's input loads are the schedule's: "newly loaded" has
    /// one definition, `LocationSchedule::update_counts`.
    #[test]
    fn input_loads_match_the_schedule_on_alexnet() {
        for scan in [ScanOrder::RowMajor, ScanOrder::Serpentine] {
            let sim = PipelineSimulator::new(PcnnaConfig::default().with_scan(scan)).unwrap();
            for (name, g) in pcnna_cnn::zoo::alexnet_conv_layers() {
                let r = sim.simulate_layer(name, &g).unwrap();
                let stats = LocationSchedule::new(g, scan).stats();
                assert_eq!(r.total_input_loads, stats.total_loads, "{name} {scan:?}");
            }
        }
    }

    #[test]
    fn traffic_accounts_inputs_weights_outputs() {
        let g = small_geometry();
        let r = sim().simulate_layer("t", &g).unwrap();
        assert!(r.traffic.input_reads > 0);
        // weights: K·Nkernel rings × 2 bytes
        assert_eq!(r.traffic.weight_reads, 8 * 36 * 2);
        // outputs: Nlocs × K × 2 bytes
        assert_eq!(r.traffic.output_writes, 144 * 8 * 2);
    }

    #[test]
    fn energy_ledger_is_populated() {
        let r = sim().simulate_layer("t", &small_geometry()).unwrap();
        assert!(r.energy.dac_j > 0.0);
        assert!(r.energy.adc_j > 0.0);
        assert!(r.energy.dram_j > 0.0);
        assert!(r.energy.total_j() > 0.0);
    }

    #[test]
    fn weight_load_charged_when_configured() {
        let g = small_geometry();
        let without = sim().simulate_layer("t", &g).unwrap();
        let cfg = PcnnaConfig {
            include_weight_load: true,
            ..PcnnaConfig::default()
        };
        let with = PipelineSimulator::new(cfg)
            .unwrap()
            .simulate_layer("t", &g)
            .unwrap();
        assert!(with.total_time >= without.total_time + with.weight_load_time);
    }

    #[test]
    fn optical_utilization_is_low_when_dac_bound() {
        // The optical core idles most of the time — the paper's point about
        // electronic I/O limits.
        let r = sim().simulate_layer("t", &small_geometry()).unwrap();
        let u = r.optical_utilization();
        assert!(u > 0.0 && u < 0.2, "utilization {u}");
    }

    #[test]
    fn network_simulation_covers_all_layers() {
        let layers = [
            ("a", ConvGeometry::new(8, 3, 1, 1, 2, 4).unwrap()),
            ("b", ConvGeometry::new(8, 3, 1, 2, 4, 8).unwrap()),
        ];
        let rs = sim().simulate_network(&layers).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].name, "a");
    }

    #[test]
    fn oversized_layer_rejected() {
        let g = ConvGeometry::new(32, 5, 0, 1, 512, 4).unwrap();
        assert!(sim().simulate_layer("big", &g).is_err());
    }
}
