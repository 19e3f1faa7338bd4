//! The high-level PCNNA accelerator API.
//!
//! [`Pcnna`] is the façade a downstream user works with: construct it from a
//! [`PcnnaConfig`], then
//!
//! * [`Pcnna::analyze_conv_layers`] — the paper's analytical evaluation
//!   (ring counts, area, PCNNA(O) and PCNNA(O+E) times) for any layer list;
//! * [`Pcnna::simulate_conv_layers`] — the cycle-approximate pipeline
//!   simulation with cache/traffic/energy detail;
//! * [`Pcnna::run_functional`] — actual photonic inference on tensors;
//! * [`Pcnna::analyze_network`] / [`Pcnna::simulate_network`] — the same
//!   over a whole [`Network`]'s conv layers.

use crate::analytical::{AnalyticalModel, LayerTiming};
use crate::config::PcnnaConfig;
use crate::functional::{FunctionalOptions, PhotonicConvExecutor, PhotonicConvResult};
use crate::simulator::{PipelineSimulator, SimResult};
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::network::Network;
use pcnna_cnn::tensor::Tensor;
use pcnna_electronics::time::SimTime;

/// Whole-run analytical report.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-layer timings, in order.
    pub layers: Vec<NetworkLayerRow>,
}

/// One row of a [`NetworkReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLayerRow {
    /// Layer name.
    pub name: String,
    /// Geometry rendered for humans.
    pub geometry: String,
    /// `Nlocs`.
    pub locations: u64,
    /// Eq. (4) ring count.
    pub rings_unfiltered: u64,
    /// Eq. (5) ring count.
    pub rings_filtered: u64,
    /// Configured-policy ring area, mm².
    pub ring_area_mm2: f64,
    /// PCNNA(O) time.
    pub optical_time: SimTime,
    /// PCNNA(O+E) time.
    pub full_system_time: SimTime,
    /// Binding stage.
    pub bottleneck: String,
    /// Full timing detail.
    pub timing: LayerTiming,
}

impl NetworkReport {
    /// Total PCNNA(O+E) time across layers.
    #[must_use]
    pub fn total_full_system(&self) -> SimTime {
        self.layers.iter().map(|l| l.timing.full_system_time).sum()
    }
}

/// The PCNNA accelerator model.
#[derive(Debug, Clone)]
pub struct Pcnna {
    config: PcnnaConfig,
    analytical: AnalyticalModel,
}

impl Pcnna {
    /// Builds an accelerator from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid
    /// configurations.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        let analytical = AnalyticalModel::new(config)?;
        Ok(Pcnna { config, analytical })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PcnnaConfig {
        &self.config
    }

    /// The underlying analytical model.
    #[must_use]
    pub fn analytical(&self) -> &AnalyticalModel {
        &self.analytical
    }

    /// Analyses a list of named conv layers (the paper's evaluation flow).
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn analyze_conv_layers(&self, layers: &[(&str, ConvGeometry)]) -> Result<NetworkReport> {
        use crate::config::AllocationPolicy;
        use crate::mapping::RingAllocation;
        let mut rows = Vec::with_capacity(layers.len());
        for (name, g) in layers {
            let timing = self.analytical.layer_timing(name, g)?;
            let unfiltered = RingAllocation::for_layer(g, AllocationPolicy::Unfiltered);
            let filtered = RingAllocation::for_layer(g, AllocationPolicy::Filtered);
            rows.push(NetworkLayerRow {
                name: (*name).to_owned(),
                geometry: g.to_string(),
                locations: g.n_locations(),
                rings_unfiltered: unfiltered.rings,
                rings_filtered: filtered.rings,
                ring_area_mm2: timing.ring_area_mm2,
                optical_time: timing.optical_time,
                full_system_time: timing.full_system_time,
                bottleneck: timing.bottleneck_stage.clone(),
                timing,
            });
        }
        Ok(NetworkReport { layers: rows })
    }

    /// Analyses the conv layers of a [`Network`].
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn analyze_network(&self, net: &Network) -> Result<NetworkReport> {
        let layers: Vec<(&str, ConvGeometry)> = net
            .conv_layers()
            .map(|c| (c.name.as_str(), c.geometry))
            .collect();
        self.analyze_conv_layers(&layers)
    }

    /// Simulates a list of named conv layers through the pipeline model.
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn simulate_conv_layers(&self, layers: &[(&str, ConvGeometry)]) -> Result<Vec<SimResult>> {
        PipelineSimulator::new(self.config)?.simulate_network(layers)
    }

    /// Simulates the conv layers of a [`Network`].
    ///
    /// # Errors
    ///
    /// Propagates per-layer resource failures.
    pub fn simulate_network(&self, net: &Network) -> Result<Vec<SimResult>> {
        let layers: Vec<(&str, ConvGeometry)> = net
            .conv_layers()
            .map(|c| (c.name.as_str(), c.geometry))
            .collect();
        self.simulate_conv_layers(&layers)
    }

    /// Runs one conv layer functionally through the photonic device models.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn run_functional(
        &self,
        g: &ConvGeometry,
        input: &Tensor,
        kernels: &Tensor,
        opts: &FunctionalOptions,
    ) -> Result<PhotonicConvResult> {
        PhotonicConvExecutor::new(self.config)?.run_layer(g, input, kernels, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::workload::Workload;
    use pcnna_cnn::zoo;

    #[test]
    fn analyze_alexnet_matches_paper_headlines() {
        let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
        let report = accel
            .analyze_conv_layers(&zoo::alexnet_conv_layers())
            .unwrap();
        assert_eq!(report.layers.len(), 5);
        // conv1 ring headline numbers
        assert_eq!(report.layers[0].rings_unfiltered, 5_245_599_744);
        assert_eq!(report.layers[0].rings_filtered, 34_848);
        // optical total: (3025 + 729 + 3·169) locations × 200 ps
        let locs: u64 = report.layers.iter().map(|l| l.locations).sum();
        assert_eq!(locs, 3025 + 729 + 169 * 3);
        let optical: SimTime = report.layers.iter().map(|l| l.timing.optical_time).sum();
        assert_eq!(optical, SimTime::from_ps(locs * 200));
        // full-system total is microseconds: electronics dominate
        assert!(report.total_full_system() > optical);
    }

    #[test]
    fn analyze_network_extracts_conv_layers() {
        let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
        let report = accel.analyze_network(&zoo::alexnet()).unwrap();
        assert_eq!(report.layers.len(), 5);
        assert_eq!(report.layers[0].name, "conv1");
    }

    #[test]
    fn simulate_small_network() {
        let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
        let results = accel.simulate_network(&zoo::cifar_small()).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.total_time > SimTime::ZERO);
        }
    }

    #[test]
    fn functional_via_facade() {
        let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
        let g = pcnna_cnn::geometry::ConvGeometry::new(5, 3, 0, 1, 1, 2).unwrap();
        let wl = Workload::uniform(&g, 3);
        let r = accel
            .run_functional(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        assert!(r.accuracy.snr_db > 20.0);
    }

    #[test]
    fn report_rows_render_geometry() {
        let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
        let report = accel
            .analyze_conv_layers(&zoo::alexnet_conv_layers())
            .unwrap();
        assert!(report.layers[0].geometry.contains("224x224x3"));
        assert_eq!(report.layers[0].bottleneck, "dac");
    }
}
