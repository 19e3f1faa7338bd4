//! Cross-crate integration: the whole AlexNet flow through analysis and
//! simulation, agreement between the two timing models, and resource
//! checks on networks beyond the paper's evaluation.

use pcnna::cnn::zoo;
use pcnna::core::config::{BottleneckModel, PcnnaConfig, ScanOrder};
use pcnna::core::simulator::SimResult;
use pcnna::core::Pcnna;
use pcnna::electronics::time::SimTime;
use std::sync::OnceLock;

/// AlexNet's conv layers simulated on the default (raster-scan) config,
/// once per test binary: the simulation is deterministic, and every test
/// here that reads it reads the same result.
fn raster_alexnet() -> &'static [SimResult] {
    static SIMULATED: OnceLock<Vec<SimResult>> = OnceLock::new();
    SIMULATED.get_or_init(|| {
        Pcnna::new(PcnnaConfig::default())
            .unwrap()
            .simulate_conv_layers(&zoo::alexnet_conv_layers())
            .unwrap()
    })
}

#[test]
fn alexnet_analysis_and_simulation_agree_in_order_of_magnitude() {
    let layers = zoo::alexnet_conv_layers();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let analytical = accel.analyze_conv_layers(&layers).unwrap();
    for (a, s) in analytical.layers.iter().zip(raster_alexnet()) {
        let ratio = s.total_time.ratio(a.full_system_time);
        // The simulator sees exact update sets, SRAM windows, DRAM misses
        // and row-wrap penalties; it must be ≥ the paper's model but within
        // ~20× of it (the paper's own model ignores DRAM).
        assert!(
            (1.0..20.0).contains(&ratio),
            "{}: sim {} vs analytical {} (ratio {ratio})",
            a.name,
            s.total_time,
            a.full_system_time
        );
    }
}

#[test]
fn simulated_alexnet_totals_are_stable() {
    // Regression pin: exact simulation totals only change when the model
    // changes (everything is deterministic).
    let total: SimTime = raster_alexnet().iter().map(|r| r.total_time).sum();
    assert_eq!(total.as_ps(), 167_802_969);
    assert!(total > SimTime::ZERO);
}

#[test]
fn serpentine_never_loads_more_than_raster_on_alexnet() {
    let serp = Pcnna::new(PcnnaConfig::default().with_scan(ScanOrder::Serpentine)).unwrap();
    let s = serp
        .simulate_conv_layers(&zoo::alexnet_conv_layers())
        .unwrap();
    let mut raster_total = SimTime::ZERO;
    let mut serp_total = SimTime::ZERO;
    for (a, b) in raster_alexnet().iter().zip(&s) {
        // Serpentine strictly reduces SRAM refills on every layer…
        assert!(b.total_input_loads <= a.total_input_loads, "{}", a.name);
        // …but FIFO-eviction interactions can cost a few extra DRAM misses
        // on individual layers (measured: conv3 +1.8%), so per-layer time
        // only holds within slack; see EXPERIMENTS.md "Scan-order ablation".
        assert!(
            b.total_time.as_ps() as f64 <= a.total_time.as_ps() as f64 * 1.05,
            "{}: serpentine {} vs raster {}",
            a.name,
            b.total_time,
            a.total_time
        );
        raster_total += a.total_time;
        serp_total += b.total_time;
    }
    // Across the network serpentine wins clearly.
    assert!(serp_total < raster_total);
}

#[test]
fn lenet_and_cifar_fit_the_paper_design_point() {
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    for net in [zoo::lenet5(), zoo::cifar_small()] {
        let report = accel.analyze_network(&net).unwrap();
        assert_eq!(report.layers.len(), net.conv_layers().count());
        let sims = accel.simulate_network(&net).unwrap();
        assert_eq!(sims.len(), report.layers.len());
    }
}

#[test]
fn vgg16_deep_layers_exceed_the_paper_sram() {
    // VGG-16's conv4_2 receptive field is 3·3·512 = 4608 words — fits; but
    // nothing beyond 8192 words can run. Verify the boundary is enforced,
    // not silently mis-modelled.
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    for (name, g) in zoo::vgg16_conv_layers() {
        let result = accel.analyze_conv_layers(&[(name, g)]);
        if g.n_kernel() <= 8192 {
            assert!(result.is_ok(), "{name} should fit");
        } else {
            assert!(result.is_err(), "{name} should exceed the SRAM");
        }
    }
}

#[test]
fn max_of_stages_dominates_dac_only_everywhere() {
    let layers = zoo::alexnet_conv_layers();
    let paper = Pcnna::new(PcnnaConfig::default()).unwrap();
    let fuller =
        Pcnna::new(PcnnaConfig::default().with_bottleneck(BottleneckModel::MaxOfStages)).unwrap();
    let a = paper.analyze_conv_layers(&layers).unwrap();
    let b = fuller.analyze_conv_layers(&layers).unwrap();
    for (pa, fu) in a.layers.iter().zip(&b.layers) {
        assert!(fu.full_system_time >= pa.full_system_time, "{}", pa.name);
    }
}

#[test]
fn optical_core_utilization_is_poor_at_the_paper_design_point() {
    // The quantified version of the paper's conclusion: the optical core
    // could do ~100x more work than the electronics can feed it.
    for r in raster_alexnet() {
        let u = r.optical_utilization();
        assert!(u < 0.05, "{}: optical utilization {u}", r.name);
    }
}
