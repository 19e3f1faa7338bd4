//! Cross-crate integration tests for the reproduction-extension models:
//! feasibility × tiling consistency, power × execution consistency, and
//! the multi-network sweep.

use pcnna::cnn::geometry::ConvGeometry;
use pcnna::cnn::zoo;
use pcnna::core::config::PcnnaConfig;
use pcnna::core::execution::ExecutionModel;
use pcnna::core::feasibility::{FeasibilityModel, SpectralBudget};
use pcnna::core::power::{PowerAssumptions, PowerModel};
use pcnna::core::tiling::{TileConstraints, TilingPlanner};
use pcnna::core::Pcnna;

#[test]
fn feasibility_and_tiling_agree_on_pass_counts() {
    // Tiling by the spectral carrier budget must need at least as many
    // passes as the feasibility model's spectral partitioning (tiling
    // quantizes to whole channels, so it can need a few more).
    let config = PcnnaConfig::default();
    let budget = SpectralBudget::default();
    let feas = FeasibilityModel::new(config, budget).unwrap();
    let planner = TilingPlanner::new(config).unwrap();
    let constraints = TileConstraints::from_config(&config).with_carriers(budget.usable_channels());
    for (name, g) in zoo::alexnet_conv_layers() {
        let f = feas.layer(name, &g);
        if g.n_kernel_per_channel() > budget.usable_channels() {
            // conv1's 11×11 window needs 121 carriers per channel — channel
            // tiling cannot help; kernel-window tiling is out of scope.
            assert!(planner.plan(name, &g, &constraints).is_err());
            continue;
        }
        let plan = planner.plan(name, &g, &constraints).unwrap();
        assert!(
            plan.tiles >= f.spectral_passes,
            "{name}: tiles {} < spectral passes {}",
            plan.tiles,
            f.spectral_passes
        );
        // and within a small factor (channel quantization only)
        assert!(plan.tiles <= 2 * f.spectral_passes, "{name}");
    }
}

#[test]
fn tiled_vgg_network_is_fully_executable() {
    let config = PcnnaConfig::default();
    let accel = Pcnna::new(config).unwrap();
    let planner = TilingPlanner::new(config).unwrap();
    let constraints = TileConstraints::from_config(&config);
    for (name, g) in zoo::vgg16_conv_layers() {
        let direct = accel.analyze_conv_layers(&[(name, g)]);
        if direct.is_err() {
            let plan = planner.plan(name, &g, &constraints).unwrap();
            assert!(plan.tiles >= 2, "{name} should need tiling");
        }
    }
}

#[test]
fn fc_layers_map_via_tiling() {
    // AlexNet fc6 (9216 inputs) exceeds the 8192-word SRAM; the planner
    // splits it into 2 tiles.
    let config = PcnnaConfig::default();
    let planner = TilingPlanner::new(config).unwrap();
    let constraints = TileConstraints::from_config(&config);
    let g = ConvGeometry::for_fully_connected(9216, 4096).unwrap();
    let plan = planner.plan("fc6", &g, &constraints).unwrap();
    assert_eq!(plan.tiles, 2);
    assert_eq!(plan.partial_sums_per_output, 1);
}

#[test]
fn power_times_time_equals_energy_scale() {
    // The power model's photonic energy must equal its budget × exec time.
    let model = PowerModel::new(PcnnaConfig::default(), PowerAssumptions::default()).unwrap();
    for (name, g) in zoo::alexnet_conv_layers() {
        let p = model.layer_power(name, &g).unwrap();
        let expect = p.photonic.total_w() * p.exec_seconds;
        assert!(
            (p.energy.photonic_j - expect).abs() <= 1e-12 * expect.max(1.0),
            "{name}"
        );
    }
}

#[test]
fn execution_totals_match_per_layer_analysis() {
    let config = PcnnaConfig::default();
    let accel = Pcnna::new(config).unwrap();
    let exec = ExecutionModel::new(config).unwrap();
    let layers = zoo::alexnet_conv_layers();
    let report = accel.analyze_conv_layers(&layers).unwrap();
    let run = exec.run(&layers).unwrap();
    // compute phases equal the analytical full-system times
    for (row, phase) in report.layers.iter().zip(&run.phases) {
        assert_eq!(row.full_system_time, phase.compute, "{}", row.name);
    }
    assert!(run.latency >= report.total_full_system());
}

#[test]
fn all_cited_networks_analyse_end_to_end() {
    let config = PcnnaConfig::default();
    let accel = Pcnna::new(config).unwrap();
    let planner = TilingPlanner::new(config).unwrap();
    let constraints = TileConstraints::from_config(&config);
    for layers in [
        zoo::alexnet_conv_layers(),
        zoo::googlenet_stem_conv_layers(),
        zoo::resnet18_conv_layers(),
        zoo::vgg16_conv_layers(),
    ] {
        for (name, g) in layers {
            let ok = accel.analyze_conv_layers(&[(name, g)]).is_ok()
                || planner.plan(name, &g, &constraints).is_ok();
            assert!(ok, "{name} neither analyses nor tiles");
        }
    }
}

#[test]
fn metrics_module_scores_photonic_output() {
    use pcnna::cnn::metrics::channel_argmax_agreement;
    use pcnna::cnn::workload::Workload;
    use pcnna::core::functional::FunctionalOptions;
    let g = ConvGeometry::new(8, 3, 1, 1, 2, 4).unwrap();
    let wl = Workload::uniform(&g, 77);
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let run = accel
        .run_functional(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
        .unwrap();
    let agreement = channel_argmax_agreement(&run.output, &run.reference).unwrap();
    assert!(agreement > 0.9, "argmax agreement {agreement}");
}
