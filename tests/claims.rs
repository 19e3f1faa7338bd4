//! Paper-claim assertions: every quantitative
//! statement in the paper's abstract and §V, checked against this
//! reproduction's models end to end.

use pcnna::baselines::{AcceleratorModel, Eyeriss, YodaNn};
use pcnna::cnn::zoo;
use pcnna::core::config::{AllocationPolicy, PcnnaConfig};
use pcnna::core::mapping::{AreaModel, RingAllocation};
use pcnna::core::Pcnna;

/// §V-A: "the first convolutional layer of AlexNet ... will require
/// approximately 5.2 Billion microrings without filtering".
#[test]
fn claim_conv1_unfiltered_5_2_billion() {
    let conv1 = zoo::alexnet_conv_layers()[0].1;
    let rings = RingAllocation::for_layer(&conv1, AllocationPolicy::Unfiltered).rings;
    assert!((5.2e9..5.3e9).contains(&(rings as f64)), "{rings}");
}

/// §V-A: "the same number once non-receptive field values are filtered
/// would be 35 thousand".
#[test]
fn claim_conv1_filtered_35_thousand() {
    let conv1 = zoo::alexnet_conv_layers()[0].1;
    let rings = RingAllocation::for_layer(&conv1, AllocationPolicy::Filtered).rings;
    assert!((34_000..36_000).contains(&rings), "{rings}");
}

/// §V-A: "a saving of more than 150k× in the number microrings".
#[test]
fn claim_150k_saving() {
    let conv1 = zoo::alexnet_conv_layers()[0].1;
    let alloc = RingAllocation::for_layer(&conv1, AllocationPolicy::Filtered);
    assert!(alloc.saving_vs_unfiltered(&conv1) >= 150_000.0);
}

/// §V-A: conv4 "will require 3456 microrings ... it takes an area of
/// 2.2mm² to fit all the microrings" (channel-sequential reading: eq. (5)
/// verbatim weights all `nc` input channels at once, which gives 663k
/// rings with AlexNet's channel grouping and 1.3M without).
#[test]
fn claim_conv4_3456_rings_2_2_mm2() {
    let conv4 = zoo::alexnet_conv_layers()[3].1;
    let alloc = RingAllocation::for_layer(&conv4, AllocationPolicy::FilteredChannelSequential);
    assert_eq!(alloc.rings, 3456);
    let area = AreaModel::default().rings_area_mm2(alloc.rings);
    assert!((2.1..2.3).contains(&area), "area {area}");
}

/// §V-B eq. (8): "This number for largest layer of AlexNet with a stride
/// of 1 and 10 (NDAC) DACs equals ... ≈ 116".
#[test]
fn claim_equation_8_116_conversions() {
    let conv4 = zoo::alexnet_conv_layers()[3].1;
    let updates = conv4.updated_inputs_per_location();
    assert_eq!(updates, 1152);
    assert_eq!(updates.div_ceil(10), 116);
}

/// Abstract: "its optical core potentially offer more than 5 order of
/// magnitude speedup compared to state-of-the-art electronic counterparts".
#[test]
fn claim_optical_core_5_orders() {
    let layers = zoo::alexnet_conv_layers();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let report = accel.analyze_conv_layers(&layers).unwrap();
    let eyeriss = Eyeriss::default();
    let best = report
        .layers
        .iter()
        .zip(&layers)
        .map(|(row, (_, g))| eyeriss.layer_time(g).ratio(row.optical_time))
        .fold(0.0, f64::max);
    assert!(best > 1e5, "best optical speedup {best}");
}

/// Abstract: "our full system design offers up to more than 3 orders of
/// magnitude speedup in execution time".
#[test]
fn claim_full_system_3_orders() {
    let layers = zoo::alexnet_conv_layers();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let report = accel.analyze_conv_layers(&layers).unwrap();
    let eyeriss = Eyeriss::default();
    let best = report
        .layers
        .iter()
        .zip(&layers)
        .map(|(row, (_, g))| eyeriss.layer_time(g).ratio(row.full_system_time))
        .fold(0.0, f64::max);
    assert!(best > 1e3, "best full-system speedup {best}");
}

/// Figure 6 ordering: Eyeriss > YodaNN > PCNNA(O+E) > PCNNA(O) on every
/// layer — the qualitative shape of the paper's chart.
#[test]
fn claim_figure6_ordering_holds_per_layer() {
    let layers = zoo::alexnet_conv_layers();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let report = accel.analyze_conv_layers(&layers).unwrap();
    let eyeriss = Eyeriss::default();
    let yodann = YodaNn::default();
    for (row, (name, g)) in report.layers.iter().zip(&layers) {
        assert!(eyeriss.layer_time(g) > yodann.layer_time(g), "{name}");
        assert!(yodann.layer_time(g) > row.full_system_time, "{name}");
        assert!(row.full_system_time > row.optical_time, "{name}");
    }
}

/// §V-B: "Tconv in equation 7 is independent of the number of kernels" —
/// and the only cost of more kernels is linearly more rings.
#[test]
fn claim_kernel_scaling() {
    let g = zoo::alexnet_conv_layers()[2].1;
    let g2 = g.with_kernels(2 * g.kernels()).unwrap();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let t1 = accel.analytical().optical_time(&g);
    let t2 = accel.analytical().optical_time(&g2);
    assert_eq!(t1, t2);
    let r1 = RingAllocation::for_layer(&g, AllocationPolicy::Filtered).rings;
    let r2 = RingAllocation::for_layer(&g2, AllocationPolicy::Filtered).rings;
    assert_eq!(r2, 2 * r1);
}

/// §I: "Convolution operations account for roughly 90% of the total
/// operations in a CNN".
#[test]
fn claim_convs_dominate_macs() {
    let stats = pcnna::cnn::stats::network_stats(&zoo::alexnet()).unwrap();
    assert!(stats.conv_mac_fraction() > 0.88);
}
