//! Figure/table regeneration harness for the PCNNA reproduction.
//!
//! One binary per paper artifact (the README's "Reproducing the paper's
//! artifacts" section shows how to run them):
//!
//! | target | artifact |
//! |--------|----------|
//! | `table1` | Table I — conv-layer parameters for AlexNet |
//! | `fig2`   | Figure 2 — filtering example, 16×16 input / five 3×3 kernels |
//! | `fig3`   | Figure 3 — kernel-location schedule |
//! | `fig4`   | Figure 4 — architecture stages and clock domains |
//! | `fig5`   | Figure 5 — microring counts per AlexNet layer |
//! | `fig6`   | Figure 6 — execution times vs. Eyeriss and YodaNN |
//! | `sweep`  | design-space sweep (beyond the paper) |
//!
//! The models and the serving simulator are timed by the `perf` bin
//! (`BENCH_perf.json`, gated in CI) and by the repository benchmark under
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use pcnna_baselines::{AcceleratorModel, Eyeriss, YodaNn};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::zoo;
use pcnna_core::accel::Pcnna;
use pcnna_core::config::PcnnaConfig;
use pcnna_electronics::time::SimTime;

/// One row of the Figure 6 comparison.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Layer name.
    pub layer: String,
    /// Eyeriss-like execution time.
    pub eyeriss: SimTime,
    /// YodaNN-like execution time.
    pub yodann: SimTime,
    /// PCNNA full system (optical + electronic I/O).
    pub pcnna_oe: SimTime,
    /// PCNNA optical core only.
    pub pcnna_o: SimTime,
}

impl Fig6Row {
    /// Speedup of the full PCNNA system over Eyeriss.
    #[must_use]
    pub fn speedup_oe_vs_eyeriss(&self) -> f64 {
        self.eyeriss.ratio(self.pcnna_oe)
    }

    /// Speedup of the optical core over Eyeriss.
    #[must_use]
    pub fn speedup_o_vs_eyeriss(&self) -> f64 {
        self.eyeriss.ratio(self.pcnna_o)
    }
}

/// Computes the Figure 6 rows for a set of layers under a config.
///
/// # Panics
///
/// Panics if a layer exceeds the configured hardware — the AlexNet layers
/// used by every caller are validated by construction.
fn figure6_rows(config: PcnnaConfig, layers: &[(&str, ConvGeometry)]) -> Vec<Fig6Row> {
    let accel = Pcnna::new(config).expect("config is valid");
    let report = accel
        .analyze_conv_layers(layers)
        .expect("layers fit the paper design point");
    let eyeriss = Eyeriss::default();
    let yodann = YodaNn::default();
    report
        .layers
        .iter()
        .zip(layers)
        .map(|(row, (name, g))| Fig6Row {
            layer: (*name).to_owned(),
            eyeriss: eyeriss.layer_time(g),
            yodann: yodann.layer_time(g),
            pcnna_oe: row.full_system_time,
            pcnna_o: row.optical_time,
        })
        .collect()
}

/// The AlexNet Figure 6 with the default (paper) configuration.
#[must_use]
pub fn figure6_alexnet() -> Vec<Fig6Row> {
    let layers = zoo::alexnet_conv_layers();
    figure6_rows(PcnnaConfig::default(), &layers)
}

/// Renders Figure 6 rows as an aligned table with speedup columns.
#[must_use]
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12}\n",
        "layer", "Eyeriss", "YodaNN", "PCNNA(O+E)", "PCNNA(O)", "O+E-speedup", "O-speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>14} {:>12} {:>11.0}x {:>11.0}x\n",
            r.layer,
            r.eyeriss.to_string(),
            r.yodann.to_string(),
            r.pcnna_oe.to_string(),
            r.pcnna_o.to_string(),
            r.speedup_oe_vs_eyeriss(),
            r.speedup_o_vs_eyeriss(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_has_five_rows_with_expected_ordering() {
        let rows = figure6_alexnet();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // Figure 6 ordering: Eyeriss slowest, then YodaNN, then
            // PCNNA(O+E), then PCNNA(O).
            assert!(r.eyeriss > r.yodann, "{}", r.layer);
            assert!(r.yodann > r.pcnna_oe, "{}", r.layer);
            assert!(r.pcnna_oe > r.pcnna_o, "{}", r.layer);
        }
    }

    #[test]
    fn paper_claim_full_system_3_orders() {
        // "3 orders of magnitude execution time improvement over
        // electronic engines" — at least one layer reaches 1000×.
        let rows = figure6_alexnet();
        let best = rows
            .iter()
            .map(Fig6Row::speedup_oe_vs_eyeriss)
            .fold(0.0, f64::max);
        assert!(best > 1000.0, "best O+E speedup {best}");
    }

    #[test]
    fn paper_claim_optical_5_orders() {
        // "its optical core potentially offer more than 5 order of
        // magnitude speedup"
        let rows = figure6_alexnet();
        let best = rows
            .iter()
            .map(Fig6Row::speedup_o_vs_eyeriss)
            .fold(0.0, f64::max);
        assert!(best > 100_000.0, "best optical speedup {best}");
    }

    #[test]
    fn render_contains_all_layers() {
        let s = render_fig6(&figure6_alexnet());
        for l in ["conv1", "conv2", "conv3", "conv4", "conv5"] {
            assert!(s.contains(l));
        }
    }
}
