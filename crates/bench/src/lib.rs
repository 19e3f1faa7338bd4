//! The paper record and the perf, serving, control and fuzz bins of the
//! PCNNA reproduction.
//!
//! | target | output |
//! |--------|--------|
//! | `paper` | `EXPERIMENTS.md` — Table I, Figs. 2–6 and the reproduction findings ([`paper`]) |
//! | `perf` | `BENCH_perf.json` — hot-path timings and regression gates |
//! | `scenarios` | `BENCH_scenarios.json` / `BENCH_fuzz.json` — chaos matrix and fuzz campaign |
//! | `control` | `BENCH_control.json` — closed-loop control |
//! | `trace` | `BENCH_trace.jsonl` — heat-wave telemetry |
//! | `accuracy` | `BENCH_accuracy.json` — joint latency/accuracy serving |
//! | `dse` | `BENCH_dse.json` — design-space exploration |
//!
//! The models and the serving simulator are timed by the `perf` bin
//! (`BENCH_perf.json`, gated in CI) and by the repository benchmark under
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod feasibility;
pub mod paper;
pub mod report;

#[cfg(test)]
mod tests {
    //! The Fig. 6 table as `EXPERIMENTS.md` prints it. `tests/claims.rs`
    //! asserts the abstract's claims on the [`Paper`](crate::paper::Paper)
    //! data; these read the same claims back from the printed cells, so a
    //! table that prints the wrong field or drops a row fails here.

    use crate::paper::{best, record, Fig6Row};
    use crate::report::table_rows;

    /// The Fig. 6 layer rows and its totals row.
    fn fig6() -> Vec<Vec<String>> {
        table_rows(&record().markdown, "## Fig. 6").1
    }

    /// The printed headline-claims cell `check`, which must state the
    /// best per-layer `speedup`; returns that speedup.
    fn best_printed(check: &str, speedup: fn(&Fig6Row) -> f64) -> f64 {
        let (_, claims) = table_rows(&record().markdown, "### eq. (8) and the headline claims");
        let claim = claims.iter().find(|r| r[0] == check).unwrap();
        let best = best(&record().fig6, speedup);
        assert_eq!(claim[1], format!("{best:.0}×"), "{check}");
        best
    }

    #[test]
    fn figure6_has_five_rows_with_expected_ordering() {
        let (rows, data) = (fig6(), &record().fig6);
        assert_eq!((rows.len(), data.len()), (6, 5));
        for (cells, r) in rows.iter().zip(data) {
            // Figure 6 ordering: Eyeriss slowest, then YodaNN, then
            // PCNNA(O+E), then PCNNA(O), each printed in its column.
            let p = &r.pcnna;
            let times = [r.eyeriss, r.yodann, p.full_system_time, p.optical_time];
            assert_eq!(cells[2..6], times.map(|t| t.to_string()), "{}", p.name);
            assert!(times.windows(2).all(|w| w[0] > w[1]), "{}", p.name);
        }
    }

    #[test]
    fn paper_claim_full_system_3_orders() {
        // "3 orders of magnitude execution time improvement over
        // electronic engines" — at least one layer reaches 1000×.
        let best = best_printed(
            "best full-system (O+E) speedup",
            Fig6Row::speedup_oe_vs_eyeriss,
        );
        assert!(best > 1000.0, "best O+E speedup {best}");
    }

    #[test]
    fn paper_claim_optical_5_orders() {
        // "its optical core potentially offer more than 5 order of
        // magnitude speedup"
        let best = best_printed(
            "best optical-core (O) speedup",
            Fig6Row::speedup_o_vs_eyeriss,
        );
        assert!(best > 100_000.0, "best optical speedup {best}");
    }

    #[test]
    fn render_contains_all_layers() {
        let layers: Vec<String> = fig6().into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            layers,
            ["conv1", "conv2", "conv3", "conv4", "conv5", "total"]
        );
    }
}
