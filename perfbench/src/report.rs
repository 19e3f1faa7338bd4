//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is named here once, with its unit
//! and a note: for end-to-end metrics whether it is host time (the
//! simulator's wall clock on this machine) or simulated (a figure of the
//! modelled PCNNA fleet, deterministic for a seed); for per-layer
//! metrics which end-to-end metric, on which workload, it should move.

use pcnna_fleet::scenario::json::{self, Json};
use std::collections::BTreeMap;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Host/simulated (end-to-end) or the end-to-end metric it moves
    /// (per-layer).
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef { name, unit, note }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "setup_s",
        "s",
        "host: fastest fresh-process set-up, host-scaled",
    ),
    m("wall_s", "s", "host: fastest measured pass, host-scaled"),
    m(
        "sim_req_per_s",
        "req/s",
        "simulated requests completed per host second",
    ),
    m(
        "evals_per_s",
        "evals/s",
        "fresh model evaluations per host second",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "host: VmHWM of the measuring process",
    ),
    m("sim_p50_ms", "sim_ms", "simulated median latency"),
    m(
        "sim_p999_ms",
        "sim_ms",
        "simulated 99.9th-percentile latency",
    ),
    m(
        "sim_slo_attainment",
        "fraction",
        "simulated on-time / completed",
    ),
    m(
        "sim_energy_per_req_mj",
        "sim_mJ",
        "simulated energy per request",
    ),
    m(
        "sim_served_frac",
        "fraction",
        "simulated completed / offered",
    ),
    m("sim_slo_per_watt", "1/W", "simulated goodput per watt"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not call reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("cnn.proxy_ladder_s", "s", "setup_s, every workload"),
    m("core.quote_us", "us", "setup_s, every workload"),
    m(
        "core.quote_degraded_us",
        "us",
        "sim_req_per_s, chaos-control",
    ),
    m("core.quote_calls", "count", "sim_req_per_s, chaos-control"),
    m("core.analytical_us", "us", "evals_per_s, design-sweep"),
    m("core.feasibility_us", "us", "evals_per_s, design-sweep"),
    m("core.power_us", "us", "evals_per_s, design-sweep"),
    m("photonics.link_snr_us", "us", "evals_per_s, design-sweep"),
    m("dse.evaluate_us", "us", "evals_per_s, design-sweep"),
    m(
        "dse.assemble_ns",
        "ns",
        "evals_per_s and wall_s, design-sweep",
    ),
    m(
        "dse.fingerprint_ns",
        "ns",
        "evals_per_s and wall_s, design-sweep",
    ),
    m("dse.cache_ns", "ns", "evals_per_s and wall_s, design-sweep"),
    m(
        "dse.pareto_insert_ns",
        "ns",
        "evals_per_s and wall_s, design-sweep",
    ),
    m(
        "dse.evaluated",
        "count",
        "evals_per_s and wall_s, design-sweep",
    ),
    m(
        "dse.cache_hits",
        "count",
        "evals_per_s and wall_s, design-sweep",
    ),
    m(
        "dse.frontier_len",
        "count",
        "evals_per_s and wall_s, design-sweep",
    ),
    m("dse.codesign_s", "s", "wall_s, design-sweep"),
    m("scenario.compile_s", "s", "setup_s, chaos-control"),
    m("engine.validate_s", "s", "setup_s, fleet workloads"),
    m("engine.quote_table_s", "s", "setup_s, fleet workloads"),
    m("shard.plan_s", "s", "setup_s, mega-fleet"),
    m("shard.cells", "count", "setup_s, mega-fleet"),
    m("shard.thread_speedup", "x", "sim_req_per_s, mega-fleet"),
    m("shard.arch_speedup", "x", "sim_req_per_s, mega-fleet"),
    m(
        "shard.s11_over_whole",
        "x",
        "sim_req_per_s, small-fleet (wall ratio)",
    ),
    m("shard.s11_batches", "count", "sim_req_per_s, small-fleet"),
    m(
        "shard.s11_weight_reloads",
        "count",
        "sim_req_per_s, small-fleet",
    ),
    m("workload.arrival_ns", "ns", "sim_req_per_s, small-fleet"),
    m(
        "scheduler.ns_per_req",
        "ns",
        "sim_req_per_s, small-fleet and mega-fleet",
    ),
    m("wheel.ns_per_op", "ns", "sim_req_per_s, mega-fleet"),
    m("wheel.pushes", "count", "sim_req_per_s, mega-fleet"),
    m("wheel.pops", "count", "sim_req_per_s, mega-fleet"),
    m(
        "engine.dispatch_scans",
        "count",
        "sim_req_per_s, chaos-control",
    ),
    m(
        "engine.quote_lookups",
        "count",
        "sim_req_per_s, fleet workloads",
    ),
    m("engine.batches", "count", "sim_req_per_s, fleet workloads"),
    m(
        "engine.weight_reloads",
        "count",
        "sim_req_per_s, fleet workloads",
    ),
    m("metrics.record_ns", "ns", "sim_req_per_s, fleet workloads"),
    m("metrics.merge_us", "us", "sim_req_per_s, mega-fleet"),
    m("control.overhead", "x", "wall_s, chaos-control"),
    m("control.windows", "count", "wall_s, chaos-control"),
    m("control.scale_ups", "count", "wall_s, chaos-control"),
    m("control.scale_downs", "count", "wall_s, chaos-control"),
    m("faults.events", "count", "wall_s, chaos-control"),
    m("faults.requotes", "count", "wall_s, chaos-control"),
    m("telemetry.overhead", "x", "none: cost of the traced twin"),
    m(
        "telemetry.events_recorded",
        "count",
        "none: size of the traced twin",
    ),
    m("core.share", "fraction", "share of the ledger wall"),
    m("photonics.share", "fraction", "share of the ledger wall"),
    m("dse.share", "fraction", "share of the ledger wall"),
    m("engine.share", "fraction", "share of the ledger wall"),
    m("shard.share", "fraction", "share of the ledger wall"),
    m("workload.share", "fraction", "share of the ledger wall"),
    m("scheduler.share", "fraction", "share of the ledger wall"),
    m("wheel.share", "fraction", "share of the ledger wall"),
    m("metrics.share", "fraction", "share of the ledger wall"),
    m("control.share", "fraction", "share of the ledger wall"),
    m(
        "unattributed_share",
        "fraction",
        "1 - the attributed shares",
    ),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the human-readable table and the final JSON result line for
/// the metrics of `catalogue`.
///
/// # Errors
///
/// Returns the name of a catalogue metric that is missing or not a
/// finite number — a bug in the benchmark, never a measurement.
pub fn render(
    catalogue: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<(String, String), String> {
    let mut table = String::new();
    let mut metrics = Vec::with_capacity(catalogue.len());
    for def in catalogue {
        let v = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", def.name));
        }
        table.push_str(&format!(
            "{:<28} {:>18.6} {:<9} {}\n",
            def.name, v, def.unit, def.note
        ));
        metrics.push((
            def.name.to_owned(),
            Json::Obj(vec![
                ("value".to_owned(), json::num(v)),
                ("unit".to_owned(), json::str(def.unit)),
            ]),
        ));
    }
    let line = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), json::int(attempted)),
        ("failed".to_owned(), json::int(failed)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .render();
    Ok((table, line))
}
