//! Closed-loop control bench: SLO-attainment-per-watt with and without
//! the fleet control plane, across diurnal/MMPP arrivals and the four
//! chaos scenarios — run with `cargo run --release --bin control`.
//! The workload, the control-loop config and the reactive policy come
//! from `pcnna_bench::report::control_spec`; the MMPP twin swaps its
//! arrivals and each chaos row its fault section (the chaos-matrix
//! reference of `matrix_spec`).
//!
//! Flags: `--smoke` shrinks the fleet/horizon to CI size, `--seed <n>`
//! overrides the scenario seed, and `--check` turns the improvement
//! claims into hard exit-code gates (CI's control-smoke job): the
//! controlled fleet must beat the uncontrolled baseline on
//! SLO-per-watt under the diurnal arrivals (both policies) and under
//! at least one chaos scenario.
//!
//! Determinism: the whole measurement pass runs **twice** in-process
//! and the two JSON payloads are asserted byte-identical before
//! anything is written — same seed + same policy ⇒ byte-identical
//! `BENCH_control.json` (no wall-clock fields). The pass also asserts
//! the controller-on-shards=1 oracle: a `Hold` policy at full
//! provision must reproduce `simulate()` bit for bit (the controlled
//! driver runs the whole-fleet single cell — see the `control` module
//! docs for the consistency model).

use pcnna_bench::report::{assert_books, control_spec, matrix_spec, write_artifact};
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};
use std::time::Instant;

struct Args {
    smoke: bool,
    check: bool,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        check: false,
        seed: 7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--seed" => {
                args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other:?} (known: --smoke, --check, --seed <n>)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The MMPP twin of the diurnal arrivals: the same peak, in bursts.
fn mmpp_arrival(smoke: bool) -> ArrivalProcess {
    let peak_rps = if smoke { 60_000.0 } else { 90_000.0 };
    ArrivalProcess::Mmpp {
        low_rps: 0.1 * peak_rps,
        high_rps: peak_rps,
        dwell_low_s: if smoke { 0.02 } else { 0.06 },
        dwell_high_s: if smoke { 0.01 } else { 0.03 },
    }
}

/// One measured (arrival × policy) cell.
struct Row {
    arrival: &'static str,
    policy: String,
    offered: u64,
    completed: u64,
    shed: u64,
    throttled: u64,
    unserved: u64,
    scale_ups: u64,
    scale_downs: u64,
    slo_attainment: f64,
    p99_ms: f64,
    mean_active: f64,
    power: PowerMetrics,
}

impl Row {
    fn json(&self) -> Json {
        json::obj([
            ("arrival", json::str(self.arrival)),
            ("policy", json::str(&self.policy)),
            ("offered", json::int(self.offered)),
            ("completed", json::int(self.completed)),
            ("shed", json::int(self.shed)),
            ("throttled", json::int(self.throttled)),
            ("unserved", json::int(self.unserved)),
            ("scale_ups", json::int(self.scale_ups)),
            ("scale_downs", json::int(self.scale_downs)),
            ("slo_attainment", json::num(self.slo_attainment)),
            ("p99_ms", json::num(self.p99_ms)),
            ("goodput", json::num(self.power.goodput)),
            ("mean_active", json::num(self.mean_active)),
            ("mean_power_w", json::num(self.power.mean_power_w)),
            ("slo_per_watt", json::num(self.power.slo_per_watt)),
        ])
    }
}

fn open_loop_row(arrival: &'static str, scenario: &FleetScenario, cfg: &ControlConfig) -> Row {
    let report = scenario.simulate().expect("scenario is valid");
    assert_books(&report, arrival);
    let power = uncontrolled_power_metrics(&report, scenario.instances.len(), cfg.idle_power_w);
    Row {
        arrival,
        policy: "none".to_owned(),
        offered: report.offered,
        completed: report.completed,
        shed: 0,
        throttled: 0,
        unserved: report.resilience.unserved,
        scale_ups: 0,
        scale_downs: 0,
        slo_attainment: report.slo_attainment,
        p99_ms: 1e3 * report.latency.p99_s,
        mean_active: scenario.instances.len() as f64,
        power,
    }
}

fn controlled_row(
    arrival: &'static str,
    scenario: &FleetScenario,
    cfg: &ControlConfig,
    policy: &mut dyn ControlPolicy,
) -> Row {
    let r = scenario
        .simulate_controlled(cfg, policy)
        .expect("scenario is valid");
    let label = format!("{arrival}/{}", r.policy);
    assert_books(&r.report, &label);
    let mean_active = if r.report.makespan_s > 0.0 {
        r.power.powered_instance_s / r.report.makespan_s
    } else {
        0.0
    };
    Row {
        arrival,
        policy: r.policy.clone(),
        offered: r.report.offered,
        completed: r.report.completed,
        shed: r.report.resilience.shed,
        throttled: r.throttled,
        unserved: r.report.resilience.unserved,
        scale_ups: r.scale_ups,
        scale_downs: r.scale_downs,
        slo_attainment: r.report.slo_attainment,
        p99_ms: 1e3 * r.report.latency.p99_s,
        mean_active,
        power: r.power,
    }
}

/// One full measurement pass: every row, in a fixed order, as the
/// final JSON payload. Runs twice for the byte-identity assert.
fn measure(args: &Args) -> (String, Vec<Row>) {
    let spec = control_spec(args.smoke, args.seed);
    let CompiledScenario {
        scenario: base,
        control,
    } = spec.compile().expect("the control spec is valid");
    let ControlSpec {
        policy: reactive,
        config: cfg,
    } = control.expect("the control spec closes the loop");

    // Controller-on-shards=1 oracle: a non-acting controller at full
    // provision must reproduce the open-loop engine bit for bit.
    let oracle = base.simulate().expect("scenario is valid");
    let held = base
        .simulate_controlled(&cfg, &mut Hold)
        .expect("scenario is valid");
    assert_eq!(
        held.report, oracle,
        "Hold at full provision must reproduce simulate() exactly"
    );

    let mmpp = FleetScenario {
        arrival: mmpp_arrival(args.smoke),
        ..base.clone()
    };
    let mut rows = Vec::new();
    for (name, scenario) in [("diurnal", &base), ("mmpp", &mmpp)] {
        rows.push(open_loop_row(name, scenario, &cfg));
        rows.push(controlled_row(
            name,
            scenario,
            &cfg,
            reactive.build().as_mut(),
        ));
        rows.push(controlled_row(
            name,
            scenario,
            &cfg,
            &mut PredictivePolicy::new(),
        ));
    }

    // Chaos × control: the four named degradation scenarios on the
    // diurnal workload, uncontrolled vs reactive.
    let mut chaos_rows = Vec::new();
    for kind in ChaosKind::ALL {
        let scenario = ScenarioSpec {
            faults: matrix_spec(kind, args.smoke, args.seed).faults,
            ..spec.clone()
        }
        .compile()
        .expect("the control spec with a chaos reference is valid")
        .scenario;
        chaos_rows.push((kind.name(), open_loop_row("diurnal", &scenario, &cfg)));
        chaos_rows.push((
            kind.name(),
            controlled_row("diurnal", &scenario, &cfg, reactive.build().as_mut()),
        ));
    }

    let chaos_json = chaos_rows
        .iter()
        .map(|(name, row)| json::obj([("scenario", json::str(*name)), ("row", row.json())]));
    let record = json::obj([
        ("bench", json::str("control")),
        ("mode", json::str(if args.smoke { "smoke" } else { "full" })),
        ("seed", json::int(args.seed)),
        ("fleet", json::uint(base.instances.len())),
        ("peak_rps", json::num(base.arrival.peak_rate_rps())),
        ("horizon_s", json::num(base.horizon_s)),
        ("window_ms", json::num(1e3 * cfg.window_s)),
        ("boot_ms", json::num(1e3 * cfg.boot_s)),
        ("idle_power_w", json::num(cfg.idle_power_w)),
        ("oracle", json::str("hold-equals-simulate")),
        ("rows", Json::Arr(rows.iter().map(Row::json).collect())),
        ("chaos", Json::Arr(chaos_json.collect())),
    ]);
    let json = record.render() + "\n";
    rows.extend(chaos_rows.into_iter().map(|(_, r)| r));
    (json, rows)
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    println!(
        "control bench: closed-loop vs open-loop, seed {} ({} mode)",
        args.seed,
        if args.smoke { "smoke" } else { "full" },
    );

    // In-run double-simulate byte-identity: the entire pass, twice.
    let (json, rows) = measure(&args);
    let (json_again, _) = measure(&args);
    assert_eq!(
        json, json_again,
        "two in-process passes must emit byte-identical payloads"
    );

    println!(
        "  {:<8} {:<22} {:>9} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9}",
        "arrival",
        "policy",
        "offered",
        "SLO %",
        "shed",
        "thrtl",
        "avg inst",
        "watts",
        "p99 ms",
        "SLO/W"
    );
    for r in &rows {
        println!(
            "  {:<8} {:<22} {:>9} {:>8.2} {:>7} {:>7} {:>8.2} {:>8.1} {:>8.3} {:>9.5}",
            r.arrival,
            r.policy,
            r.offered,
            100.0 * r.slo_attainment,
            r.shed,
            r.throttled,
            r.mean_active,
            r.power.mean_power_w,
            r.p99_ms,
            r.power.slo_per_watt,
        );
    }

    // The improvement claims. rows layout: per arrival, [none,
    // reactive, predictive]; then chaos pairs [none, reactive] × 4.
    let slo_w = |arrival: &str, policy: &str| {
        rows.iter()
            .find(|r| r.arrival == arrival && r.policy == policy)
            .map(|r| r.power.slo_per_watt)
            .expect("row exists")
    };
    let diurnal_reactive_gain = slo_w("diurnal", "reactive") / slo_w("diurnal", "none");
    let diurnal_predictive_gain = slo_w("diurnal", "predictive") / slo_w("diurnal", "none");
    let mmpp_reactive_gain = slo_w("mmpp", "reactive") / slo_w("mmpp", "none");
    // chaos rows live at the tail: 4 kinds × (none, reactive)
    let chaos_pairs: Vec<(f64, f64)> = rows[6..]
        .chunks(2)
        .map(|pair| (pair[0].power.slo_per_watt, pair[1].power.slo_per_watt))
        .collect();
    let chaos_improved = chaos_pairs.iter().filter(|(none, ctl)| ctl > none).count();
    println!();
    println!(
        "SLO-per-watt gains: diurnal reactive {diurnal_reactive_gain:.2}x, \
         predictive {diurnal_predictive_gain:.2}x; mmpp reactive {mmpp_reactive_gain:.2}x; \
         chaos improved {chaos_improved}/4"
    );

    write_artifact("BENCH_control.json", &json);

    if args.check {
        let mut failed = false;
        let mut gate = |label: &str, ok: bool| {
            println!("  gate {:<44} {}", label, if ok { "PASS" } else { "FAIL" });
            failed |= !ok;
        };
        gate(
            "diurnal: reactive SLO/W beats no-control",
            diurnal_reactive_gain > 1.0,
        );
        gate(
            "diurnal: predictive SLO/W beats no-control",
            diurnal_predictive_gain > 1.0,
        );
        gate(
            "chaos: control improves ≥ 1 of 4 scenarios",
            chaos_improved >= 1,
        );
        if failed {
            eprintln!("control gates FAILED");
            std::process::exit(1);
        }
        println!("all control gates passed");
    }
    println!("control bench done in {:.2} s", t0.elapsed().as_secs_f64());
}
