//! Chaos scenario matrix: replays the named degradation scenarios
//! (heat wave, laser aging, channel-loss burst, rolling recalibration)
//! against a serving fleet and reports resilience figures next to a
//! fault-free baseline — run with `cargo run --release --bin scenarios`.
//!
//! Flags: `--smoke` shrinks the fleet/horizon to CI size,
//! `--scenario <name>` runs one named scenario (the CI matrix fans out
//! one job per name), `--seed <n>` overrides the chaos seed,
//! `--shards <n>` sets the shard-worker count (default 4),
//! `--file <path>` runs a declarative scenario file instead of the
//! named matrix, `--fuzz <n>` runs a seeded generative fuzz campaign
//! of `n` scenarios against the full oracle suite (emitting
//! `BENCH_fuzz.json`; violations are shrunk into `tests/regressions/`
//! and fail the run), and `--emit-files <dir>` regenerates the
//! canonical committed scenario files under `scenarios/`.
//!
//! Every report is produced by the **sharded engine** and asserted
//! bit-identical against its `shards = 1` oracle (run twice) — the
//! two-layer determinism contract CI relies on: same seed ⇒ same
//! report, at any shard count. The emitted artifacts deliberately
//! carry **no wall-clock measurements**, so two runs of the same
//! invocation — *at any `--shards` value* — produce byte-identical
//! files (the acceptance check `diff`s them across shard counts and
//! re-runs).
//!
//! The baseline and every leg compile the scenario specs of
//! `pcnna_bench::report` (`serving_spec`, `matrix_spec`), the same specs
//! `--emit-files` renders. The tier-1 test
//! `report::tests::committed_scenario_files_are_canonical` pins the
//! committed files to them byte for byte.

use pcnna_bench::report::{assert_books, matrix_spec, serving_spec, write_artifact};
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};
use std::time::Instant;

struct Args {
    smoke: bool,
    only: Option<ChaosKind>,
    seed: u64,
    shards: usize,
    file: Option<String>,
    fuzz: Option<u64>,
    emit_files: Option<String>,
    shrink_demo: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        only: None,
        seed: 7,
        shards: 4,
        file: None,
        fuzz: None,
        emit_files: None,
        shrink_demo: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--scenario" => {
                let name = it.next().unwrap_or_default();
                match ChaosKind::from_name(&name) {
                    Some(kind) => args.only = Some(kind),
                    None => {
                        eprintln!(
                            "unknown scenario {name:?}; known: {}",
                            ChaosKind::ALL
                                .iter()
                                .map(|k| k.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                args.seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                args.shards = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--shards needs an integer ≥ 1");
                    std::process::exit(2);
                });
            }
            "--file" => {
                args.file = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--file needs a path to a scenario JSON file");
                    std::process::exit(2);
                }));
            }
            "--fuzz" => {
                args.fuzz = Some(it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fuzz needs a scenario count ≥ 1");
                    std::process::exit(2);
                }));
            }
            "--emit-files" => {
                args.emit_files = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--emit-files needs a directory");
                    std::process::exit(2);
                }));
            }
            "--shrink-demo" => {
                args.shrink_demo = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--shrink-demo needs a directory");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown flag {other:?} (known: --smoke, --scenario <name>, \
                     --seed <n>, --shards <n>, --file <path>, --fuzz <n>, \
                     --emit-files <dir>, --shrink-demo <dir>)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// One deterministic JSON record of a chaos run (no wall-clock fields).
fn record_for(name: &str, report: &FleetReport, baseline: &FleetReport) -> Json {
    let r = &report.resilience;
    json::obj([
        ("name", json::str(name)),
        ("offered", json::int(report.offered)),
        ("completed", json::int(report.completed)),
        ("rejected", json::int(report.rejected)),
        ("slo_attainment", json::num(report.slo_attainment)),
        ("baseline_slo", json::num(baseline.slo_attainment)),
        ("p99_ms", json::num(1e3 * report.latency.p99_s)),
        ("availability", json::num(r.availability)),
        ("failed_over", json::int(r.failed_over)),
        ("recalibrations", json::int(r.recalibrations)),
        ("hard_failures", json::int(r.hard_failures)),
        ("fault_events", json::int(r.fault_events)),
        ("unserved", json::int(r.unserved)),
        (
            "energy_per_request_mj",
            json::num(1e3 * report.energy_per_request_j),
        ),
        ("deterministic", Json::Bool(true)),
    ])
}

/// The `BENCH_scenarios.json` payload: the run's shape, then its
/// records.
fn scenarios_payload(mode: &str, scenario: &FleetScenario, records: Vec<Json>) -> String {
    let payload = json::obj([
        ("bench", json::str("scenarios")),
        ("mode", json::str(mode)),
        ("seed", json::int(scenario.seed)),
        ("instances", json::uint(scenario.instances.len())),
        ("rate_rps", json::num(scenario.arrival.mean_rate_rps())),
        ("horizon_s", json::num(scenario.horizon_s)),
        ("scenarios", Json::Arr(records)),
    ]);
    payload.render() + "\n"
}

/// Simulates at the requested shard count and asserts the shards=1
/// oracle reproduces it bit-for-bit.
fn run_checked(scenario: &FleetScenario, shards: usize, label: &str) -> FleetReport {
    let report = scenario
        .simulate_sharded(shards, shards)
        .expect("scenario is valid");
    let oracle = scenario.simulate_sharded(1, 1).expect("scenario is valid");
    assert_eq!(
        report, oracle,
        "{label}: shards={shards} must reproduce the shards=1 oracle bit-for-bit"
    );
    report
}

/// The committed demo scenario the `fault_tolerance` example loads: the
/// smoke fleet under a longer heat wave with a 5 ms re-lock window.
fn demo_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "heat-wave-demo".to_owned(),
        horizon_s: 0.25,
        faults: FaultSpec::Chaos {
            kind: ChaosKind::HeatWave,
            recalibration_s: 5e-3,
            seed: 7,
        },
        ..matrix_spec(ChaosKind::HeatWave, true, 7)
    }
}

/// Regenerates the canonical committed scenario files.
fn emit_files(dir: &str) {
    std::fs::create_dir_all(dir).expect("create scenario dir");
    for kind in ChaosKind::ALL {
        let spec = matrix_spec(kind, true, 7);
        let path = format!("{dir}/{}.json", kind.name());
        std::fs::write(&path, spec.render()).expect("write scenario file");
        println!("wrote {path}");
    }
    let demo = demo_spec();
    let path = format!("{dir}/{}.json", demo.name);
    std::fs::write(&path, demo.render()).expect("write scenario file");
    println!("wrote {path}");
}

/// Runs one declarative scenario file: open loop against a fault-free
/// baseline (plus the controlled run when the file closes the loop),
/// with the same determinism asserts as the matrix.
fn run_file(path: &str, shards: usize) {
    let spec = ScenarioSpec::load(path).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let compiled = spec.compile().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scenario = &compiled.scenario;
    println!(
        "scenario file {}: {} class(es), {} instance(s), {:.0} req/s mean for {} ms, \
         {} fault event(s)",
        spec.name,
        scenario.classes.len(),
        scenario.instances.len(),
        scenario.arrival.mean_rate_rps(),
        (1e3 * scenario.horizon_s) as u64,
        scenario.faults.len(),
    );
    let baseline_scenario = FleetScenario {
        faults: FaultTimeline::new(),
        ..scenario.clone()
    };
    let baseline = run_checked(&baseline_scenario, shards, "baseline");
    let report = run_checked(scenario, shards, &spec.name);
    assert_books(&report, &spec.name);
    let r = &report.resilience;
    println!(
        "  SLO {:.2}% (baseline {:.2}%)  p99 {:.3} ms  availability {:.2}%  \
         {} failed over, {} recals, {} unserved",
        100.0 * report.slo_attainment,
        100.0 * baseline.slo_attainment,
        1e3 * report.latency.p99_s,
        100.0 * r.availability,
        r.failed_over,
        r.recalibrations,
        r.unserved,
    );
    if let Some(control) = &compiled.control {
        let mut policy = control.policy.build();
        let controlled = scenario
            .simulate_controlled(&control.config, policy.as_mut())
            .expect("scenario is valid");
        assert_books(&controlled.report, &format!("{} (controlled)", spec.name));
        println!(
            "  controlled ({}): SLO {:.2}%  {:.2} W mean  {} scale-ups, {} scale-downs, \
             {} shed",
            controlled.policy,
            100.0 * controlled.report.slo_attainment,
            controlled.power.mean_power_w,
            controlled.scale_ups,
            controlled.scale_downs,
            controlled.report.resilience.shed,
        );
    }
    let record = record_for(&spec.name, &report, &baseline);
    write_artifact(
        "BENCH_scenarios.json",
        &scenarios_payload("file", scenario, vec![record]),
    );
}

/// Runs a seeded generative fuzz campaign against the full oracle
/// suite, shrinking any violation into `tests/regressions/` and
/// emitting the deterministic `BENCH_fuzz.json` summary.
fn run_fuzz(count: u64, seed: u64) {
    let t0 = Instant::now();
    let cfg = CampaignConfig {
        count,
        seed,
        regressions_dir: Some("tests/regressions".into()),
    };
    let oracles = default_oracles();
    println!(
        "fuzz campaign: {count} scenario(s), seed {seed}, oracles [{}]",
        oracles
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let summary = run_campaign(&cfg, &oracles).expect("campaign I/O");
    let mut records = Vec::with_capacity(summary.outcomes.len());
    for o in &summary.outcomes {
        if !o.violations.is_empty() {
            eprintln!("VIOLATION in {}:", o.name);
            for v in &o.violations {
                eprintln!("  {v}");
            }
            if let Some(min) = &o.shrunk {
                let events = match &min.faults {
                    FaultSpec::Events(e) => e.len(),
                    FaultSpec::Chaos { .. } => usize::MAX,
                };
                eprintln!(
                    "  shrunk to {} fault event(s) → tests/regressions/{}.json",
                    events, min.name
                );
            }
        }
        let violations = o
            .violations
            .iter()
            .map(|v| json::obj([("oracle", json::str(&v.oracle))]));
        records.push(json::obj([
            ("name", json::str(&o.name)),
            ("fault_events", json::uint(o.fault_events)),
            ("offered", json::int(o.offered)),
            ("completed", json::int(o.completed)),
            ("shed", json::int(o.shed)),
            ("unserved", json::int(o.unserved)),
            ("violations", Json::Arr(violations.collect())),
        ]));
    }
    let total_offered: u64 = summary.outcomes.iter().map(|o| o.offered).sum();
    let total_completed: u64 = summary.outcomes.iter().map(|o| o.completed).sum();
    let payload = json::obj([
        ("bench", json::str("fuzz")),
        ("seed", json::int(summary.seed)),
        ("count", json::int(summary.count)),
        (
            "oracles",
            Json::Arr(summary.oracles.iter().map(json::str).collect()),
        ),
        ("violations", json::uint(summary.violations())),
        ("offered", json::int(total_offered)),
        ("completed", json::int(total_completed)),
        ("scenarios", Json::Arr(records)),
    ]);
    write_artifact("BENCH_fuzz.json", &(payload.render() + "\n"));
    println!(
        "{} scenario(s), {} request(s) offered, {} violation(s); campaign done in {:.2} s",
        summary.count,
        total_offered,
        summary.violations(),
        t0.elapsed().as_secs_f64()
    );
    if !summary.is_green() {
        eprintln!("fuzz campaign found oracle violations — see tests/regressions/");
        std::process::exit(1);
    }
}

/// The shrinker walkthrough (and the regeneration path for the seed
/// regression file): inject an intentionally breakable oracle — "the
/// fleet never hard-fails" — find the first generated scenario that
/// violates it, and minimize that scenario into `dir`.
fn shrink_demo(dir: &str, seed: u64) {
    struct NoHardFailures;
    impl Oracle for NoHardFailures {
        fn name(&self) -> &'static str {
            "no-hard-failures"
        }
        fn check(&self, run: &RunArtifacts<'_>) -> Result<(), String> {
            if run.sharded.resilience.hard_failures > 0 {
                Err(format!(
                    "{} hard failures",
                    run.sharded.resilience.hard_failures
                ))
            } else {
                Ok(())
            }
        }
    }
    let oracles: Vec<Box<dyn Oracle>> = vec![Box::new(NoHardFailures)];
    let generator = ScenarioGen::new(seed);
    let victim = (0..64)
        .map(|i| generator.generate(i))
        .find(|s| !run_and_check(s, &oracles).violations.is_empty())
        .expect("the sample space contains hard failures");
    println!(
        "injected oracle \"no-hard-failures\" violated by {} ({} fault events)",
        victim.name,
        match victim.compile() {
            Ok(c) => c.scenario.faults.len(),
            Err(_) => 0,
        }
    );
    let minimized = shrink(&victim, &oracles);
    let events = match &minimized.faults {
        FaultSpec::Events(e) => e.len(),
        FaultSpec::Chaos { .. } => unreachable!("shrinker materializes chaos"),
    };
    std::fs::create_dir_all(dir).expect("create regression dir");
    let path = format!("{dir}/{}.json", minimized.name);
    std::fs::write(&path, minimized.render()).expect("write regression file");
    println!(
        "minimized to {} fault event(s), {} class(es), {} instance(s) → wrote {path}",
        events,
        minimized.classes.len(),
        minimized.n_instances()
    );
    assert!(events <= 5, "shrinker left {events} events");
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.emit_files {
        emit_files(dir);
        return;
    }
    if let Some(dir) = &args.shrink_demo {
        shrink_demo(dir, args.seed);
        return;
    }
    if let Some(count) = args.fuzz {
        run_fuzz(count, args.seed);
        return;
    }
    if let Some(path) = &args.file {
        run_file(path, args.shards);
        return;
    }
    let t0 = Instant::now();
    let base = serving_spec(args.smoke, args.seed)
        .compile()
        .expect("the serving spec is valid")
        .scenario;
    let kinds: Vec<ChaosKind> = match args.only {
        Some(k) => vec![k],
        None => ChaosKind::ALL.to_vec(),
    };
    println!(
        "chaos matrix: {} scenario(s) × {} instances, {:.0} req/s for {} ms \
         (seed {}, {} mode, {} shard(s))",
        kinds.len(),
        base.instances.len(),
        base.arrival.mean_rate_rps(),
        (1e3 * base.horizon_s) as u64,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        args.shards,
    );

    let baseline = run_checked(&base, args.shards, "baseline");
    println!(
        "baseline (no faults): SLO {:.2}%  p99 {:.3} ms  {:.3} mJ/req  availability 100.00%",
        100.0 * baseline.slo_attainment,
        1e3 * baseline.latency.p99_s,
        1e3 * baseline.energy_per_request_j,
    );
    println!();
    println!(
        "  {:<22} {:>7} {:>7} {:>8} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "scenario",
        "SLO %",
        "ΔSLO",
        "avail %",
        "p99 ms",
        "f.over",
        "recals",
        "fails",
        "unserved",
        "mJ/req"
    );

    let mut records = Vec::new();
    for kind in kinds {
        let scenario = matrix_spec(kind, args.smoke, args.seed)
            .compile()
            .expect("the matrix spec is valid")
            .scenario;
        let report = run_checked(&scenario, args.shards, kind.name());
        // Cross-run determinism: a fresh simulation of the same seed
        // (the oracle comparison already happened inside `run_checked`).
        let again = scenario
            .simulate_sharded(args.shards, args.shards)
            .expect("scenario is valid");
        assert_eq!(
            report,
            again,
            "{}: two runs of the same seed must produce identical reports",
            kind.name()
        );
        let r = &report.resilience;
        println!(
            "  {:<22} {:>7.2} {:>+7.2} {:>8.2} {:>8.3} {:>7} {:>7} {:>7} {:>9} {:>9.3}",
            kind.name(),
            100.0 * report.slo_attainment,
            100.0 * (report.slo_attainment - baseline.slo_attainment),
            100.0 * r.availability,
            1e3 * report.latency.p99_s,
            r.failed_over,
            r.recalibrations,
            r.hard_failures,
            r.unserved,
            1e3 * report.energy_per_request_j,
        );
        assert_books(&report, kind.name());
        records.push(record_for(kind.name(), &report, &baseline));
    }
    println!();

    // No wall-clock fields: the record must be byte-identical across
    // runs of the same invocation (CI's determinism check diffs it).
    let mode = if args.smoke { "smoke" } else { "full" };
    write_artifact(
        "BENCH_scenarios.json",
        &scenarios_payload(mode, &base, records),
    );
    println!(
        "all scenarios deterministic; matrix done in {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}
