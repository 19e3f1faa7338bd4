//! Joint (latency, accuracy) QoS bench: heat-wave and laser-aging chaos
//! under **loosened** serviceability limits (drift budget 1.0 K, laser
//! floor 0.1), so drifted instances keep serving instead of failing over
//! — and what they serve is quoted below the strict class's accuracy
//! floor. Each leg runs with accuracy routing off and on; the bench
//! asserts that routing off serves a nonzero count below floor and that
//! routing on strictly reduces it, that every report is bit-identical
//! across (shards, threads) ∈ {1, 4} × {1, 8} plus a re-run, and writes
//! the wall-clock-free `BENCH_accuracy.json` artifact:
//! `cargo run --release --bin accuracy [-- --seed <n>]`.
//!
//! The photonic convolution's SNR table (experiment E1) is in
//! EXPERIMENTS.md "Analog precision".

use pcnna_bench::report::{assert_books, matrix_spec, write_artifact};
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};

/// The smoke chaos-matrix leg of `kind` as a joint-QoS scenario: a
/// strict AlexNet class whose 0.85 top-1 floor sits just below the
/// pristine proxy accuracy (0.89), and a loose LeNet-5 class that
/// tolerates heavy quantization (0.50).
fn qos_scenario(kind: ChaosKind, accuracy_routing: bool, seed: u64) -> FleetScenario {
    let mut spec = matrix_spec(kind, true, seed);
    // Loosened envelope: degradations the default limits would refuse
    // stay serviceable, so accuracy — not serviceability — is what the
    // chaos attacks.
    spec.limits = DegradationLimits {
        max_ambient_excursion_k: 1.0,
        min_laser_power_factor: 0.1,
    };
    spec.classes[0].min_accuracy = 0.85;
    spec.classes[1].min_accuracy = 0.5;
    spec.accuracy_routing = accuracy_routing;
    let compile = |spec: &ScenarioSpec| spec.compile().expect("the QoS spec is valid").scenario;
    let mut scenario = compile(&spec);
    // Laser aging emits its deepest decay step at the very end of the
    // generation horizon — compress it into the first half of the run
    // so the fastest diodes serve deep-decay (5-bit) quotes while
    // traffic is still arriving. Heat-wave peaks mid-run already.
    if kind == ChaosKind::LaserAging {
        spec.horizon_s /= 2.0;
        scenario.faults = compile(&spec).faults;
    }
    scenario
}

/// Runs one leg across the (shards, threads) identity grid plus a
/// re-run and asserts every report is bit-identical.
fn run_identical(scenario: &FleetScenario, label: &str) -> FleetReport {
    let oracle = scenario.simulate_sharded(1, 1).expect("scenario is valid");
    for (shards, threads) in [(1, 8), (4, 1), (4, 8), (1, 1)] {
        let report = scenario
            .simulate_sharded(shards, threads)
            .expect("scenario is valid");
        assert_eq!(
            report, oracle,
            "{label}: shards={shards} threads={threads} must reproduce the \
             shards=1 oracle bit-for-bit"
        );
    }
    oracle
}

fn qos_record(kind: ChaosKind, routing: bool, report: &FleetReport) -> Json {
    json::obj([
        ("name", json::str(kind.name())),
        ("accuracy_routing", Json::Bool(routing)),
        ("offered", json::int(report.offered)),
        ("completed", json::int(report.completed)),
        (
            "below_accuracy",
            json::int(report.resilience.below_accuracy),
        ),
        ("accuracy_attainment", json::num(report.accuracy_attainment)),
        ("slo_attainment", json::num(report.slo_attainment)),
        ("unserved", json::int(report.resilience.unserved)),
        ("availability", json::num(report.resilience.availability)),
        ("deterministic", Json::Bool(true)),
    ])
}

fn run_serving(seed: u64) {
    println!("joint (latency, accuracy) serving bench — seed {seed}, loosened limits");
    println!(
        "  {:<22} {:>8} {:>10} {:>10} {:>8} {:>8} {:>9}",
        "scenario", "routing", "completed", "below-acc", "acc %", "SLO %", "unserved"
    );
    let mut records = Vec::new();
    for kind in [ChaosKind::HeatWave, ChaosKind::LaserAging] {
        let mut below = [0u64; 2];
        for (i, routing) in [false, true].into_iter().enumerate() {
            let scenario = qos_scenario(kind, routing, seed);
            let label = format!("{} routing={routing}", kind.name());
            let report = run_identical(&scenario, &label);
            assert_books(&report, &label);
            assert_eq!(
                report.completed,
                report.per_class.iter().map(|c| c.on_accuracy).sum::<u64>()
                    + report.resilience.below_accuracy,
                "{label}: on/below accuracy must partition completed"
            );
            below[i] = report.resilience.below_accuracy;
            println!(
                "  {:<22} {:>8} {:>10} {:>10} {:>8.2} {:>8.2} {:>9}",
                kind.name(),
                routing,
                report.completed,
                report.resilience.below_accuracy,
                100.0 * report.accuracy_attainment,
                100.0 * report.slo_attainment,
                report.resilience.unserved,
            );
            records.push(qos_record(kind, routing, &report));
        }
        assert!(
            below[0] > 0,
            "{}: without routing, drifted instances must serve below floor",
            kind.name()
        );
        assert!(
            below[1] < below[0],
            "{}: accuracy routing must reduce served-below-accuracy ({} -> {})",
            kind.name(),
            below[0],
            below[1]
        );
    }
    let record = json::obj([
        ("bench", json::str("accuracy")),
        ("mode", json::str("serving")),
        ("seed", json::int(seed)),
        ("scenarios", Json::Arr(records)),
    ]);
    write_artifact("BENCH_accuracy.json", &(record.render() + "\n"));
    println!("all legs bit-identical across (shards, threads) in {{1,4}}x{{1,8}} and re-runs");
}

fn main() {
    let mut seed = 7u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other:?} (known: --seed <n>)");
                std::process::exit(2);
            }
        }
    }
    run_serving(seed);
}
