//! Telemetry rendering bench: traces a chaos-matrix leg through the
//! sharded engine and the control bench's diurnal workload through the
//! control loop, and proves the determinism contract in-process — run
//! with `cargo run --release --bin trace`. Both workloads compile the
//! scenario specs of `pcnna_bench::report` (`matrix_spec`,
//! `control_spec`, whose control section supplies the loop config and
//! the reactive policy).
//!
//! Flags: `--smoke` shrinks the fleet/horizon to CI size,
//! `--scenario <name>` picks the chaos kind (default `heat-wave`),
//! `--seed <n>` overrides the seed, and `--stride <n>` the per-class
//! sampling stride.
//!
//! The determinism contract this bin gates on:
//!
//! * the sharded trace is **byte-identical** across
//!   `(shards, threads) ∈ {(1,1), (4,2), (8,8)}` — cell decomposition
//!   never depends on who executes the cells;
//! * a re-run of the same seed reproduces both the sharded trace and
//!   the controlled-run telemetry byte for byte;
//! * the traced run's report equals the untraced run's report — the
//!   sink observes, it never steers.
//!
//! `BENCH_trace.jsonl` carries the sharded trace, then the controlled
//! run's trace and window timeline, with **no wall-clock fields** — CI
//! re-runs the bin and `diff`s the artifact.

use pcnna_bench::report::{assert_books, control_spec, matrix_spec, write_artifact};
use pcnna_fleet::prelude::*;
use std::time::Instant;

struct Args {
    smoke: bool,
    kind: ChaosKind,
    seed: u64,
    stride: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        kind: ChaosKind::HeatWave,
        seed: 7,
        stride: 64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--scenario" => {
                let name = it.next().unwrap_or_default();
                match ChaosKind::from_name(&name) {
                    Some(kind) => args.kind = kind,
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
            "--stride" => {
                args.stride = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--stride needs an integer ≥ 1");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown flag {other:?} (known: --smoke, --scenario <name>, \
                     --seed <n>, --stride <n>)"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    let tcfg = TraceConfig {
        stride: args.stride,
        ..TraceConfig::default()
    };
    println!(
        "trace bench: scenario {} seed {} stride {} ({} mode)",
        args.kind.name(),
        args.seed,
        args.stride,
        if args.smoke { "smoke" } else { "full" },
    );

    // Sharded chaos trace: byte-identical across (shards, threads) and
    // invisible to the report.
    let scenario = matrix_spec(args.kind, args.smoke, args.seed)
        .compile()
        .expect("the matrix spec is valid")
        .scenario;
    let plain = scenario.simulate_sharded(1, 1).expect("scenario is valid");
    let mut rendered: Option<String> = None;
    for (shards, threads) in [(1, 1), (4, 2), (8, 8)] {
        let (report, trace) = scenario
            .simulate_sharded_traced(shards, threads, &tcfg)
            .expect("scenario is valid");
        assert_eq!(
            report, plain,
            "tracing must not perturb the report (shards={shards}, threads={threads})"
        );
        assert_books(&report, args.kind.name());
        let jsonl = trace.render_jsonl();
        match &rendered {
            None => rendered = Some(jsonl),
            Some(first) => assert_eq!(
                first, &jsonl,
                "trace must be byte-identical at (shards={shards}, threads={threads})"
            ),
        }
    }
    let sharded_jsonl = rendered.expect("at least one layout ran");
    let (_, again) = scenario
        .simulate_sharded_traced(4, 2, &tcfg)
        .expect("scenario is valid");
    assert_eq!(
        sharded_jsonl,
        again.render_jsonl(),
        "re-running the same seed must reproduce the trace byte for byte"
    );
    let event_lines = sharded_jsonl.lines().count().saturating_sub(1);
    println!("  sharded trace: {event_lines} events, identical at (1,1)/(4,2)/(8,8) and re-run");

    // Controlled-run telemetry: trace + window timeline, re-run
    // byte-identical.
    let CompiledScenario {
        scenario: ctl,
        control,
    } = control_spec(args.smoke, args.seed)
        .compile()
        .expect("the control spec is valid");
    let control = control.expect("the control spec closes the loop");
    let (controlled, telemetry) = ctl
        .simulate_controlled_traced(&control.config, control.policy.build().as_mut(), &tcfg)
        .expect("scenario is valid");
    assert_books(&controlled.report, "controlled/traced");
    let control_jsonl = telemetry.render_jsonl();
    let (_, telemetry_again) = ctl
        .simulate_controlled_traced(&control.config, control.policy.build().as_mut(), &tcfg)
        .expect("scenario is valid");
    assert_eq!(
        control_jsonl,
        telemetry_again.render_jsonl(),
        "controlled-run telemetry must be re-run byte-identical"
    );
    println!(
        "  controlled run: {} windows recorded ({} evicted), {} trace events, re-run identical",
        telemetry.timeline.samples().len(),
        telemetry.timeline.dropped(),
        telemetry.trace.events.len(),
    );
    let p = &telemetry.trace.profile;
    println!(
        "  profile: {} wheel pushes / {} pops, {} dispatch bitset words, {} quote lookups, \
         {} merge folds, {} requests sampled",
        p.wheel_pushes,
        p.wheel_pops,
        p.dispatch_scans,
        p.quote_lookups,
        p.merge_folds,
        p.requests_sampled,
    );

    // One artifact, no wall-clock fields: sharded trace then the
    // controlled run's trace + timeline.
    let payload = format!("{sharded_jsonl}{control_jsonl}");
    write_artifact("BENCH_trace.jsonl", &payload);
    println!("trace bench done in {:.2} s", t0.elapsed().as_secs_f64());
}
