//! Perf-trajectory harness: pins the workspace's three hot paths to fixed
//! workloads, times them, and emits `BENCH_perf.json` — the machine-readable
//! record every perf-minded PR appends to (see `PERF.md` for the protocol).
//!
//! Run with `cargo run --release --bin perf -- --quick` (CI smoke) or with
//! no flag for the full-length run. `--check` additionally compares the
//! fresh numbers against the frozen `BASELINE_*` constants below (the
//! same numbers every emitted `BENCH_perf.json` records in its
//! `baseline` field) and exits nonzero on a >30% regression of any hot
//! path.
//!
//! The three hot paths:
//!
//! * **fleet** — one `FleetScenario::simulate` call (50k req/s Poisson,
//!   mixed AlexNet+LeNet traffic, 4 instances, network affinity), scored
//!   as simulated requests completed per wall-clock second. On a
//!   multi-core host `simulate()` draws its arrivals on a second thread.
//! * **dse** — a single-threaded AlexNet grid sweep over the full
//!   3 888-point `DesignSpace`, scored as candidate evaluations per second
//!   (single-threaded so the number tracks the evaluator, not the box's
//!   core count).
//! * **conv** — the blocked im2col/GEMM reference kernel on an
//!   AlexNet-conv3-shaped layer, scored in GFLOP/s.
//!
//! Plus the fleet-scale segment (`mega_fleet`, see `PERF.md`):
//!
//! * **mega_fleet** — a 1k-instance, 16-class fleet near saturation,
//!   run twice: once on the whole-fleet **single-shard engine**
//!   (`simulate()`: one global event loop over one 1k-instance cell,
//!   its arrivals drawn on a second thread on a multi-core host)
//!   and once on the **sharded engine** at 8 shards × 8 threads
//!   (16 cells of ~64 instances each, on at most the host's cores, the
//!   calling thread drawing each window's arrivals and serving cells
//!   beside the threads it spawns). `speedup` is sharded over
//!   single-shard; the harness also asserts the sharded report is
//!   **bit-identical** to its own shards = 1 oracle and records the
//!   verdict in `bit_identical_s1`. The sharded leg takes twice the
//!   best-of draws of the other legs, so its planet-scale floor gate
//!   sees a deep pool. A 10k-instance × ~1M-request datacenter leg is timed once
//!   (sharded) and recorded as `ten_k_wall_s`, and a **100k-instance
//!   planet-scale leg** exercises the streaming arrival path (the
//!   driver holds two windows of 8 192 arrivals, never the horizon's
//!   stream), recording wall time, its own peak RSS,
//!   and its shards = 1 bit-identity verdict. Flags `--mega-shards N` /
//!   `--mega-threads N` override the matrix leg CI fans out over.

use pcnna_bench::report::write_artifact;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::reference;
use pcnna_cnn::workload::Workload;
use pcnna_core::PcnnaConfig;
use pcnna_dse::prelude::*;
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};
use std::time::Instant;

/// Pre-PR hot-path numbers, measured with this same harness (quick mode,
/// three runs averaged) against the code as it stood before the
/// allocation-free rework: per-class latency `Vec`s + report-time sort in
/// the fleet engine, Debug-rendering fingerprints + per-layer model
/// rebuilds in the dse evaluator, and the unblocked single-row im2col
/// GEMM. Frozen when the measurement harness landed; see `PERF.md`
/// before editing.
const BASELINE_FLEET_REQ_PER_S: f64 = 6_650_000.0;
const BASELINE_DSE_EVALS_PER_S: f64 = 44_400.0;
const BASELINE_CONV_GFLOP_S: f64 = 11.1;

/// Pre-PR sharded mega-fleet rate (flat plan, 8×8, this harness) — the
/// floor the planet-scale rework is measured against. The `--check`
/// gate demands ≥ 70% of 4× this figure; the committed
/// `BENCH_perf.json` records the full ≥ 4× number.
const BASELINE_MEGA_SHARDED_REQ_PER_S: f64 = 2_067_964.0;
const MEGA_SPEEDUP_TARGET: f64 = 4.0;

struct Measurement {
    fleet_req_per_s: f64,
    fleet_completed: u64,
    dse_evals_per_s: f64,
    dse_evaluated: u64,
    conv_gflop_s: f64,
    telemetry: TelemetryMeasurement,
    accuracy: AccuracyMeasurement,
    mega: MegaMeasurement,
}

/// Accuracy-aware dispatch overhead on the fleet workload: the same
/// scenario with per-class top-1 floors and `accuracy_routing` on —
/// the full quote → effective-bits → proxy top-1 path runs for every
/// (class, instance) pair, and the dispatcher consults the
/// serviceability ledger on every placement. Floors sit below the
/// pristine quotes, so the workload served is identical and the ratio
/// isolates the bookkeeping cost.
struct AccuracyMeasurement {
    plain_req_per_s: f64,
    accuracy_req_per_s: f64,
    /// `accuracy / plain`: ≥ 0.90 means the path adds < 10% overhead.
    ratio: f64,
}

/// Enabled-vs-disabled telemetry overhead on the fleet workload (see
/// `PERF.md` for the protocol). `disabled` runs the sharded engine with
/// the zero-sized `NullSink` — the path every production caller takes —
/// and `traced` the same scenario with a default-stride `TracingSink`.
struct TelemetryMeasurement {
    disabled_req_per_s: f64,
    traced_req_per_s: f64,
    /// `disabled / traced`: how many × slower full tracing runs.
    overhead: f64,
    events_recorded: u64,
}

struct MegaMeasurement {
    instances: usize,
    classes: usize,
    completed: u64,
    mono_req_per_s: f64,
    sharded_req_per_s: f64,
    shards: usize,
    threads: usize,
    speedup: f64,
    bit_identical_s1: bool,
    ten_k_wall_s: f64,
    ten_k_completed: u64,
    /// The planet-scale leg: 100k instances × ~1M requests, streamed
    /// (arrivals are never materialized), timed once, byte-compared to
    /// its own shards = 1 oracle, with the leg's peak RSS recorded.
    hundred_k_completed: u64,
    hundred_k_wall_s: f64,
    hundred_k_bit_identical_s1: bool,
    hundred_k_peak_rss_bytes: u64,
}

fn fleet_scenario(horizon_s: f64) -> FleetScenario {
    FleetScenario {
        classes: vec![
            NetworkClass::lenet5(0.005, 2.0),
            NetworkClass::alexnet(0.050, 1.0),
        ],
        arrival: ArrivalProcess::Poisson { rate_rps: 50_000.0 },
        policy: Policy::NetworkAffinity,
        instances: vec![PcnnaConfig::default(); 4],
        horizon_s,
        queue_capacity: 1_000_000,
        ..FleetScenario::default()
    }
}

/// The mega-fleet workload: a 1k-instance (or 10k-instance) fleet of
/// default configs serving 16 light traffic classes with staggered
/// SLOs, loaded near saturation so dispatch — not idle time — dominates.
/// 16 classes ⇒ the shard plan builds 16 cells; the single-shard engine
/// runs the same workload as one global event loop.
fn mega_scenario(n_instances: usize, rate_rps: f64, horizon_s: f64) -> FleetScenario {
    let classes = (0..16)
        .map(|i| NetworkClass::lenet5(0.002 + 0.001 * i as f64, 1.0))
        .collect();
    FleetScenario {
        classes,
        arrival: ArrivalProcess::Poisson { rate_rps },
        policy: Policy::NetworkAffinity,
        instances: vec![PcnnaConfig::default(); n_instances],
        max_batch: 32,
        queue_capacity: 1_000_000,
        horizon_s,
        seed: 42,
        ..FleetScenario::default()
    }
}

fn measure_mega(quick: bool, shards: usize, threads: usize) -> MegaMeasurement {
    // More best-of draws than the small segments: the mega legs are
    // short (~0.1-0.25 s each), so co-tenant noise dominates any single
    // draw and the best-of estimator needs a deeper pool to converge.
    let segments = if quick { 3 } else { 6 };
    // ~1M requests against 1k instances near saturation.
    let scenario = mega_scenario(1_000, 10_000_000.0, if quick { 0.1 } else { 0.2 });
    // Bit-identity first (also warms up both paths): the sharded run
    // must reproduce its shards = 1 oracle exactly.
    let oracle = scenario.simulate_sharded(1, 1).expect("valid scenario");
    let sharded_once = scenario
        .simulate_sharded(shards, threads)
        .expect("valid scenario");
    let bit_identical_s1 = oracle == sharded_once;
    let completed = sharded_once.completed;
    let (mono_req_per_s, _) = best_rate(segments, || scenario.simulate().expect("valid").completed);
    // Twice the draws: the planet-scale floor gate reads this one rate.
    let (sharded_req_per_s, _) = best_rate(2 * segments, || {
        scenario
            .simulate_sharded(shards, threads)
            .expect("valid")
            .completed
    });
    // The datacenter leg: 10k instances × ~1M requests, sharded, timed
    // once — the scenario the single-shard engine made impractical.
    let ten_k = mega_scenario(10_000, 10_000_000.0, 0.1);
    let t0 = Instant::now();
    let ten_k_report = ten_k.simulate_sharded(shards, threads).expect("valid");
    let ten_k_wall_s = t0.elapsed().as_secs_f64();
    // The planet-scale leg: 100k instances, arrivals streamed from the
    // generator in windows (never materialized), so the leg's memory is
    // instance state — not the horizon's request count. Peak RSS is
    // reset (where the kernel allows) and re-read around the leg.
    let hundred_k = mega_scenario(100_000, 10_000_000.0, 0.1);
    reset_peak_rss();
    let t0 = Instant::now();
    let hundred_k_report = hundred_k.simulate_sharded(shards, threads).expect("valid");
    let hundred_k_wall_s = t0.elapsed().as_secs_f64();
    let hundred_k_peak_rss_bytes = peak_rss_bytes();
    let hundred_k_oracle = hundred_k.simulate_sharded(1, 1).expect("valid");
    let hundred_k_bit_identical_s1 = hundred_k_oracle == hundred_k_report;
    MegaMeasurement {
        instances: 1_000,
        classes: 16,
        completed,
        mono_req_per_s,
        sharded_req_per_s,
        shards,
        threads,
        speedup: sharded_req_per_s / mono_req_per_s.max(1e-9),
        bit_identical_s1,
        ten_k_wall_s,
        ten_k_completed: ten_k_report.completed,
        hundred_k_completed: hundred_k_report.completed,
        hundred_k_wall_s,
        hundred_k_bit_identical_s1,
        hundred_k_peak_rss_bytes,
    }
}

/// Times `f` (which returns the work it did, in events) `segments` times
/// and reports the **best** events/second segment. Best-of-N is the
/// standard de-noising for shared machines: co-tenant interference only
/// ever slows a segment down, so the fastest segment is the closest
/// estimate of what the code can actually do.
fn best_rate(segments: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut total_work = 0u64;
    for _ in 0..segments {
        let t0 = Instant::now();
        let work = f();
        let dt = t0.elapsed().as_secs_f64();
        total_work += work;
        if dt > 0.0 {
            best = best.max(work as f64 / dt);
        }
    }
    (best, total_work)
}

fn measure(quick: bool, mega_shards: usize, mega_threads: usize) -> Measurement {
    let segments = if quick { 3 } else { 5 };

    // --- fleet ------------------------------------------------------
    let scenario = fleet_scenario(if quick { 1.0 } else { 4.0 });
    scenario.simulate().expect("valid scenario"); // warm-up
    let (fleet_req_per_s, fleet_completed) = best_rate(segments, || {
        scenario.simulate().expect("valid scenario").completed
    });

    // --- telemetry overhead ----------------------------------------
    // Same workload, sharded engine at (1, 1): the NullSink path must
    // monomorphize to the untraced engine (`--check` gates the ratio),
    // and the traced path's cost is recorded so PRs that touch the
    // sink hooks leave a measured trail.
    let tcfg = TraceConfig::default();
    let (disabled_req_per_s, _) = best_rate(segments, || {
        scenario.simulate_sharded(1, 1).expect("valid").completed
    });
    let mut events_recorded = 0u64;
    let (traced_req_per_s, _) = best_rate(segments, || {
        let (report, trace) = scenario
            .simulate_sharded_traced(1, 1, &tcfg)
            .expect("valid");
        events_recorded = trace.profile.events_recorded;
        report.completed
    });
    let telemetry = TelemetryMeasurement {
        disabled_req_per_s,
        traced_req_per_s,
        overhead: disabled_req_per_s / traced_req_per_s.max(1e-9),
        events_recorded,
    };

    // --- accuracy-aware dispatch overhead --------------------------
    // Same fleet workload with floors under every pristine quote
    // (lenet5 ≥ 0.5, alexnet ≥ 0.85 against 0.885+ quoted) and routing
    // on: nothing is refused, so plain and accuracy runs serve the same
    // traffic and the ratio is pure accuracy-bookkeeping cost.
    let accuracy_scenario = FleetScenario {
        classes: vec![
            NetworkClass::lenet5(0.005, 2.0).with_min_accuracy(0.5),
            NetworkClass::alexnet(0.050, 1.0).with_min_accuracy(0.85),
        ],
        accuracy_routing: true,
        ..fleet_scenario(if quick { 1.0 } else { 4.0 })
    };
    accuracy_scenario.simulate().expect("valid scenario"); // warm-up
    let (accuracy_req_per_s, accuracy_completed) = best_rate(segments, || {
        accuracy_scenario
            .simulate()
            .expect("valid scenario")
            .completed
    });
    assert_eq!(
        accuracy_completed, fleet_completed,
        "floors below the pristine quotes must not change the traffic served"
    );
    let accuracy = AccuracyMeasurement {
        plain_req_per_s: fleet_req_per_s,
        accuracy_req_per_s,
        ratio: accuracy_req_per_s / fleet_req_per_s.max(1e-9),
    };

    // --- dse --------------------------------------------------------
    let space = DesignSpace::default();
    let ev = Evaluator::alexnet();
    let (dse_evals_per_s, dse_evaluated) = best_rate(segments, || {
        grid_sweep(&space, &ev, 1)
            .expect("valid space")
            .stats
            .evaluated
    });

    // --- conv -------------------------------------------------------
    // AlexNet conv3 shape: 13×13 input, 3×3 kernels, 256→384 maps.
    let g = ConvGeometry::new(13, 3, 1, 1, 256, 384).expect("valid geometry");
    let wl = Workload::gaussian(&g, 7);
    let o = g.output_side();
    let flops = 2.0 * (g.kernels() * g.n_kernel() as usize * o * o) as f64;
    let conv_reps = if quick { 5 } else { 10 };
    let mut scratch = reference::ConvScratch::new();
    reference::conv2d_im2col_scratch(&g, &wl.input, &wl.kernels, &mut scratch).unwrap(); // warm-up
    let (conv_flop_s, _) = best_rate(segments, || {
        for _ in 0..conv_reps {
            reference::conv2d_im2col_scratch(&g, &wl.input, &wl.kernels, &mut scratch).unwrap();
            std::hint::black_box(scratch.output());
        }
        (flops * conv_reps as f64) as u64
    });

    Measurement {
        fleet_req_per_s,
        fleet_completed,
        dse_evals_per_s,
        dse_evaluated,
        conv_gflop_s: conv_flop_s / 1e9,
        telemetry,
        accuracy,
        mega: measure_mega(quick, mega_shards, mega_threads),
    }
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) so a
/// subsequent [`peak_rss_bytes`] read isolates one leg. Writing `5` to
/// `/proc/self/clear_refs` is the documented Linux mechanism; where it
/// is unavailable (non-Linux, restricted containers) the read simply
/// stays a conservative whole-process peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size, bytes, from `/proc/self/status` (`VmHWM`).
/// Returns 0 where procfs is unavailable (non-Linux).
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Parses `--flag <n>` from the argument list. A present flag with a
/// missing or unparseable value is a hard error — a CI matrix leg that
/// silently fell back to the default would measure (and upload an
/// artifact for) a configuration its name does not claim.
fn flag_value(args: &[String], flag: &str, default: usize) -> usize {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return default;
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs an integer ≥ 1");
            std::process::exit(2);
        })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let mega_shards = flag_value(&args, "--mega-shards", 8);
    let mega_threads = flag_value(&args, "--mega-threads", 8);

    let m = measure(quick, mega_shards, mega_threads);
    let rss = peak_rss_bytes();

    println!(
        "fleet: {:.0} simulated req/s ({} completed)",
        m.fleet_req_per_s, m.fleet_completed
    );
    println!(
        "dse:   {:.0} evals/s ({} evaluated, 1 thread)",
        m.dse_evals_per_s, m.dse_evaluated
    );
    println!("conv:  {:.2} GFLOP/s (blocked im2col)", m.conv_gflop_s);
    println!(
        "telemetry: NullSink {:.0} req/s, traced {:.0} req/s \
         ({:.2}× overhead, {} events at default stride)",
        m.telemetry.disabled_req_per_s,
        m.telemetry.traced_req_per_s,
        m.telemetry.overhead,
        m.telemetry.events_recorded,
    );
    println!(
        "accuracy: plain {:.0} req/s, floors+routing {:.0} req/s (ratio {:.3})",
        m.accuracy.plain_req_per_s, m.accuracy.accuracy_req_per_s, m.accuracy.ratio,
    );
    let mega = &m.mega;
    println!(
        "mega_fleet: {} instances × {} classes, {} requests — \
         single-shard {:.2}M req/s, sharded({}×{}t) {:.2}M req/s, \
         speedup {:.2}×, bit-identical to S=1: {}",
        mega.instances,
        mega.classes,
        mega.completed,
        mega.mono_req_per_s / 1e6,
        mega.shards,
        mega.threads,
        mega.sharded_req_per_s / 1e6,
        mega.speedup,
        mega.bit_identical_s1,
    );
    println!(
        "mega_fleet 10k-instance leg: {} requests in {:.2} s (sharded)",
        mega.ten_k_completed, mega.ten_k_wall_s
    );
    println!(
        "mega_fleet 100k-instance leg: {} requests in {:.2} s (streamed, \
         peak RSS {:.1} MiB, bit-identical to S=1: {})",
        mega.hundred_k_completed,
        mega.hundred_k_wall_s,
        mega.hundred_k_peak_rss_bytes as f64 / (1024.0 * 1024.0),
        mega.hundred_k_bit_identical_s1,
    );
    println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));

    let (t, acc) = (&m.telemetry, &m.accuracy);
    let telemetry = json::obj([
        ("disabled_req_per_s", json::num(t.disabled_req_per_s)),
        ("traced_req_per_s", json::num(t.traced_req_per_s)),
        ("overhead", json::num(t.overhead)),
        ("events_recorded", json::int(t.events_recorded)),
    ]);
    let accuracy = json::obj([
        ("plain_req_per_s", json::num(acc.plain_req_per_s)),
        ("accuracy_req_per_s", json::num(acc.accuracy_req_per_s)),
        ("ratio", json::num(acc.ratio)),
    ]);
    let mega_fleet = json::obj([
        ("instances", json::uint(mega.instances)),
        ("classes", json::uint(mega.classes)),
        ("completed", json::int(mega.completed)),
        ("mono_req_per_s", json::num(mega.mono_req_per_s)),
        ("sharded_req_per_s", json::num(mega.sharded_req_per_s)),
        ("shards", json::uint(mega.shards)),
        ("threads", json::uint(mega.threads)),
        ("speedup", json::num(mega.speedup)),
        ("bit_identical_s1", Json::Bool(mega.bit_identical_s1)),
        ("ten_k_completed", json::int(mega.ten_k_completed)),
        ("ten_k_wall_s", json::num(mega.ten_k_wall_s)),
        ("hundred_k_completed", json::int(mega.hundred_k_completed)),
        ("hundred_k_wall_s", json::num(mega.hundred_k_wall_s)),
        (
            "hundred_k_bit_identical_s1",
            Json::Bool(mega.hundred_k_bit_identical_s1),
        ),
        (
            "hundred_k_peak_rss_bytes",
            json::int(mega.hundred_k_peak_rss_bytes),
        ),
    ]);
    let baseline = json::obj([
        ("fleet_req_per_s", json::num(BASELINE_FLEET_REQ_PER_S)),
        ("dse_evals_per_s", json::num(BASELINE_DSE_EVALS_PER_S)),
        ("conv_gflop_s", json::num(BASELINE_CONV_GFLOP_S)),
        (
            "mega_sharded_req_per_s",
            json::num(BASELINE_MEGA_SHARDED_REQ_PER_S),
        ),
    ]);
    let speedup = |fresh: f64, base: f64| json::num(fresh / base.max(1e-9));
    let record = json::obj([
        ("bench", json::str("perf")),
        ("mode", json::str(if quick { "quick" } else { "full" })),
        ("fleet_req_per_s", json::num(m.fleet_req_per_s)),
        ("dse_evals_per_s", json::num(m.dse_evals_per_s)),
        ("conv_gflop_s", json::num(m.conv_gflop_s)),
        ("peak_rss_bytes", json::int(rss)),
        ("telemetry", telemetry),
        ("accuracy", accuracy),
        ("mega_fleet", mega_fleet),
        ("baseline", baseline),
        (
            "speedup",
            json::obj([
                (
                    "fleet",
                    speedup(m.fleet_req_per_s, BASELINE_FLEET_REQ_PER_S),
                ),
                ("dse", speedup(m.dse_evals_per_s, BASELINE_DSE_EVALS_PER_S)),
                ("conv", speedup(m.conv_gflop_s, BASELINE_CONV_GFLOP_S)),
            ]),
        ),
    ]);
    write_artifact("BENCH_perf.json", &(record.render() + "\n"));

    if check {
        let mut failed = false;
        for (label, fresh, floor) in [
            ("fleet", m.fleet_req_per_s, BASELINE_FLEET_REQ_PER_S),
            ("dse", m.dse_evals_per_s, BASELINE_DSE_EVALS_PER_S),
            ("conv", m.conv_gflop_s, BASELINE_CONV_GFLOP_S),
        ] {
            // The gate: no hot path may fall below 70% of the checked-in
            // baseline (the pre-PR numbers this PR's speedups are vs).
            if fresh < 0.70 * floor {
                eprintln!("REGRESSION: {label} at {fresh:.0} < 70% of baseline {floor:.0}");
                failed = true;
            }
        }
        // The telemetry gate: the NullSink sharded path must stay inside
        // the same 30% envelope as the other hot paths — if the disabled
        // sink stops monomorphizing away (a hook that isn't
        // `if S::ENABLED`-guarded, a sink field that stops being
        // zero-sized), this is where it shows up. Gated against the
        // frozen fleet baseline: the sharded (1, 1) run of this workload
        // matched it when the telemetry layer landed.
        if m.telemetry.disabled_req_per_s < 0.70 * BASELINE_FLEET_REQ_PER_S {
            eprintln!(
                "REGRESSION: NullSink sharded path at {:.0} req/s < 70% of the \
                 fleet baseline ({BASELINE_FLEET_REQ_PER_S:.0} req/s) — the \
                 disabled sink is no longer free",
                m.telemetry.disabled_req_per_s
            );
            failed = true;
        }
        // The accuracy gate: floors + routing on a healthy fleet must
        // cost < 10% of the plain dispatch rate. Quotes are memoized
        // per (class, instance) health epoch, so the steady-state cost
        // is one ledger lookup per placement — if the ratio drops, a
        // quote stopped being cached or the dispatch scan grew.
        if m.accuracy.ratio < 0.90 {
            eprintln!(
                "REGRESSION: accuracy-aware dispatch at {:.3}× of the plain \
                 fleet rate (floor 0.90) — the accuracy path is no longer \
                 amortized",
                m.accuracy.ratio
            );
            failed = true;
        }
        // The mega gates: determinism is binary (any divergence fails);
        // the speedup floor is 70% of the 3× target. Both legs run the
        // same engine with the same row-bitset placement, so the ratio
        // measures what cell locality buys over one 1k-instance cell
        // (one bitset word and a ~62-deep event heap per cell instead
        // of 16 words and a fleet-deep heap) times thread parallelism;
        // the locality part is core-count independent, so it must
        // survive slower CI hardware. Per-event engine speedups lift
        // both legs and can lower the ratio, as does the arrival producer
        // thread the single-shard leg gets on a multi-core host. The
        // multi-worker sharded leg draws each window on its calling
        // thread, which then serves cells beside the threads it spawned,
        // so its thread speedup is in the ratio too. The committed
        // BENCH_perf.json records the full-mode ≥3× figure.
        if !mega.bit_identical_s1 {
            eprintln!("REGRESSION: sharded mega_fleet report diverged from its shards=1 oracle");
            failed = true;
        }
        if !mega.hundred_k_bit_identical_s1 {
            eprintln!(
                "REGRESSION: 100k-instance mega_fleet report diverged from its \
                 shards=1 oracle"
            );
            failed = true;
        }
        if mega.speedup < 0.70 * 3.0 {
            eprintln!(
                "REGRESSION: mega_fleet speedup {:.2}× < 70% of the 3× target",
                mega.speedup
            );
            failed = true;
        }
        // The planet-scale throughput floor: the SoA rework is gated at
        // 70% of 4× the pre-rework sharded rate (same 30% CI-noise
        // envelope as every other gate; the committed BENCH_perf.json
        // records the full ≥ 4× figure). The sharded leg's best-of pool
        // is twice the usual depth, so this one rate sees as many draws
        // as the gate ever did.
        let mega_floor = 0.70 * MEGA_SPEEDUP_TARGET * BASELINE_MEGA_SHARDED_REQ_PER_S;
        if mega.sharded_req_per_s < mega_floor {
            eprintln!(
                "REGRESSION: mega_fleet sharded at {:.0} req/s < 70% of \
                 {MEGA_SPEEDUP_TARGET}× the pre-rework rate \
                 ({BASELINE_MEGA_SHARDED_REQ_PER_S:.0} req/s)",
                mega.sharded_req_per_s
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("perf check passed (hot paths within 30% of baseline; mega_fleet deterministic)");
    }
}
