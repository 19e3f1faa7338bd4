//! Design-space exploration harness (beyond the paper): sweeps the full
//! `PcnnaConfig` × `SpectralBudget` knob grid for two zoo networks, prints
//! the Pareto frontiers, demonstrates seeded-search determinism, and closes
//! the loop with a fleet co-design ranking — run with
//! `cargo run --release --bin dse` (add `--smoke` for the CI-sized grid).
//!
//! Emits `BENCH_dse.json`: the search counters, frontier sizes and the
//! co-design ranking, free of wall-clock figures and thread counts, so the
//! smoke record is a golden copy CI diffs byte for byte. Timings and
//! throughput go to stdout only.

use pcnna_bench::report::write_artifact;
use pcnna_dse::prelude::*;
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json::{self, Json};
use std::time::Instant;

fn print_frontier(frontier: &ParetoFrontier, limit: usize) {
    println!(
        "  {:<10} {:>5} {:>5} {:>5} {:>6} {:>6} {:>7} {:>7} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "design",
        "ndac",
        "nadc",
        "bits",
        "clock",
        "alloc",
        "spc GHz",
        "rad µm",
        "lat ms",
        "energy mJ",
        "area mm²",
        "snr dB",
        "passes"
    );
    for e in frontier.sorted_by_latency().iter().take(limit) {
        let c = &e.candidate;
        let p = &e.point;
        println!(
            "  {:<10} {:>5} {:>5} {:>5} {:>6.1} {:>6} {:>7.0} {:>7.1} {:>10.4} {:>10.3} {:>9.1} {:>8.1} {:>7}",
            format!("{:08x}", (p.fingerprint >> 32) as u32),
            c.config.n_input_dacs,
            c.config.n_adcs,
            c.config.adc.bits,
            c.config.fast_clock.frequency_hz() / 1e9,
            c.config.allocation.label(),
            c.budget.channel_spacing_hz / 1e9,
            c.budget.ring_radius_m * 1e6,
            1e3 * p.latency_s,
            1e3 * p.energy_j,
            p.area_mm2,
            p.snr_headroom_db,
            p.spectral_passes,
        );
    }
    if frontier.len() > limit {
        println!(
            "  … and {} more non-dominated designs",
            frontier.len() - limit
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = default_threads();
    let space = if smoke {
        DesignSpace::smoke()
    } else {
        DesignSpace::default()
    };
    println!(
        "design space: {} points × 2 networks ({} threads, {} mode)",
        space
            .cardinality()
            .expect("the smoke and default grids are small"),
        threads,
        if smoke { "smoke" } else { "full" }
    );
    println!();

    // --- exhaustive grid sweep, two zoo networks ---------------------
    let t0 = Instant::now();
    let mut total_stats = SearchStats::default();
    let mut network_lines = Vec::new();
    let mut alexnet_frontier = None;
    for evaluator in [Evaluator::alexnet(), Evaluator::vgg16()] {
        let t = Instant::now();
        let out = grid_sweep(&space, &evaluator, threads).expect("space is valid");
        let dt = t.elapsed().as_secs_f64();
        println!(
            "== {} == {} evaluated ({} valid, {} infeasible) in {:.2} s → {} Pareto designs",
            evaluator.workload(),
            out.stats.evaluated,
            out.stats.valid,
            out.stats.invalid,
            dt,
            out.frontier.len()
        );
        print_frontier(&out.frontier, 10);
        println!();
        total_stats.evaluated += out.stats.evaluated;
        total_stats.valid += out.stats.valid;
        total_stats.invalid += out.stats.invalid;
        total_stats.cache_hits += out.stats.cache_hits;
        network_lines.push(json::obj([
            ("name", json::str(evaluator.workload())),
            ("evaluated", json::int(out.stats.evaluated)),
            ("valid", json::int(out.stats.valid)),
            ("cache_hits", json::int(out.stats.cache_hits)),
            ("frontier", json::uint(out.frontier.len())),
        ]));
        if evaluator.workload() == "alexnet" {
            alexnet_frontier = Some(out.frontier);
        }
    }
    let sweep_elapsed = t0.elapsed().as_secs_f64();

    // --- seeded evolutionary search: determinism check ---------------
    let evo_cfg = EvolutionConfig {
        population: if smoke { 16 } else { 64 },
        generations: if smoke { 3 } else { 10 },
        seed: 42,
        threads,
        ..EvolutionConfig::default()
    };
    let ev = Evaluator::alexnet();
    let a = evolve(&space, &ev, &evo_cfg).expect("space is valid");
    let b = evolve(&space, &ev, &evo_cfg).expect("space is valid");
    let deterministic = a.frontier == b.frontier;
    assert!(
        deterministic,
        "seed {} must reproduce the frontier",
        evo_cfg.seed
    );
    println!(
        "evolutionary search (seed {}): {} evaluations ({} cache hits) → {} Pareto designs; \
         repeat run identical: {}",
        evo_cfg.seed,
        a.stats.evaluated,
        a.stats.cache_hits,
        a.frontier.len(),
        deterministic
    );
    println!();

    // --- fleet co-design over the AlexNet frontier -------------------
    let frontier = alexnet_frontier.expect("alexnet swept above");
    let codesign_cfg = CodesignConfig {
        top_k: 4,
        fleet_size: 4,
        arrival: ArrivalProcess::Poisson {
            rate_rps: if smoke { 4_000.0 } else { 20_000.0 },
        },
        horizon_s: if smoke { 0.05 } else { 0.5 },
        ..CodesignConfig::default()
    };
    let classes = vec![
        NetworkClass::alexnet(0.004, 1.0),
        NetworkClass::lenet5(0.0005, 3.0),
    ];
    let rows = co_design(&frontier, &classes, &codesign_cfg).expect("frontier is non-empty");
    println!(
        "fleet co-design: {} fleets of {} instances, {:.0} req/s mixed AlexNet+LeNet traffic",
        rows.len(),
        codesign_cfg.fleet_size,
        match codesign_cfg.arrival {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            _ => 0.0,
        }
    );
    println!(
        "  {:<18} {:>8} {:>9} {:>12} {:>10} {:>9} {:>9}",
        "fleet", "SLO %", "watts", "SLO%/watt", "thpt r/s", "p99 ms", "mJ/req"
    );
    for r in &rows {
        println!(
            "  {:<18} {:>8.2} {:>9.1} {:>12.5} {:>10.0} {:>9.3} {:>9.3}{}",
            r.label,
            100.0 * r.slo_attainment,
            r.mean_power_w,
            100.0 * r.slo_per_watt,
            r.throughput_rps,
            r.p99_ms,
            r.energy_per_request_mj,
            if r.spectrally_bound { "  *" } else { "" },
        );
    }
    if rows.iter().any(|r| r.spectrally_bound) {
        println!(
            "  * design is spectral-partition bound; serving quotes price the \
             electronic pipeline only, so these rows are optimistic"
        );
    }
    println!();

    // --- perf-trajectory record --------------------------------------
    let elapsed = t0.elapsed().as_secs_f64();
    let evals_per_s = if sweep_elapsed > 0.0 {
        total_stats.evaluated as f64 / sweep_elapsed
    } else {
        0.0
    };
    let record = json::obj([
        ("bench", json::str("dse")),
        ("mode", json::str(if smoke { "smoke" } else { "full" })),
        ("configs_evaluated", json::int(total_stats.evaluated)),
        ("valid", json::int(total_stats.valid)),
        ("invalid", json::int(total_stats.invalid)),
        ("cache_hits", json::int(total_stats.cache_hits)),
        ("networks", Json::Arr(network_lines)),
        ("evolution_frontier", json::uint(a.frontier.len())),
        ("deterministic", Json::Bool(deterministic)),
        ("codesign_fleets", json::uint(rows.len())),
        (
            "best_slo_per_watt",
            json::num(rows.first().map_or(0.0, |r| r.slo_per_watt)),
        ),
    ]);
    write_artifact("BENCH_dse.json", &(record.render() + "\n"));
    println!(
        "total: {} configs evaluated ({} valid) in {:.2} s ({:.0} evals/s)",
        total_stats.evaluated, total_stats.valid, elapsed, evals_per_s
    );
}
