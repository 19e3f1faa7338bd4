//! Fleet-engine benches: the acceptance figure is the memoized hot loop
//! sustaining ≥ 100k simulated requests/second on one core (the whole
//! discrete-event simulation runs single-threaded inside `simulate`;
//! parallelism is only across replicas).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use pcnna_core::PcnnaConfig;
use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::json;

fn scenario(rate_rps: f64, horizon_s: f64, policy: Policy) -> FleetScenario {
    FleetScenario {
        classes: vec![
            NetworkClass::lenet5(0.005, 2.0),
            NetworkClass::alexnet(0.050, 1.0),
        ],
        arrival: ArrivalProcess::Poisson { rate_rps },
        policy,
        instances: vec![PcnnaConfig::default(); 4],
        horizon_s,
        queue_capacity: 1_000_000,
        ..FleetScenario::default()
    }
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);

    // One-time setup cost: quoting instances × classes.
    group.bench_function("quote_table/4x2", |b| {
        let s = scenario(10_000.0, 0.1, Policy::Fifo);
        b.iter(|| s.quote_table().unwrap())
    });

    // The headline: simulated requests per wall-clock second. ~50k
    // requests per simulate() call at this rate/horizon.
    for policy in [
        Policy::Fifo,
        Policy::EarliestDeadlineFirst,
        Policy::NetworkAffinity,
    ] {
        let s = scenario(50_000.0, 1.0, policy);
        let completed = s.simulate().unwrap().completed;
        group.throughput(Throughput::Elements(completed));
        group.bench_with_input(
            BenchmarkId::new("simulate_50k", format!("{policy:?}")),
            &s,
            |b, s| b.iter(|| s.simulate().unwrap()),
        );
    }

    // Arrival-process shapes at a fixed policy.
    for (label, arrival) in [
        ("poisson", ArrivalProcess::Poisson { rate_rps: 50_000.0 }),
        (
            "mmpp",
            ArrivalProcess::Mmpp {
                low_rps: 10_000.0,
                high_rps: 90_000.0,
                dwell_low_s: 0.05,
                dwell_high_s: 0.05,
            },
        ),
        (
            "diurnal",
            ArrivalProcess::Diurnal {
                base_rps: 10_000.0,
                peak_rps: 90_000.0,
                period_s: 0.5,
            },
        ),
    ] {
        let s = FleetScenario {
            arrival,
            ..scenario(50_000.0, 1.0, Policy::NetworkAffinity)
        };
        let completed = s.simulate().unwrap().completed;
        group.throughput(Throughput::Elements(completed));
        group.bench_with_input(BenchmarkId::new("arrival", label), &s, |b, s| {
            b.iter(|| s.simulate().unwrap())
        });
    }

    group.finish();
}

/// Emits `BENCH_fleet.json` — the machine-readable record CI uploads
/// alongside the criterion output (one timed headline run: simulated
/// requests per wall-clock second on the 50k-rps affinity scenario).
fn write_record() {
    let s = scenario(50_000.0, 1.0, Policy::NetworkAffinity);
    let warm = s.simulate().unwrap();
    let t = std::time::Instant::now();
    let r = s.simulate().unwrap();
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(warm.completed, r.completed, "same seed must reproduce");
    let sim_rps = if elapsed > 0.0 {
        r.completed as f64 / elapsed
    } else {
        0.0
    };
    let record = json::obj([
        ("bench", json::str("fleet")),
        ("scenario_rate_rps", json::int(50_000)),
        ("horizon_s", json::num(1.0)),
        ("policy", json::str("NetworkAffinity")),
        ("completed", json::int(r.completed)),
        ("elapsed_s", json::num(elapsed)),
        ("sim_requests_per_s", json::num(sim_rps)),
        ("slo_attainment", json::num(r.slo_attainment)),
    ]);
    let json = record.render() + "\n";
    // cargo runs benches with CWD = the package dir; pin the record to
    // the workspace root where the other BENCH_*.json records live
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote BENCH_fleet.json ({sim_rps:.0} sim req/s)"),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }
}

criterion_group!(benches, bench_fleet);

fn main() {
    benches();
    write_record();
}
