//! Thread-parallel replication.
//!
//! The container building this workspace cannot fetch rayon, so this
//! module provides the one parallel primitive the fleet needs — an ordered
//! parallel map over `std::thread::scope` — and builds seed/shard
//! replication on top of it. Swapping rayon in later is a local change
//! (`par_map_slice` ≈ `par_iter().map().collect()`).

use crate::engine::{merge, FleetScenario};
use crate::metrics::FleetReport;
use crate::telemetry::NullSink;
use crate::Result;

/// Ordered parallel map over a slice of `Copy` items: applies `f` to
/// every item on a pool of `threads` OS threads (capped by the item
/// count), preserving input order in the output. The caller keeps
/// ownership of `items`, so an iterated search can refill one warm
/// buffer per batch instead of building a fresh `Vec` every time.
pub fn par_map_slice<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Copy + Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().map(|&item| f(item)).collect();
    }

    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    {
        // Static round-robin sharding (no stealing): item i is owned by
        // worker i % threads. Good enough for seed replication and grid
        // blocks, where per-item cost is roughly uniform.
        let mut shards: Vec<Vec<(T, &mut Option<U>)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (&item, slot)) in items.iter().zip(slots.iter_mut()).enumerate() {
            shards[i % threads].push((item, slot));
        }
        std::thread::scope(|scope| {
            for shard in shards {
                scope.spawn(|| {
                    for (item, slot) in shard {
                        *slot = Some(f(item));
                    }
                });
            }
        });
    }
    // The scope joined every worker, each of which filled all its slots
    // (a worker's panic re-raises when the scope ends).
    #[allow(clippy::expect_used)]
    let out = slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect();
    out
}

/// Runs `scenario` once per seed, in parallel, returning the reports in
/// seed order — rebuilt on the shard infrastructure: each replica runs
/// the **sharded engine** sequentially
/// ([`FleetScenario::simulate_sharded`] at one shard worker), so
/// the replica semantics are exactly the sharded semantics at any shard
/// count (the `shards = 1` oracle), chaos fault timelines included, and
/// the worker pool spends its parallelism across replicas — the right
/// grain for replication, where replicas outnumber cores. Replicas share
/// the borrowed scenario and override only the seed — no per-replica deep
/// copy of the classes' layer stacks. Quotes are recomputed per replica
/// (cheap — identical configs quote once — and this keeps replicas fully
/// independent).
///
/// # Errors
///
/// Returns the first replica failure (validation or quoting).
pub fn simulate_replicated(scenario: &FleetScenario, seeds: &[u64]) -> Result<Vec<FleetReport>> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let runs: Vec<Result<FleetReport>> = par_map_slice(seeds, threads, |seed| {
        let (outcomes, _) = scenario.sharded_outcomes(seed, 1, 1, |_| NullSink)?;
        Ok(merge::assemble(scenario, &outcomes))
    });
    runs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, NetworkClass};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..100).collect();
        let out = par_map_slice(&items, 8, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_thread_fallback() {
        let out = par_map_slice(&[1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn replicas_differ_by_seed_but_are_deterministic() {
        let scenario = FleetScenario {
            classes: vec![NetworkClass::lenet5(0.010, 1.0)],
            arrival: ArrivalProcess::Poisson { rate_rps: 5000.0 },
            horizon_s: 0.1,
            ..FleetScenario::default()
        };
        let a = simulate_replicated(&scenario, &[1, 2, 3]).unwrap();
        let b = simulate_replicated(&scenario, &[1, 2, 3]).unwrap();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.offered, y.offered, "same seed must reproduce");
            assert_eq!(x.latency, y.latency);
        }
        assert!(
            a[0].offered != a[1].offered || a[0].latency != a[1].latency,
            "different seeds should differ"
        );
    }
}
