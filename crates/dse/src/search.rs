//! Search drivers: exhaustive grid sweep and seeded evolutionary search.
//!
//! Both drivers evaluate candidates **in parallel** via
//! [`pcnna_fleet::par::par_map_slice`] (an ordered, order-preserving
//! thread map over warm reusable batch buffers), fold the results into a
//! [`ParetoFrontier`] **sequentially in input order**, and memoize every
//! verdict in an [`EvalCache`]. Because
//! the fold order is deterministic and all randomness flows from one
//! seeded [`StdRng`], repeated runs with the same seed produce identical
//! frontiers — across thread counts, too, since threading only changes
//! *where* an evaluation runs, never the order results are folded in.

use crate::cache::EvalCache;
use crate::objectives::Evaluator;
use crate::pareto::ParetoFrontier;
use crate::space::{Candidate, DesignSpace, KnobChoice};
use crate::{DseError, Result};
use pcnna_fleet::par::par_map_slice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Fresh (non-memoized) evaluations performed.
    pub evaluated: u64,
    /// Fresh evaluations that produced a feasible [`crate::DesignPoint`].
    pub valid: u64,
    /// Fresh evaluations that were infeasible.
    pub invalid: u64,
    /// Proposals answered from the cache (including within-batch repeats).
    pub cache_hits: u64,
}

/// The result of a search: the frontier plus run counters.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Non-dominated designs found.
    pub frontier: ParetoFrontier,
    /// Run counters.
    pub stats: SearchStats,
}

/// A sensible default worker count: every available core.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Reusable buffers for [`run_batch`]: an iterated search (the
/// evolutionary driver calls `run_batch` once per generation) clears and
/// refills these instead of reallocating the dedup set and the fresh-work
/// vector every batch.
#[derive(Debug, Default)]
struct BatchScratch {
    seen: std::collections::HashSet<u64>,
    fresh: Vec<(Candidate, u64)>,
}

/// Evaluates a batch of `(candidate, fingerprint)` pairs through the
/// cache: repeats (cached or within-batch) are answered from memory,
/// fresh designs fan out across `threads`, and every verdict folds into
/// `frontier` in batch order. Fingerprints are computed once by the
/// caller and threaded through to the evaluator.
fn run_batch(
    candidates: &[(Candidate, u64)],
    evaluator: &Evaluator,
    threads: usize,
    scratch: &mut BatchScratch,
    cache: &mut EvalCache,
    frontier: &mut ParetoFrontier,
    stats: &mut SearchStats,
) {
    scratch.seen.clear();
    scratch.fresh.clear();
    for &(cand, fp) in candidates {
        if cache.contains(fp) || !scratch.seen.insert(fp) {
            stats.cache_hits += 1;
        } else {
            scratch.fresh.push((cand, fp));
        }
    }
    let verdicts = par_map_slice(&scratch.fresh, threads, |(cand, fp)| {
        (cand, fp, evaluator.evaluate_with_fingerprint(&cand, fp))
    });
    for (cand, fp, verdict) in verdicts {
        cache.insert(fp, verdict);
        stats.evaluated += 1;
        match verdict {
            Some(point) => {
                stats.valid += 1;
                frontier.insert(cand, point);
            }
            None => stats.invalid += 1,
        }
    }
}

/// Exhaustively sweeps every grid point of `space`.
///
/// # Errors
///
/// Returns [`DseError::InvalidSpace`] for degenerate spaces.
pub fn grid_sweep(
    space: &DesignSpace,
    evaluator: &Evaluator,
    threads: usize,
) -> Result<SearchOutcome> {
    space.validate()?;
    let candidates: Vec<(Candidate, u64)> = space
        .grid_choices()
        .into_iter()
        .map(|c| {
            let cand = space.assemble(c);
            (cand, cand.fingerprint())
        })
        .collect();
    let mut scratch = BatchScratch::default();
    let mut cache = EvalCache::new();
    let mut frontier = ParetoFrontier::new();
    let mut stats = SearchStats::default();
    run_batch(
        &candidates,
        evaluator,
        threads,
        &mut scratch,
        &mut cache,
        &mut frontier,
        &mut stats,
    );
    Ok(SearchOutcome { frontier, stats })
}

/// Parameters of the seeded evolutionary search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Candidates proposed per generation.
    pub population: usize,
    /// Number of generations (generation 0 is uniform random).
    pub generations: usize,
    /// Per-knob re-roll probability when mutating a parent.
    pub mutation_rate: f64,
    /// Probability a child is a fresh uniform sample instead of a mutant
    /// (keeps the search from collapsing onto one frontier basin).
    pub immigrant_rate: f64,
    /// RNG seed: same seed ⇒ same proposals ⇒ identical frontier.
    pub seed: u64,
    /// Worker threads for candidate evaluation.
    pub threads: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            population: 64,
            generations: 12,
            mutation_rate: 0.35,
            immigrant_rate: 0.2,
            seed: 0,
            threads: default_threads(),
        }
    }
}

/// Runs the evolutionary search: generation 0 samples uniformly; each
/// later generation mutates parents drawn uniformly from the current
/// frontier (or immigrates fresh samples), evaluates through the shared
/// cache, and folds survivors into the frontier.
///
/// # Errors
///
/// Returns [`DseError::InvalidSpace`] for degenerate spaces or
/// populations.
pub fn evolve(
    space: &DesignSpace,
    evaluator: &Evaluator,
    config: &EvolutionConfig,
) -> Result<SearchOutcome> {
    space.validate()?;
    if config.population == 0 || config.generations == 0 {
        return Err(DseError::InvalidSpace {
            reason: "population and generations must be nonzero".to_owned(),
        });
    }
    if !(0.0..=1.0).contains(&config.mutation_rate) || !(0.0..=1.0).contains(&config.immigrant_rate)
    {
        return Err(DseError::InvalidSpace {
            reason: "mutation/immigrant rates must be within [0, 1]".to_owned(),
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0D5E_C0DE_0D5E_C0DE);
    let mut scratch = BatchScratch::default();
    let mut cache = EvalCache::new();
    let mut frontier = ParetoFrontier::new();
    let mut stats = SearchStats::default();
    // The frontier stores candidates; mutation needs the knob indices that
    // produced them, so remember each fingerprint's choice.
    let mut choice_of: HashMap<u64, KnobChoice> = HashMap::new();
    let mut parents: Vec<KnobChoice> = Vec::new();
    // Generation buffers, warmed once and refilled per generation (the
    // per-generation `collect()`s this replaces were the driver's only
    // steady-state allocations).
    let mut choices: Vec<KnobChoice> = Vec::with_capacity(config.population);
    let mut candidates: Vec<(Candidate, u64)> = Vec::with_capacity(config.population);

    for generation in 0..config.generations {
        choices.clear();
        candidates.clear();
        for _ in 0..config.population {
            choices.push(
                if generation == 0 || parents.is_empty() || rng.gen_bool(config.immigrant_rate) {
                    space.sample_choice(&mut rng)
                } else {
                    let parent = parents[rng.gen_range(0..parents.len())];
                    space.mutate_choice(&mut rng, parent, config.mutation_rate)
                },
            );
        }
        for &choice in &choices {
            let cand = space.assemble(choice);
            let fp = cand.fingerprint();
            candidates.push((cand, fp));
            choice_of.entry(fp).or_insert(choice);
        }
        run_batch(
            &candidates,
            evaluator,
            config.threads,
            &mut scratch,
            &mut cache,
            &mut frontier,
            &mut stats,
        );
        parents.clear();
        parents.extend(
            frontier
                .entries()
                .iter()
                .map(|e| choice_of[&e.point.fingerprint]),
        );
    }

    Ok(SearchOutcome { frontier, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_sweep_finds_a_frontier() {
        let space = DesignSpace::smoke();
        let out = grid_sweep(&space, &Evaluator::alexnet(), 4).unwrap();
        assert_eq!(out.stats.evaluated, space.cardinality());
        assert_eq!(out.stats.cache_hits, 0, "grid points are distinct");
        assert!(out.stats.valid > 0);
        assert!(!out.frontier.is_empty());
        assert!(out.frontier.invariant_holds());
        // the frontier is a subset of the valid evaluations
        assert!(out.frontier.len() as u64 <= out.stats.valid);
    }

    #[test]
    fn grid_sweep_is_thread_count_invariant() {
        let space = DesignSpace::smoke();
        let ev = Evaluator::lenet5();
        let a = grid_sweep(&space, &ev, 1).unwrap();
        let b = grid_sweep(&space, &ev, 8).unwrap();
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn evolution_is_seed_deterministic() {
        let space = DesignSpace::default();
        let ev = Evaluator::lenet5();
        let cfg = EvolutionConfig {
            population: 16,
            generations: 4,
            seed: 11,
            threads: 4,
            ..EvolutionConfig::default()
        };
        let a = evolve(&space, &ev, &cfg).unwrap();
        let b = evolve(&space, &ev, &cfg).unwrap();
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.stats, b.stats);
        assert!(a.frontier.invariant_holds());
        // a different seed explores differently
        let c = evolve(&space, &ev, &EvolutionConfig { seed: 12, ..cfg }).unwrap();
        assert!(c.stats != a.stats || c.frontier != a.frontier);
    }

    #[test]
    fn evolution_memoizes_revisits() {
        let space = DesignSpace::smoke(); // 48 designs << proposals
        let ev = Evaluator::lenet5();
        let cfg = EvolutionConfig {
            population: 32,
            generations: 6,
            seed: 5,
            threads: 4,
            ..EvolutionConfig::default()
        };
        let out = evolve(&space, &ev, &cfg).unwrap();
        assert!(out.stats.evaluated <= space.cardinality());
        assert!(
            out.stats.cache_hits > 0,
            "192 proposals over 48 designs must repeat"
        );
        assert_eq!(
            out.stats.evaluated + out.stats.cache_hits,
            (cfg.population * cfg.generations) as u64
        );
    }

    #[test]
    fn degenerate_evolution_configs_are_rejected() {
        let space = DesignSpace::smoke();
        let ev = Evaluator::lenet5();
        for cfg in [
            EvolutionConfig {
                population: 0,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                generations: 0,
                ..EvolutionConfig::default()
            },
            EvolutionConfig {
                mutation_rate: 1.5,
                ..EvolutionConfig::default()
            },
        ] {
            assert!(evolve(&space, &ev, &cfg).is_err());
        }
    }
}
