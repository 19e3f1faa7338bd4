//! Search drivers: exhaustive grid sweep and seeded evolutionary search.
//!
//! Both drivers price proposals from one set of part tables per run
//! (see [the dependency map](crate::objectives#the-dependency-map)):
//! each part is built once per knob projection it depends on, and a
//! proposal's verdict is one combine step over three table reads. A
//! proposal whose fingerprint was seen before in the run counts as a
//! cache hit and is not offered again; a fresh one folds into the
//! [`ParetoFrontier`] **sequentially in proposal order**.
//!
//! The grid sweep streams the odometer order in fixed-size blocks, so it
//! never holds the whole grid. Every block (an evolve generation is one
//! block) is assembled, fingerprinted and priced by an order-preserving
//! thread map ([`pcnna_fleet::par::par_map_slice`], serial on one
//! thread) before the in-order fold.
//! Because the fold order is deterministic, every table slot is a pure
//! function of its projection, and all randomness flows from one seeded
//! [`StdRng`], repeated runs with the same seed produce identical
//! frontiers — across thread counts, too.

use crate::objectives::{DesignPoint, Evaluator, PartTables};
use crate::pareto::ParetoFrontier;
use crate::space::{Candidate, DesignSpace, KnobChoice};
use crate::{DseError, Result};
use pcnna_fleet::par::par_map_slice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct designs priced (proposals whose fingerprint was new to
    /// the run).
    pub evaluated: u64,
    /// Fresh evaluations that produced a feasible [`crate::DesignPoint`].
    pub valid: u64,
    /// Fresh evaluations that were infeasible.
    pub invalid: u64,
    /// Proposals whose fingerprint the run had already seen (a repeated
    /// knob value or a revisited design); they are not offered to the
    /// frontier again.
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

/// Grid points the sweep prices per block. Each block holds its priced
/// candidates (≈ 0.6 KB a point), so peak memory grows with the block;
/// on two threads blocks of 512 points or fewer lose time to the
/// per-block worker spawns, and on one thread the size does not matter
/// (PERF.md, "Factored grid sweep").
const GRID_BLOCK: usize = 1024;

/// One search run's state: the part tables, the fingerprints seen so
/// far, the frontier and the counters.
struct Search<'a> {
    space: &'a DesignSpace,
    tables: PartTables<'a>,
    seen: HashSet<u64>,
    frontier: ParetoFrontier,
    stats: SearchStats,
}

impl<'a> Search<'a> {
    fn new(space: &'a DesignSpace, evaluator: &'a Evaluator) -> Self {
        Search {
            space,
            tables: PartTables::new(space, evaluator),
            seen: HashSet::new(),
            frontier: ParetoFrontier::new(),
            stats: SearchStats::default(),
        }
    }

    /// Prices `choices` on `threads` workers and folds the fresh ones in
    /// order. `on_fresh` sees every fresh fingerprint with the choice that
    /// produced it.
    fn run_block(
        &mut self,
        choices: &[KnobChoice],
        threads: usize,
        mut on_fresh: impl FnMut(u64, KnobChoice),
    ) {
        let space = self.space;
        let tables = &self.tables;
        let priced = par_map_slice(choices, threads, |choice| {
            let candidate = space.assemble(choice);
            let fp = candidate.fingerprint();
            (candidate, fp, tables.verdict(choice, fp))
        });
        for ((candidate, fp, verdict), &choice) in priced.into_iter().zip(choices) {
            if self.admit(fp) {
                on_fresh(fp, choice);
                self.fold(candidate, verdict);
            }
        }
    }

    /// Whether `fp` is new to this run; a repeat counts as a cache hit.
    fn admit(&mut self, fp: u64) -> bool {
        let fresh = self.seen.insert(fp);
        if !fresh {
            self.stats.cache_hits += 1;
        }
        fresh
    }

    fn fold(&mut self, candidate: Candidate, verdict: Option<DesignPoint>) {
        self.stats.evaluated += 1;
        match verdict {
            Some(point) => {
                self.stats.valid += 1;
                self.frontier.insert(candidate, point);
            }
            None => self.stats.invalid += 1,
        }
    }

    fn outcome(self) -> SearchOutcome {
        SearchOutcome {
            frontier: self.frontier,
            stats: self.stats,
        }
    }
}

/// Exhaustively sweeps every grid point of `space`, streaming the
/// odometer order.
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
    let mut search = Search::new(space, evaluator);
    let mut grid = space.grid_iter();
    let mut block = Vec::with_capacity(GRID_BLOCK);
    loop {
        block.clear();
        block.extend(grid.by_ref().take(GRID_BLOCK));
        if block.is_empty() {
            break;
        }
        search.run_block(&block, threads, |_, _| {});
    }
    Ok(search.outcome())
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
/// frontier (or immigrates fresh samples), prices the proposals through
/// the run's part tables, and folds the unseen ones into the frontier.
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
    let mut search = Search::new(space, evaluator);
    // The frontier stores candidates; mutation needs the knob indices that
    // produced them, so remember each fingerprint's first choice.
    let mut choice_of: HashMap<u64, KnobChoice> = HashMap::new();
    let mut parents: Vec<KnobChoice> = Vec::new();
    // The generation buffer, warmed once and refilled per generation.
    let mut choices: Vec<KnobChoice> = Vec::with_capacity(config.population);

    for generation in 0..config.generations {
        choices.clear();
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
        search.run_block(&choices, config.threads, |fp, choice| {
            choice_of.insert(fp, choice);
        });
        parents.clear();
        parents.extend(
            search
                .frontier
                .entries()
                .iter()
                .map(|e| choice_of[&e.point.fingerprint]),
        );
    }

    Ok(search.outcome())
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
    fn repeated_knob_values_count_as_cache_hits() {
        let smoke = DesignSpace::smoke();
        let mut repeated = smoke.clone();
        // 4 input-DAC entries, one a repeat: 64 grid points, 16 of them
        // re-proposals of a design the sweep already priced.
        repeated.n_input_dacs = vec![4, 10, 32, 4];
        let ev = Evaluator::alexnet();
        for threads in [1, 3] {
            let once = grid_sweep(&smoke, &ev, threads).unwrap();
            let twice = grid_sweep(&repeated, &ev, threads).unwrap();
            assert_eq!(twice.stats.evaluated, smoke.cardinality());
            assert_eq!(twice.stats.cache_hits, 16);
            assert_eq!(twice.frontier, once.frontier);
        }
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
