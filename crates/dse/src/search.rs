//! Search drivers: exhaustive grid sweep and seeded evolutionary search.
//!
//! A proposal is checked for novelty by its canonical knob choice (each
//! index mapped to the first index of its knob with an equal assembled
//! value) before it is priced. Two choices build the same candidate
//! exactly when their canonical choices are equal, so the key is exact:
//! a repeat counts as a cache hit and is neither priced nor offered to
//! the frontier. The grid sweep needs no seen-set — the odometer reaches
//! a design's canonical choice before any repeat of it, so a grid point
//! is a repeat exactly when it is not canonical. The evolve dedups in
//! proposal order against a set of canonical choices. Debug builds check
//! every proposal's verdict against fingerprint dedup.
//!
//! Both drivers price the fresh proposals from one set of part tables per
//! run (see [the dependency map](crate::objectives#the-dependency-map)):
//! each part is built once per knob projection it depends on, and a
//! verdict is one combine step over three table reads. The grid sweep
//! streams the odometer order and prices its fresh points in fixed-size
//! blocks, so it never holds the whole grid; an evolve generation is one
//! block. Each block is priced by an order-preserving thread map
//! ([`pcnna_fleet::par::par_map_slice`], serial on one thread) and folded
//! into the [`ParetoFrontier`] **sequentially in proposal order**. Only a
//! point the frontier admits is assembled into its
//! [`Candidate`](crate::space::Candidate) and
//! fingerprinted.
//!
//! Because the fold order is deterministic, every table slot is a pure
//! function of its projection, and all randomness flows from one seeded
//! [`StdRng`], repeated runs with the same seed produce identical
//! frontiers — across thread counts, too.

use crate::objectives::{Evaluator, PartTables};
use crate::pareto::{FrontierEntry, ParetoFrontier};
use crate::space::{CanonicalChoices, DesignSpace, KnobChoice};
use crate::{DseError, Result};
use pcnna_fleet::par::par_map_slice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Counters describing one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct designs priced (proposals whose canonical knob choice was
    /// new to the run).
    pub evaluated: u64,
    /// Fresh evaluations that produced a feasible [`crate::DesignPoint`].
    pub valid: u64,
    /// Fresh evaluations that were infeasible.
    pub invalid: u64,
    /// Proposals that repeat a design the run already priced (a repeated
    /// knob value or a revisited design): they are neither priced nor
    /// offered to the frontier again.
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

/// Fresh grid points the sweep prices per block. A block holds only their
/// choices and verdicts (128 bytes a point). On one thread the size sets
/// memory, not time; on two, each block pays two worker spawns, and even
/// whole-grid blocks only bring two threads level with one on a 2-core
/// host (PERF.md, "Canonical dedup"), so the block stays small.
const GRID_BLOCK: usize = 1024;

/// The most candidates an evolve generation may propose: 1 024× the
/// default population. It bounds the generation's buffers (128 bytes a
/// fresh proposal, so at most 8 MiB).
pub const MAX_POPULATION: usize = 1 << 16;

/// One search run's state: the part tables, the canonical-choice map, the
/// fresh proposals waiting to be priced, the frontier and the counters.
struct Search<'a> {
    space: &'a DesignSpace,
    tables: PartTables<'a>,
    canonical: CanonicalChoices,
    fresh: Vec<KnobChoice>,
    frontier: ParetoFrontier,
    stats: SearchStats,
    /// Every proposal's fingerprint, so debug builds can check canonical
    /// dedup against fingerprint dedup.
    #[cfg(debug_assertions)]
    fingerprints: HashSet<u64>,
}

impl<'a> Search<'a> {
    fn new(space: &'a DesignSpace, evaluator: &'a Evaluator) -> Self {
        Search {
            space,
            tables: PartTables::new(space, evaluator),
            canonical: CanonicalChoices::new(space),
            fresh: Vec::new(),
            frontier: ParetoFrontier::new(),
            stats: SearchStats::default(),
            #[cfg(debug_assertions)]
            fingerprints: HashSet::new(),
        }
    }

    /// Counts one proposal: a `fresh` one waits for [`price`](Self::price),
    /// a repeat is a cache hit.
    fn propose(&mut self, choice: KnobChoice, fresh: bool) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.fingerprints
                .insert(self.space.assemble(choice).fingerprint()),
            fresh,
            "canonical dedup of {choice:?} disagrees with fingerprint dedup"
        );
        if fresh {
            self.fresh.push(choice);
        } else {
            self.stats.cache_hits += 1;
        }
    }

    /// Prices the waiting fresh proposals on `threads` workers and folds
    /// them in order. An admitted point is assembled and fingerprinted,
    /// and `on_admit` sees its fingerprint with the choice that built it.
    fn price(&mut self, threads: usize, mut on_admit: impl FnMut(u64, KnobChoice)) {
        let tables = &self.tables;
        let verdicts = par_map_slice(&self.fresh, threads, |choice| tables.verdict(choice));
        let space = self.space;
        for (verdict, &choice) in verdicts.into_iter().zip(&self.fresh) {
            self.stats.evaluated += 1;
            let Some(point) = verdict else {
                self.stats.invalid += 1;
                continue;
            };
            self.stats.valid += 1;
            self.frontier.insert_with(point, |mut point| {
                let candidate = space.assemble(choice);
                point.fingerprint = candidate.fingerprint();
                on_admit(point.fingerprint, choice);
                FrontierEntry { candidate, point }
            });
        }
        self.fresh.clear();
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
    for choice in space.grid_iter() {
        search.propose(choice, search.canonical.of(choice) == choice);
        if search.fresh.len() == GRID_BLOCK {
            search.price(threads, |_, _| {});
        }
    }
    search.price(threads, |_, _| {});
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
/// frontier (or immigrates fresh samples), prices the unseen proposals
/// through the run's part tables, and folds them into the frontier.
///
/// # Errors
///
/// Returns [`DseError::InvalidSpace`] for degenerate spaces, for a zero
/// population or generation count, for a population above
/// [`MAX_POPULATION`], and for rates outside `[0, 1]`.
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
    if config.population > MAX_POPULATION {
        return Err(DseError::InvalidSpace {
            reason: format!(
                "population {} exceeds MAX_POPULATION ({MAX_POPULATION})",
                config.population
            ),
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
    let mut seen: HashSet<KnobChoice> = HashSet::new();
    // The frontier stores candidates; mutation needs the knob indices that
    // produced them, so remember the choice behind each admitted
    // fingerprint.
    let mut choice_of: HashMap<u64, KnobChoice> = HashMap::new();
    let mut parents: Vec<KnobChoice> = Vec::new();

    for generation in 0..config.generations {
        for _ in 0..config.population {
            let choice =
                if generation == 0 || parents.is_empty() || rng.gen_bool(config.immigrant_rate) {
                    space.sample_choice(&mut rng)
                } else {
                    let parent = parents[rng.gen_range(0..parents.len())];
                    space.mutate_choice(&mut rng, parent, config.mutation_rate)
                };
            let fresh = seen.insert(search.canonical.of(choice));
            search.propose(choice, fresh);
        }
        search.price(config.threads, |fp, choice| {
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
        assert_eq!(Some(out.stats.evaluated), space.cardinality());
        assert_eq!(out.stats.cache_hits, 0, "grid points are distinct");
        assert!(out.stats.valid > 0);
        assert!(!out.frontier.is_empty());
        assert!(out.frontier.invariant_holds());
        // the frontier is a subset of the valid evaluations
        assert!(out.frontier.len() as u64 <= out.stats.valid);
    }

    /// Every frontier entry carries its candidate's fingerprint.
    fn assert_stamped(frontier: &ParetoFrontier) {
        for e in frontier.entries() {
            assert_eq!(e.point.fingerprint, e.candidate.fingerprint());
        }
    }

    /// A frontier's objective vectors as a sorted set: which of two
    /// designs with equal objectives it keeps depends on proposal order.
    fn objective_set(frontier: &ParetoFrontier) -> Vec<[u64; 4]> {
        let mut set: Vec<_> = frontier
            .entries()
            .iter()
            .map(|e| e.point.objectives().map(f64::to_bits))
            .collect();
        set.sort_unstable();
        set
    }

    #[test]
    fn repeated_knob_values_count_as_cache_hits() {
        use pcnna_core::config::AllocationPolicy;
        let radius = 15.26f64;
        let distinct = DesignSpace {
            ring_radius_um: vec![radius, 10.0],
            ..DesignSpace::smoke()
        };
        // Repeats of an int, of the allocation enum, and of a float that
        // differs as typed but not once `assemble` scales it to metres:
        // 288 grid points over the same 96 designs.
        let mut repeated = distinct.clone();
        repeated.n_input_dacs = vec![4, 10, 32, 4];
        repeated.allocations.push(AllocationPolicy::Filtered);
        repeated
            .ring_radius_um
            .push(f64::from_bits(radius.to_bits() + 1));
        let ev = Evaluator::alexnet();
        let once = grid_sweep(&distinct, &ev, 1).unwrap();
        assert_eq!(once.stats.cache_hits, 0);
        assert_stamped(&once.frontier);
        for threads in [1, 3] {
            let twice = grid_sweep(&repeated, &ev, threads).unwrap();
            assert_eq!(twice.stats.evaluated, 96);
            assert_eq!(twice.stats.cache_hits, 288 - 96);
            assert_eq!(twice.frontier, once.frontier);
            // Uniform proposals (no mutation) that reach every design.
            let cfg = EvolutionConfig {
                population: 64,
                generations: 24,
                immigrant_rate: 1.0,
                seed: 2,
                threads,
                ..EvolutionConfig::default()
            };
            let evolved = evolve(&repeated, &ev, &cfg).unwrap();
            assert_eq!(evolved.stats.evaluated, 96);
            assert_eq!(evolved.stats.cache_hits, 64 * 24 - 96);
            assert_eq!(
                objective_set(&evolved.frontier),
                objective_set(&once.frontier)
            );
            assert_stamped(&evolved.frontier);
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
        assert!(out.stats.evaluated <= 48);
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
            // refused before any generation buffer is allocated
            EvolutionConfig {
                population: usize::MAX / 64,
                ..EvolutionConfig::default()
            },
        ] {
            assert!(evolve(&space, &ev, &cfg).is_err());
        }
        let Err(DseError::InvalidSpace { reason }) = evolve(
            &space,
            &ev,
            &EvolutionConfig {
                population: MAX_POPULATION + 1,
                ..EvolutionConfig::default()
            },
        ) else {
            panic!("an oversized population was accepted");
        };
        assert!(reason.contains("population"), "{reason}");
    }
}
