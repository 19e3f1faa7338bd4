//! Property-based invariants of the design-space explorer: Pareto
//! dominance, cache bit-identity, seeded determinism, and the factored
//! searches against the per-candidate evaluator.

use proptest::prelude::*;

use pcnna_core::config::{AllocationPolicy, BottleneckModel};
use pcnna_dse::prelude::*;
use std::collections::HashSet;

/// The per-candidate oracle of [`grid_sweep`]: every grid point in
/// odometer order, deduplicated by fingerprint, priced by the fresh
/// evaluator and folded into a frontier.
fn fold_fresh(space: &DesignSpace, ev: &Evaluator) -> SearchOutcome {
    let mut seen = HashSet::new();
    let mut frontier = ParetoFrontier::new();
    let mut stats = SearchStats::default();
    for choice in space.grid_choices() {
        let candidate = space.assemble(choice);
        let fp = candidate.fingerprint();
        if !seen.insert(fp) {
            stats.cache_hits += 1;
            continue;
        }
        stats.evaluated += 1;
        match ev.evaluate(&candidate) {
            Some(point) => {
                stats.valid += 1;
                frontier.insert(candidate, point);
            }
            None => stats.invalid += 1,
        }
    }
    SearchOutcome { frontier, stats }
}

/// Asserts a tabled grid sweep equals the fresh fold, at one and four
/// threads.
fn assert_sweep_matches_fresh(space: &DesignSpace, ev: &Evaluator) {
    let oracle = fold_fresh(space, ev);
    for threads in [1, 4] {
        let out = grid_sweep(space, ev, threads).unwrap();
        assert_stamped(&out.frontier);
        assert_eq!(
            out.stats,
            oracle.stats,
            "{} at {threads} threads",
            ev.workload()
        );
        assert_eq!(
            out.frontier,
            oracle.frontier,
            "{} at {threads} threads",
            ev.workload()
        );
    }
}

/// Asserts every frontier entry carries its candidate's fingerprint.
fn assert_stamped(frontier: &ParetoFrontier) {
    for e in frontier.entries() {
        assert_eq!(e.point.fingerprint, e.candidate.fingerprint());
    }
}

#[test]
fn factored_sweep_matches_per_candidate_evaluation() {
    for space in [DesignSpace::smoke(), DesignSpace::default()] {
        for ev in [
            Evaluator::alexnet(),
            Evaluator::vgg16(),
            Evaluator::lenet5(),
        ] {
            assert_sweep_matches_fresh(&space, &ev);
        }
    }
}

/// A value list drawn (with repeats) from `pool`, one to three long.
fn knob_values<T: Clone + 'static>(pool: &'static [T]) -> impl Strategy<Value = Vec<T>> {
    prop::collection::vec(0..pool.len(), 1..4)
        .prop_map(move |idx| idx.into_iter().map(|i| pool[i].clone()).collect())
}

/// Random sub-spaces of the default knob lists plus the unfiltered
/// allocation (repeats allowed, so some grid points share a fingerprint)
/// over perturbed base configs: a tiny SRAM that nothing fits, the
/// weight-load term on or off, and either bottleneck model (DAC only or
/// the max of stages).
fn sub_spaces() -> impl Strategy<Value = DesignSpace> {
    (
        (
            knob_values(&[4usize, 8, 10, 16, 32, 64]),
            knob_values(&[8usize, 16, 32, 64]),
            knob_values(&[6u8, 8, 10]),
            knob_values(&[2.5f64, 5.0, 10.0]),
        ),
        (
            knob_values(&[
                AllocationPolicy::Filtered,
                AllocationPolicy::FilteredChannelSequential,
                AllocationPolicy::Unfiltered,
            ]),
            knob_values(&[25.0f64, 50.0, 100.0]),
            knob_values(&[5.0f64, 10.0, 20.0]),
        ),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (n_input_dacs, n_adcs, adc_bits, fast_clock_ghz),
                (allocations, channel_spacing_ghz, ring_radius_um),
                (tiny_sram, weight_load, dac_only),
            )| {
                let mut base = DesignSpace::default().base_config;
                if tiny_sram {
                    base.sram.capacity_bits = 64;
                }
                base = base
                    .with_weight_load_charged(weight_load)
                    .with_bottleneck(if dac_only {
                        BottleneckModel::DacOnly
                    } else {
                        BottleneckModel::MaxOfStages
                    });
                DesignSpace {
                    n_input_dacs,
                    n_adcs,
                    adc_bits,
                    fast_clock_ghz,
                    allocations,
                    channel_spacing_ghz,
                    ring_radius_um,
                    base_config: base,
                    ..DesignSpace::default()
                }
            },
        )
}

/// Random objective vectors over a few orders of magnitude (all four
/// senses folded to "minimize" inside `DesignPoint::objectives`).
fn points() -> impl Strategy<Value = Vec<DesignPoint>> {
    proptest::collection::vec(
        (
            0.001f64..10.0,
            0.001f64..10.0,
            0.001f64..10.0,
            -30.0f64..30.0,
        ),
        1..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (latency, energy, area, headroom))| DesignPoint {
                fingerprint: i as u64,
                latency_s: latency,
                energy_j: energy,
                area_mm2: area,
                snr_headroom_db: headroom,
                usable_channels: 1,
                spectral_passes: 1,
                spectrally_bound: false,
                throughput_fps: 1.0 / latency,
            })
            .collect()
    })
}

/// Small random knob choices over the full default space.
fn choices() -> impl Strategy<Value = KnobChoice> {
    // index space of DesignSpace::default(): [6, 4, 3, 3, 2, 3, 3]
    (
        0usize..6,
        0usize..4,
        0usize..3,
        0usize..3,
        0usize..2,
        0usize..3,
        0usize..3,
    )
        .prop_map(|(a, b, c, d, e, f, g)| KnobChoice([a, b, c, d, e, f, g]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_frontier_point_dominates_another(pts in points()) {
        let cand = Candidate::paper_default();
        let mut frontier = ParetoFrontier::new();
        for p in &pts {
            frontier.insert(cand, *p);
        }
        prop_assert!(!frontier.is_empty());
        let entries = frontier.entries();
        for (i, a) in entries.iter().enumerate() {
            for (j, b) in entries.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !a.point.weakly_dominates(&b.point),
                        "frontier holds a dominated pair: {:?} vs {:?}",
                        a.point.objectives(),
                        b.point.objectives()
                    );
                }
            }
        }
    }

    #[test]
    fn inserting_a_dominated_point_is_a_noop(pts in points()) {
        let cand = Candidate::paper_default();
        let mut frontier = ParetoFrontier::new();
        for p in &pts {
            frontier.insert(cand, *p);
        }
        // A point strictly worse than some resident in every objective is
        // dominated; offering it must not change the frontier at all.
        let resident = frontier.entries()[0].point;
        let worse = DesignPoint {
            fingerprint: u64::MAX,
            latency_s: resident.latency_s * 2.0,
            energy_j: resident.energy_j * 2.0,
            area_mm2: resident.area_mm2 * 2.0,
            snr_headroom_db: resident.snr_headroom_db - 1.0,
            ..resident
        };
        let before = frontier.clone();
        prop_assert!(!frontier.insert(cand, worse));
        prop_assert_eq!(&frontier, &before);
        // Re-offering an exact resident copy is equally a no-op.
        prop_assert!(!frontier.insert(cand, resident));
        prop_assert_eq!(&frontier, &before);
    }

    #[test]
    fn every_insert_reports_membership_truthfully(pts in points()) {
        let cand = Candidate::paper_default();
        let mut frontier = ParetoFrontier::new();
        for p in &pts {
            let admitted = frontier.insert(cand, *p);
            let present = frontier
                .entries()
                .iter()
                .any(|e| e.point.fingerprint == p.fingerprint);
            prop_assert_eq!(admitted, present);
        }
    }

    #[test]
    fn cache_returns_bit_identical_points(choice in choices(), repeats in 2usize..5) {
        let space = DesignSpace::default();
        let ev = Evaluator::lenet5();
        let cand = space.assemble(choice);
        let mut cache = EvalCache::new();
        let first = cache.evaluate(&ev, &cand);
        for _ in 1..repeats {
            let again = cache.evaluate(&ev, &cand);
            // bit-identical: every f64 field compares exactly equal
            prop_assert_eq!(first, again);
        }
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), (repeats - 1) as u64);
        // and a fresh evaluator run agrees with the cached verdict
        prop_assert_eq!(first, ev.evaluate(&cand));
    }

    #[test]
    fn factored_searches_match_the_fresh_path(space in sub_spaces(), network in 0usize..3) {
        let ev = match network {
            0 => Evaluator::alexnet(),
            1 => Evaluator::vgg16(),
            _ => Evaluator::lenet5(),
        };
        assert_sweep_matches_fresh(&space, &ev);
        let cfg = EvolutionConfig {
            population: 16,
            generations: 3,
            seed: 3,
            threads: 2,
            ..EvolutionConfig::default()
        };
        let out = evolve(&space, &ev, &cfg).unwrap();
        assert_stamped(&out.frontier);
        for e in out.frontier.entries() {
            prop_assert_eq!(ev.evaluate(&e.candidate), Some(e.point));
        }
    }

    #[test]
    fn seeded_evolution_reproduces_frontiers(seed in 0u64..500) {
        let space = DesignSpace::smoke();
        let ev = Evaluator::lenet5();
        let cfg = EvolutionConfig {
            population: 12,
            generations: 3,
            seed,
            threads: 4,
            ..EvolutionConfig::default()
        };
        let a = evolve(&space, &ev, &cfg).unwrap();
        let b = evolve(&space, &ev, &cfg).unwrap();
        prop_assert_eq!(a.frontier, b.frontier);
        prop_assert_eq!(a.stats, b.stats);
    }
}
