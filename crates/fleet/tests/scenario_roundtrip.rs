//! Property-based contracts of the scenario DSL (ISSUE 8 satellite):
//!
//! * the JSON codec round-trip is lossless — spec → JSON text → spec is
//!   identity, and re-rendering reproduces the bytes;
//! * a round-tripped scenario simulates **bit-identically** to the
//!   original, across shard counts {1, 4};
//! * the shrinker turns a seeded known-bad scenario into a stable,
//!   replayable repro file.
//!
//! The strategy samples the same space the fuzz campaign draws from
//! ([`ScenarioGen`]), so these properties cover exactly the scenarios
//! CI generates — arrival processes, class mixes, heterogeneous
//! instance groups, fault timelines (explicit and chaos), and control
//! sections alike.

use proptest::prelude::*;

use pcnna_fleet::prelude::*;
use pcnna_fleet::scenario::ScenarioSpec;

/// The generative sampler as a proptest strategy: any `(seed, index)`
/// pair maps to a valid spec, so the property space is the campaign's.
fn specs() -> impl Strategy<Value = ScenarioSpec> {
    (0u64..1_000_000, 0u64..32).prop_map(|(seed, index)| ScenarioGen::new(seed).generate(index))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_is_lossless(spec in specs()) {
        let text = spec.render();
        let back = ScenarioSpec::parse(&text).expect("rendered spec re-parses");
        prop_assert_eq!(&back, &spec);
        // Rendering is canonical: a second trip reproduces the bytes.
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn roundtripped_spec_simulates_bit_identically_across_shards(spec in specs()) {
        let back = ScenarioSpec::parse(&spec.render()).expect("rendered spec re-parses");
        let original = spec.compile().expect("generated spec compiles").scenario;
        let replayed = back.compile().expect("round-tripped spec compiles").scenario;
        prop_assert_eq!(&replayed, &original);
        for shards in [1usize, 4] {
            let a = original.simulate_sharded(shards, shards).expect("valid scenario");
            let b = replayed.simulate_sharded(shards, shards).expect("valid scenario");
            prop_assert_eq!(
                a, b,
                "round-tripped scenario diverged at shards={}", shards
            );
        }
    }
}

/// A deliberately breakable invariant ("the fleet never hard-fails"),
/// used to drive the shrinker the way a real oracle violation would.
struct NoHardFailures;

impl Oracle for NoHardFailures {
    fn name(&self) -> &'static str {
        "no-hard-failures"
    }

    fn check(&self, run: &RunArtifacts<'_>) -> Result<(), String> {
        if run.sharded.resilience.hard_failures > 0 {
            Err(format!(
                "{} hard failures",
                run.sharded.resilience.hard_failures
            ))
        } else {
            Ok(())
        }
    }
}

#[test]
fn known_bad_scenario_minimizes_to_a_stable_replayable_file() {
    let oracles: Vec<Box<dyn Oracle>> = vec![Box::new(NoHardFailures)];
    let generator = ScenarioGen::new(7);
    let victim = (0..64)
        .map(|i| generator.generate(i))
        .find(|s| !run_and_check(s, &oracles).violations.is_empty())
        .expect("the sample space contains hard failures");
    let minimized = shrink(&victim, &oracles);
    // Stable: shrinking twice from the same victim lands on the same
    // spec, and the minimum is a fixpoint.
    assert_eq!(shrink(&victim, &oracles), minimized);
    assert_eq!(shrink(&minimized, &oracles), minimized);
    // Replayable: the file form reproduces the violation.
    let replayed = ScenarioSpec::parse(&minimized.render()).expect("repro file parses");
    assert_eq!(replayed, minimized);
    assert!(!run_and_check(&replayed, &oracles).violations.is_empty());
}
