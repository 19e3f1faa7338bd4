//! Shared report plumbing for the fleet bench binaries.
//!
//! The `scenarios`, `control`, and `trace` bins all emit deterministic
//! JSON artifacts under the same contract — no wall-clock fields,
//! conservation asserted before anything is written. Every record is
//! built as a [`Json`](pcnna_fleet::scenario::json::Json) value, so
//! floats render shortest-roundtrip and escaping and `null` are decided
//! in that one codec. This module is the single home for the rest of
//! the contract so the bins cannot drift apart: the bookkeeping
//! invariant ([`assert_books`]), the shared serving mix
//! ([`serving_classes`], [`chaos_config`]), and artifact writing
//! ([`write_artifact`]).

use pcnna_fleet::prelude::{
    ArrivalProcess, ChaosConfig, ChaosKind, ClassSpec, FaultSpec, FleetReport, InstanceSpec,
    NetworkClass, Policy, ScenarioSpec,
};

/// Asserts the fleet ledger balances: every offered request was
/// admitted or rejected, and every admitted request reached exactly
/// one terminal state (`admitted = completed + unserved + shed`).
/// Open-loop runs have `shed = 0`, so the same invariant covers both
/// bench paths.
///
/// # Panics
///
/// Panics (with `label` in the message) if either book is off — a
/// dropped or duplicated request anywhere in the engine.
pub fn assert_books(report: &FleetReport, label: &str) {
    assert_eq!(
        report.offered,
        report.admitted + report.rejected,
        "{label}: offered/admitted/rejected books must balance"
    );
    assert_eq!(
        report.admitted,
        report.completed + report.resilience.unserved + report.resilience.shed,
        "{label}: conservation (admitted = completed + unserved + shed)"
    );
}

/// The serving mix every fleet bench runs: a latency-tight AlexNet
/// class against a cheap, heavily weighted LeNet class — enough
/// contrast that scheduling and degradation visibly move per-class
/// numbers.
#[must_use]
pub fn serving_classes() -> Vec<NetworkClass> {
    vec![
        NetworkClass::alexnet(0.004, 1.0),
        NetworkClass::lenet5(0.001, 3.0),
    ]
}

/// The chaos generator settings the bench bins share: a recalibration
/// window sized to the mode's horizon and the run's seed, everything
/// else at defaults.
#[must_use]
pub fn chaos_config(smoke: bool, seed: u64) -> ChaosConfig {
    ChaosConfig {
        recalibration_s: if smoke { 2e-3 } else { 10e-3 },
        seed,
        ..ChaosConfig::default()
    }
}

/// [`serving_classes`] as scenario-file class specs — the DSL form of
/// the same mix, used by the committed `scenarios/*.json` files.
#[must_use]
pub fn serving_class_specs() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            network: "alexnet".to_owned(),
            slo_s: 0.004,
            weight: 1.0,
            min_accuracy: 0.0,
        },
        ClassSpec {
            network: "lenet5".to_owned(),
            slo_s: 0.001,
            weight: 3.0,
            min_accuracy: 0.0,
        },
    ]
}

/// The scenario-file form of one chaos-matrix leg: compiles to exactly
/// the `FleetScenario` the scenarios bin hard-codes for `(kind, smoke,
/// seed)` — the equivalence the bin asserts in-run before anything
/// depends on the DSL.
#[must_use]
pub fn matrix_spec(kind: ChaosKind, smoke: bool, seed: u64) -> ScenarioSpec {
    let (fleet, rate_rps, horizon_s) = if smoke {
        (4, 45_000.0, 0.05)
    } else {
        (6, 90_000.0, 0.5)
    };
    ScenarioSpec {
        name: kind.name().to_owned(),
        classes: serving_class_specs(),
        arrival: ArrivalProcess::Poisson { rate_rps },
        policy: Policy::NetworkAffinity,
        instances: vec![InstanceSpec::defaults(fleet)],
        max_batch: 32,
        queue_capacity: 100_000,
        resident_weights: true,
        accuracy_routing: false,
        horizon_s,
        seed,
        limits: pcnna_photonics::degradation::DegradationLimits::default(),
        faults: FaultSpec::Chaos {
            kind,
            recalibration_s: chaos_config(smoke, seed).recalibration_s,
            seed,
        },
        control: None,
    }
}

/// Writes a bench artifact, reporting success on stdout and failure on
/// stderr without aborting the run — CI treats the artifact as
/// best-effort and gates on the in-process asserts instead.
pub fn write_artifact(path: &str, payload: &str) {
    match std::fs::write(path, payload) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_classes_mix_is_stable() {
        let classes = serving_classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "alexnet");
        assert_eq!(classes[1].name, "lenet5");
    }

    #[test]
    fn matrix_specs_are_valid_and_mode_scaled() {
        for kind in ChaosKind::ALL {
            let smoke = matrix_spec(kind, true, 7);
            assert!(smoke.validate().is_ok(), "{kind:?} smoke spec invalid");
            assert_eq!(smoke.n_instances(), 4);
            let full = matrix_spec(kind, false, 7);
            assert!(full.validate().is_ok(), "{kind:?} full spec invalid");
            assert_eq!(full.n_instances(), 6);
            assert!(full.horizon_s > smoke.horizon_s);
        }
    }

    #[test]
    fn committed_scenario_files_are_canonical() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut files: Vec<_> = std::fs::read_dir(format!("{root}/scenarios"))
            .expect("scenarios/ exists")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        assert!(files.len() >= ChaosKind::ALL.len(), "{files:?}");
        // the copy the repo benchmark loads
        files.push(format!("{root}/perfbench/scenarios/heat-wave.json").into());
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable scenario file");
            let spec =
                ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                spec.render(),
                text,
                "{} does not re-render to its bytes",
                path.display()
            );
        }
        for kind in ChaosKind::ALL {
            let path = format!("{root}/scenarios/{}.json", kind.name());
            let text = std::fs::read_to_string(&path).expect("committed matrix file");
            assert_eq!(
                matrix_spec(kind, true, 7).render(),
                text,
                "{path} drifted from the generator"
            );
        }
    }

    #[test]
    fn chaos_config_scales_recalibration_with_mode() {
        assert!(chaos_config(true, 7).recalibration_s < chaos_config(false, 7).recalibration_s);
        assert_eq!(chaos_config(true, 9).seed, 9);
    }
}
