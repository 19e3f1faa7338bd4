//! Shared report plumbing for the bench binaries.
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
//! ([`write_artifact`]). The `paper` bin's Markdown record is laid out
//! through the section and table writers here, and its tests read the
//! printed tables back.
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

/// Starts a `## title` section with its lead paragraph.
pub(crate) fn section(out: &mut String, title: &str, lead: &str) {
    out.push_str(&format!("## {title}\n\n{lead}\n\n"));
}

/// Appends a Markdown table and a blank line. The header and every row
/// list their cells separated by `|`; the first column is left-aligned,
/// the rest right-aligned.
pub(crate) fn table(out: &mut String, head: &str, rows: impl IntoIterator<Item = String>) {
    let line = |cells: &str| format!("| {} |\n", cells.replace('|', " | "));
    out.push_str(&line(head));
    let rule = vec!["--:"; head.split('|').count() - 1];
    out.push_str(&line(&format!(":--|{}", rule.join("|"))));
    for row in rows {
        out.push_str(&line(&row));
    }
    out.push('\n');
}

/// The header cells and the body rows of the first table after the line
/// `heading` in `md`, each row split into trimmed cells — the inverse of
/// [`table`].
#[cfg(test)]
pub(crate) fn table_rows(md: &str, heading: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let cells = |line: &str| -> Vec<String> {
        let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
        inner.split('|').map(|c| c.trim().to_owned()).collect()
    };
    let mut lines = md
        .lines()
        .skip_while(|l| *l != heading)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    let head = lines.next().map(cells).unwrap_or_default();
    (head, lines.skip(1).map(cells).collect())
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

    #[test]
    fn tables_are_well_formed_markdown() {
        let mut out = String::new();
        table(&mut out, "a|b", ["x|1".to_owned()]);
        assert_eq!(out, "| a | b |\n| :-- | --: |\n| x | 1 |\n\n");
        let (head, rows) = table_rows(&format!("## t\n\n{out}"), "## t");
        assert_eq!(
            (head, rows),
            (
                vec!["a".into(), "b".into()],
                vec![vec!["x".into(), "1".into()]]
            )
        );
    }

    /// Fig. 5 prints eq. (4)'s 5.2 billion and eq. (5)'s 35 thousand
    /// conv1 rings, and conv4's 3 456 channel-sequential rings (§V-A).
    #[test]
    fn fig5_render_contains_headline_numbers() {
        let (head, rows) = table_rows(&crate::paper::record().markdown, "## Fig. 5");
        assert_eq!(
            head[..4],
            ["layer", "not filtered", "filtered", "channel-sequential"]
        );
        let layers: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(layers, ["conv1", "conv2", "conv3", "conv4", "conv5"]);
        assert_eq!(rows[0][1..3], ["5,245,599,744", "34,848"]);
        assert_eq!(rows[3][3], "3,456");
    }

    /// Fig. 6 prints one timing row per layer and a totals row under the
    /// PCNNA(O+E) and PCNNA(O) columns.
    #[test]
    fn timing_render_has_totals() {
        let (head, rows) = table_rows(&crate::paper::record().markdown, "## Fig. 6");
        assert_eq!(head[2..6], ["Eyeriss", "YodaNN", "PCNNA(O+E)", "PCNNA(O)"]);
        assert_eq!(rows.len(), 6);
        let total = &rows[5];
        assert_eq!(
            total[..6],
            ["total", "", "45.24 ms", "10.40 ms", "21.59 us", "852.20 ns"]
        );
        assert_eq!(total[8..], ["2095×", "53086×"]);
    }
}
