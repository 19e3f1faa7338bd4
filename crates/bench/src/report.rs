//! Shared report plumbing for the bench binaries.
//!
//! The `scenarios`, `control`, and `trace` bins all emit deterministic
//! JSON artifacts under the same contract — no wall-clock fields,
//! conservation asserted before anything is written. Every record is
//! built as a [`Json`](pcnna_fleet::scenario::json::Json) value, so
//! floats render shortest-roundtrip and escaping and `null` are decided
//! in that one codec. This module is the single home for the rest of
//! the contract so the bins cannot drift apart: the bookkeeping
//! invariant ([`assert_books`]), the serving workloads as scenario
//! specs the bins compile ([`serving_spec`], [`matrix_spec`],
//! [`control_spec`]), and artifact writing ([`write_artifact`]). The `paper` bin's Markdown record is laid out
//! through the section and table writers here, and its tests read the
//! printed tables back.
use pcnna_fleet::prelude::{
    ArrivalProcess, ChaosKind, ClassSpec, ControlConfig, ControlSpec, DegradationLimits, FaultSpec,
    FleetReport, InstanceSpec, Policy, PolicySpec, ReactivePolicy, ScenarioSpec,
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

/// The fault-free serving workload of the chaos matrix: a
/// latency-tight AlexNet class against a cheap, heavily weighted LeNet
/// class on a default-config fleet, loaded to where degradation visibly
/// moves per-class numbers without saturating the healthy baseline.
/// The `scenarios` bin runs it as the matrix baseline.
#[must_use]
pub fn serving_spec(smoke: bool, seed: u64) -> ScenarioSpec {
    let (fleet, rate_rps, horizon_s) = if smoke {
        (4, 45_000.0, 0.05)
    } else {
        (6, 90_000.0, 0.5)
    };
    let class = |network: &str, slo_s, weight| ClassSpec {
        network: network.to_owned(),
        slo_s,
        weight,
        min_accuracy: 0.0,
    };
    ScenarioSpec {
        name: "serving".to_owned(),
        classes: vec![class("alexnet", 0.004, 1.0), class("lenet5", 0.001, 3.0)],
        arrival: ArrivalProcess::Poisson { rate_rps },
        policy: Policy::NetworkAffinity,
        instances: vec![InstanceSpec::defaults(fleet)],
        max_batch: 32,
        queue_capacity: 100_000,
        resident_weights: true,
        accuracy_routing: false,
        horizon_s,
        seed,
        limits: DegradationLimits::default(),
        faults: FaultSpec::default(),
        control: None,
    }
}

/// One chaos-matrix leg: [`serving_spec`] under the named chaos
/// generator, with a recalibration window sized to the mode's horizon.
/// The smoke legs at seed 7 are the committed `scenarios/*.json` files.
#[must_use]
pub fn matrix_spec(kind: ChaosKind, smoke: bool, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: kind.name().to_owned(),
        faults: FaultSpec::Chaos {
            kind,
            recalibration_s: if smoke { 2e-3 } else { 10e-3 },
            seed,
        },
        ..serving_spec(smoke, seed)
    }
}

/// The closed-loop workload of the `control` and `trace` bins: the
/// serving mix on a larger fleet under a 10:1 diurnal swing, sized so
/// the peak needs most of the fleet while the trough leaves most of it
/// idle — the regime autoscaling exists for. Its control section holds
/// the 2 ms-window loop both bins run and a reactive policy.
#[must_use]
pub fn control_spec(smoke: bool, seed: u64) -> ScenarioSpec {
    let (fleet, peak_rps, horizon_s, period_s) = if smoke {
        (6, 60_000.0, 0.08, 0.08)
    } else {
        (8, 90_000.0, 0.4, 0.2)
    };
    ScenarioSpec {
        name: "diurnal".to_owned(),
        arrival: ArrivalProcess::Diurnal {
            base_rps: 0.1 * peak_rps,
            peak_rps,
            period_s,
        },
        instances: vec![InstanceSpec::defaults(fleet)],
        horizon_s,
        control: Some(ControlSpec {
            policy: PolicySpec::Reactive(ReactivePolicy::new()),
            config: ControlConfig {
                window_s: 0.002,
                ..ControlConfig::default()
            },
        }),
        ..serving_spec(smoke, seed)
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
    fn matrix_specs_are_valid_and_mode_scaled() {
        for kind in ChaosKind::ALL {
            let smoke = matrix_spec(kind, true, 7);
            assert!(smoke.validate().is_ok(), "{kind:?} smoke spec invalid");
            assert_eq!(smoke.n_instances(), 4);
            let full = matrix_spec(kind, false, 7);
            assert!(full.validate().is_ok(), "{kind:?} full spec invalid");
            assert_eq!(full.n_instances(), 6);
            assert!(full.horizon_s > smoke.horizon_s);
            // the recalibration window scales with the mode, and the
            // generator runs on the scenario's seed
            let recal = |spec: &ScenarioSpec| match spec.faults {
                FaultSpec::Chaos {
                    recalibration_s,
                    seed,
                    ..
                } => (recalibration_s, seed),
                FaultSpec::Events(_) => panic!("{kind:?} is a chaos reference"),
            };
            assert!(recal(&full).0 > recal(&smoke).0);
            assert_eq!(recal(&matrix_spec(kind, true, 9)), (2e-3, 9));
        }
        assert_eq!(serving_spec(true, 7).faults, FaultSpec::default());
    }

    #[test]
    fn control_specs_compile_with_their_control_section() {
        for smoke in [true, false] {
            let spec = control_spec(smoke, 9);
            let compiled = spec.compile().expect("control spec compiles");
            assert_eq!(compiled.scenario.seed, 9);
            assert!(compiled.scenario.faults.is_empty());
            let control = compiled.control.expect("control section");
            assert_eq!(control.policy.kind(), "reactive");
            assert_eq!(control.config.window_s, 0.002);
        }
        assert!(control_spec(false, 7).n_instances() > control_spec(true, 7).n_instances());
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
