//! Smoke test at tiny sizes: every workload's untraced and traced runs
//! print exactly the metrics `BENCHMARK.json` names, each with its unit,
//! pass their correctness checks, and end with the result line. (That
//! each check fires on mismatched reports is tested beside the checks.)

use pcnna_fleet::scenario::json::Json;
use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark runs")
}

/// Runs one workload at smoke size and returns its result line.
fn result_line(workload: Workload, trace: &str) -> Json {
    let out = perfbench(&[
        "--workload",
        workload.name(),
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--size",
        "smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} --trace {trace} failed: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn assert_prints(catalogue: &[MetricDef], key: &str, trace: &str) {
    let declared = declared(key);
    let ours: Vec<(String, String)> = catalogue
        .iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect();
    assert_eq!(
        ours, declared,
        "the catalogue and BENCHMARK.json {key} differ"
    );
    for workload in Workload::ALL {
        let line = result_line(workload, trace);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("a metrics object");
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no numeric value"
                );
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                (name.clone(), unit.to_owned())
            })
            .collect();
        assert_eq!(printed, declared, "{} --trace {trace}", workload.name());
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    assert_prints(END_TO_END, "end_to_end", "0");
}

#[test]
fn every_workload_prints_every_per_layer_metric_with_its_unit() {
    assert_prints(PER_LAYER, "per_layer", "1");
}

#[test]
fn benchmark_json_names_every_workload() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names, ours);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "small-fleet",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "small-fleet",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
