//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a metric table, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives the
//! end-to-end metrics, `--trace 1` the per-layer ledger. Exits 1 if any
//! correctness check failed and 2 on a usage or set-up error.

use perfbench::e2e::{self, Run, Verdicts, PROBE_READY};
use perfbench::ledger;
use perfbench::report::{self, Values, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Size, Workload};
use std::io::Write;

const USAGE: &str =
    "usage: perfbench --workload <small-fleet|mega-fleet|chaos-control|design-sweep> \
                     --seed <u64> --seconds <s> --trace <0|1> [--size <full|smoke>]";

struct Args {
    run: Run,
    trace: bool,
    probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?.ok_or("--workload is required")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let size = match value("--size")?.unwrap_or("full") {
        "full" => Size::Full,
        "smoke" => Size::Smoke,
        other => return Err(format!("unknown size {other:?}")),
    };
    let probe = args.iter().any(|a| a == "--probe-setup");
    let seconds = match value("--seconds")? {
        Some(s) => s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
        None if probe => 0.0,
        None => return Err("--seconds is required".into()),
    };
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds must be within [0, 3600], got {seconds}"));
    }
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        run: Run {
            workload,
            seed,
            seconds,
            size,
        },
        trace,
        probe,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.probe {
        if let Err(e) = workloads::setup(args.run.workload, args.run.seed, args.run.size) {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(2);
        }
        println!("{PROBE_READY}");
        let _ = std::io::stdout().flush();
        return;
    }
    let (catalogue, measured) = if args.trace {
        (PER_LAYER, ledger::measure(&args.run))
    } else {
        (END_TO_END, e2e::measure(&args.run))
    };
    let (values, verdicts): (Values, Verdicts) = measured.unwrap_or_else(|e| {
        eprintln!("perfbench: {} failed: {e}", args.run.workload.name());
        std::process::exit(2);
    });
    for reason in &verdicts.failures {
        eprintln!("perfbench: CHECK FAILED: {reason}");
    }
    let failed = verdicts.failures.len() as u64;
    let correct = failed == 0;
    match report::render(catalogue, &values, correct, verdicts.attempted, failed) {
        Ok((table, line)) => {
            println!(
                "{} seed {} ({} metrics, {} threads available)",
                args.run.workload.name(),
                args.run.seed,
                if args.trace {
                    "per-layer"
                } else {
                    "end-to-end"
                },
                workloads::nproc()
            );
            print!("{table}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
