//! The untraced run: set-up time from fresh processes, then repeated
//! measured passes with every correctness check, then the end-to-end
//! metrics.

use crate::checks;
use crate::report::Values;
use crate::stats::{calibration_s, median, peak_rss_mib, CALIBRATION_REF_S};
use crate::workloads::{self, Inputs, Outcome, Size, Workload};
use pcnna_fleet::prelude::*;
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fresh processes `setup_s` is taken over; they are spread evenly over
/// the measured phase.
const SETUP_PROBES: usize = 12;
/// Fewest measured passes, however long each takes.
const MIN_ITERATIONS: usize = 3;
/// The line a set-up probe prints once its set-up is done.
pub const PROBE_READY: &str = "ready";

/// What one benchmark invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Input size.
    pub size: Size,
}

/// Checks made and the reasons of those that failed.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Operations attempted (simulation calls and set-up probes).
    pub attempted: u64,
    /// One reason per failed check.
    pub failures: Vec<String>,
}

impl Verdicts {
    /// Records a check's result.
    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(reason) = result {
            self.failures.push(reason);
        }
    }
}

/// The arguments that make this executable run `run`'s set-up in a fresh
/// process and print [`PROBE_READY`].
fn probe_args(run: &Run) -> Vec<String> {
    vec![
        "--probe-setup".into(),
        "--workload".into(),
        run.workload.name().into(),
        "--seed".into(),
        run.seed.to_string(),
        "--size".into(),
        match run.size {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
        .into(),
    ]
}

/// Host seconds from spawning a fresh copy of this executable until it
/// reports its set-up done. The probe is waited for before returning.
///
/// # Errors
///
/// Returns a reason if the probe cannot start, fails, or never reports.
fn probe_setup(run: &Run) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .args(probe_args(run))
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a set-up probe: {e}"))?;
    let mut line = String::new();
    if let Some(out) = child.stdout.take() {
        std::io::BufReader::new(out)
            .read_line(&mut line)
            .map_err(|e| format!("reading a set-up probe: {e}"))?;
    }
    let dt = t0.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a set-up probe: {e}"))?;
    if !status.success() || line.trim() != PROBE_READY {
        return Err(format!("set-up probe failed ({status}): {line:?}"));
    }
    Ok(dt)
}

/// Service quotes a fleet run derives: one per class for each distinct
/// config row at set-up, and one per class for every fault requote.
///
/// # Errors
///
/// Returns the quote-table failure.
pub(crate) fn quote_calls(scenario: &FleetScenario, report: &FleetReport) -> Result<u64, String> {
    let rows = scenario.quote_table().map_err(|e| e.to_string())?.n_rows() as u64;
    let classes = scenario.classes.len() as u64;
    Ok((rows + report.resilience.requotes) * classes)
}

/// The median over `outcomes` of `metric`.
fn median_of(outcomes: &[Outcome], metric: impl Fn(&Outcome) -> f64) -> f64 {
    median(&outcomes.iter().map(metric).collect::<Vec<_>>())
}

/// Runs the untraced measurement of `run`. A measured pass runs each of
/// the workload's traffic sub-seeds once; passes repeat for the budget.
///
/// # Errors
///
/// Returns a reason if set-up or a simulation call fails outright;
/// failed checks are returned in the [`Verdicts`] instead.
pub fn measure(run: &Run) -> Result<(Values, Verdicts), String> {
    let mut verdicts = Verdicts::default();
    let mut setups = vec![probe_setup(run)?];
    let inputs = (0..run.workload.sub_seeds())
        .map(|i| {
            let seed = workloads::sub_seed(run.workload, run.seed, i);
            workloads::setup(run.workload, seed, run.size)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let threads = workloads::nproc();

    let budget = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    // The fastest run so far of each timed part of a pass, in pass order.
    let mut fastest_parts: Vec<f64> = Vec::new();
    let mut firsts: Vec<Outcome> = Vec::new();
    let mut calibration = f64::INFINITY;
    while walls.len() < MIN_ITERATIONS || start.elapsed() < budget {
        calibration = calibration.min(calibration_s());
        let now = start.elapsed().as_secs_f64();
        if setups.len() < SETUP_PROBES
            && now >= setups.len() as f64 * run.seconds / SETUP_PROBES as f64
        {
            setups.push(probe_setup(run)?);
        }
        let mut outcomes = Vec::with_capacity(inputs.len());
        let mut parts = Vec::new();
        for input in &inputs {
            let (outcome, seconds) = workloads::run_once(run.workload, input, threads)?;
            outcomes.push(outcome);
            parts.extend(seconds);
        }
        walls.push(parts.iter().sum::<f64>());
        if fastest_parts.is_empty() {
            fastest_parts = parts;
        } else {
            for (fastest, part) in fastest_parts.iter_mut().zip(parts) {
                *fastest = fastest.min(part);
            }
        }
        verdicts.attempted += outcomes.len() as u64;
        for o in &outcomes {
            verdicts.record(checks::books_balance(o.report()));
        }
        if firsts.is_empty() {
            firsts = outcomes;
        } else {
            for (f, o) in firsts.iter().zip(&outcomes) {
                verdicts.record(checks::same_as_first(f, o));
            }
        }
    }
    while setups.len() < SETUP_PROBES {
        setups.push(probe_setup(run)?);
    }
    verdicts.attempted += setups.len() as u64;
    // Interference from other tenants only ever slows a set-up or a part
    // of a pass down, and on a shared machine it comes and goes within
    // seconds: the fastest run of each is the one that ran without it, and
    // a pass's parts (a sub-seed's call, a stage of the sweep chain) are
    // short enough to fit between bursts. A busy phase of the host can
    // outlast a run and slow the fastest too; it slows the calibration
    // loop run beside the passes as well, so host times are rescaled by
    // the loop's fastest run.
    let host_scale = CALIBRATION_REF_S / calibration;
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min) * host_scale;
    let wall_s = fastest_parts.iter().sum::<f64>() * host_scale;

    if run.workload == Workload::MegaFleet {
        for (input, first) in inputs.iter().zip(&firsts) {
            if let Inputs::Fleet { scenario, .. } = input {
                let oracle = scenario.simulate_sharded(1, 1).map_err(|e| e.to_string())?;
                verdicts.attempted += 1;
                verdicts.record(checks::books_balance(&oracle));
                verdicts.record(checks::matches_oracle(first.report(), &oracle));
            }
        }
    }

    walls.sort_by(f64::total_cmp);
    let at = |q: f64| walls[((walls.len() - 1) as f64 * q).round() as usize];
    println!(
        "{} passes of {} sub-seeds; seconds min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}; \
         calibration {calibration:.6} s (host scale {host_scale:.4})",
        walls.len(),
        inputs.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
    let mut completed = 0;
    let mut evaluations = 0;
    let mut slo_per_watt = Vec::new();
    for (first, input) in firsts.iter().zip(&inputs) {
        let report = first.report();
        completed += report.completed;
        let (evals, per_watt) = match (first, input) {
            (Outcome::Sweep(s), _) => (
                s.total_stats().evaluated,
                uncontrolled_power_metrics(report, s.fleet_instances, workloads::idle_power_w())
                    .slo_per_watt,
            ),
            (Outcome::Controlled(c), Inputs::Fleet { scenario, .. }) => {
                (quote_calls(scenario, report)?, c.power.slo_per_watt)
            }
            (_, Inputs::Fleet { scenario, .. }) => (
                quote_calls(scenario, report)?,
                uncontrolled_power_metrics(
                    report,
                    scenario.instances.len(),
                    workloads::idle_power_w(),
                )
                .slo_per_watt,
            ),
            (_, Inputs::Sweep(_)) => return Err("fleet outcome from a sweep".into()),
        };
        evaluations += evals;
        slo_per_watt.push(per_watt);
    }
    let values: Values = [
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("sim_req_per_s", completed as f64 / wall_s),
        ("evals_per_s", evaluations as f64 / wall_s),
        ("peak_rss_mib", peak_rss_mib()),
        (
            "sim_p50_ms",
            median_of(&firsts, |o| o.report().latency.p50_s * 1e3),
        ),
        (
            "sim_p999_ms",
            median_of(&firsts, |o| o.report().latency.p999_s * 1e3),
        ),
        (
            "sim_slo_attainment",
            median_of(&firsts, |o| o.report().slo_attainment),
        ),
        (
            "sim_energy_per_req_mj",
            median_of(&firsts, |o| o.report().energy_per_request_j * 1e3),
        ),
        (
            "sim_served_frac",
            median_of(&firsts, |o| {
                let r = o.report();
                r.completed as f64 / r.offered.max(1) as f64
            }),
        ),
        ("sim_slo_per_watt", median(&slo_per_watt)),
    ]
    .into_iter()
    .collect();
    Ok((values, verdicts))
}
