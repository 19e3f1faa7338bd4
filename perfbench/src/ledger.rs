//! The traced run: a per-layer ledger.
//!
//! Spans are recorded from this file around calls into each layer's
//! public functions — the engine itself is not instrumented. Two kinds
//! of span feed the ledger:
//!
//! * **whole calls** (`simulate`, `simulate_sharded`, `quote_table`,
//!   `ShardPlan::new`, `grid_sweep`, `co_design`, …) timed as the
//!   workload makes them, giving walls, speedups and overheads;
//! * **unit costs** of the layers the engine calls per request, batch or
//!   candidate (arrival sampling, class queues, timing wheel, latency
//!   histogram, service quotes, the dse evaluator's models), measured
//!   on this workload's own parameters.
//!
//! Each layer's share is its count in this run × its unit cost over the
//! ledger wall; `unattributed_share` is what is left. Counts come from
//! the run's reports and from the traced twin's `Profile`. A layer the
//! workload does not call reads 0.

use crate::checks;
use crate::e2e::{quote_calls, Run, Verdicts};
use crate::report::{Values, PER_LAYER};
use crate::stats::{median_time, repeat_for, time};
use crate::workloads::{self, Inputs, Outcome, Sweep, Workload, MEGA_SHARDS};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_core::analytical::AnalyticalModel;
use pcnna_core::feasibility::FeasibilityModel;
use pcnna_core::power::{PowerAssumptions, PowerModel};
use pcnna_core::serving::{service_quote, QuoteRequest};
use pcnna_core::PcnnaConfig;
use pcnna_dse::objectives::crosstalk_ratio;
use pcnna_dse::prelude::*;
use pcnna_fleet::engine::{EventTime, QuoteTable, TimingWheel};
use pcnna_fleet::prelude::*;
use pcnna_fleet::scheduler::ClassQueues;
use pcnna_fleet::workload::{ArrivalSampler, ClassSampler, Request};
use pcnna_photonics::degradation::{DegradationLimits, HealthState};
use pcnna_photonics::link::BroadcastWeightLink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

/// Operations per unit-cost span (arrivals, queue ops, wheel ops,
/// histogram records).
const UNIT_OPS: usize = 200_000;
/// Design candidates sampled for the evaluator-model unit costs.
const MODEL_SAMPLE: usize = 256;
/// Distinct fault health snapshots the degraded-quote cost is taken over.
const MAX_HEALTHS: usize = 16;

/// Budgets: a whole-call leg gets an eighth of the run, a unit-cost leg
/// a fiftieth, so a traced run lasts about as long as an untraced one.
struct Budgets {
    call: Duration,
    unit: Duration,
}

impl Budgets {
    fn new(seconds: f64) -> Budgets {
        Budgets {
            call: Duration::from_secs_f64(seconds / 8.0),
            unit: Duration::from_secs_f64(seconds / 50.0),
        }
    }
}

/// Runs the traced measurement of `run`.
///
/// # Errors
///
/// Returns a reason if set-up or a simulation call fails outright;
/// failed checks are returned in the [`Verdicts`] instead.
pub fn measure(run: &Run) -> Result<(Values, Verdicts), String> {
    let mut v: Values = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut verdicts = Verdicts::default();
    // This process is fresh: its first top-1 query trains the proxy.
    let (proxy_s, _) = time(pcnna_cnn::train::pristine_top1);
    v.insert("cnn.proxy_ladder_s", proxy_s);
    let b = Budgets::new(run.seconds);
    let inputs = workloads::setup(run.workload, run.seed, run.size)?;
    match &inputs {
        Inputs::Fleet { scenario, control } => {
            fleet_ledger(run, scenario, control.as_ref(), &b, &mut v, &mut verdicts)?;
        }
        Inputs::Sweep(sweep) => sweep_ledger(run, sweep, &b, &mut v, &mut verdicts)?,
    }
    let attributed: f64 = v
        .iter()
        .filter(|(name, _)| name.ends_with(".share"))
        .map(|(_, x)| x)
        .sum();
    v.insert("unattributed_share", 1.0 - attributed);
    Ok((v, verdicts))
}

/// A whole call's result that carries a fleet report.
trait Reported: Clone + PartialEq {
    fn fleet_report(&self) -> &FleetReport;
}

impl Reported for FleetReport {
    fn fleet_report(&self) -> &FleetReport {
        self
    }
}

impl Reported for ControlledReport {
    fn fleet_report(&self) -> &FleetReport {
        &self.report
    }
}

impl Reported for Outcome {
    fn fleet_report(&self) -> &FleetReport {
        self.report()
    }
}

impl<T: Reported, U: Clone + PartialEq> Reported for (T, U) {
    fn fleet_report(&self) -> &FleetReport {
        self.0.fleet_report()
    }
}

/// Times `f` over a whole-call leg, checking every outcome's books and
/// that repeats reproduce the first. Returns (fastest seconds, first):
/// the fastest call is the one other tenants slowed least, as for
/// `wall_s`.
fn call_leg<T: Reported>(
    budget: Duration,
    verdicts: &mut Verdicts,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut first: Option<T> = None;
    let mut failures = Vec::new();
    let times = repeat_for(budget, 2, usize::MAX, || {
        let out = f()?;
        if let Err(e) = checks::books_balance(out.fleet_report()) {
            failures.push(e);
        }
        match &first {
            None => first = Some(out),
            Some(x) if *x != out => failures.push("repeated call diverged from the first".into()),
            Some(_) => {}
        }
        Ok::<(), String>(())
    })?;
    verdicts.attempted += times.len() as u64;
    verdicts.failures.extend(failures);
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    Ok((fastest, first.ok_or("no call ran")?))
}

/// Median microseconds of one `service_quote` over every (class,
/// health) pair.
fn quote_us(
    b: &Budgets,
    config: &PcnnaConfig,
    classes: &[NetworkClass],
    healths: &[HealthState],
    limits: DegradationLimits,
) -> f64 {
    if healths.is_empty() {
        return 0.0;
    }
    let assumptions = PowerAssumptions::default();
    let layers: Vec<Vec<(&str, ConvGeometry)>> = classes.iter().map(|c| c.layer_refs()).collect();
    let calls = (layers.len() * healths.len()) as f64;
    median_time(b.unit, 3, usize::MAX, || {
        for l in &layers {
            for h in healths {
                let req = QuoteRequest::new(config, &assumptions, l)
                    .with_health(*h)
                    .with_limits(limits);
                black_box(service_quote(&req).ok());
            }
        }
    }) / calls
        * 1e6
}

fn fleet_ledger(
    run: &Run,
    scenario: &FleetScenario,
    control: Option<&ControlConfig>,
    b: &Budgets,
    v: &mut Values,
    verdicts: &mut Verdicts,
) -> Result<(), String> {
    let err = |e: pcnna_fleet::FleetError| e.to_string();
    let threads = workloads::nproc();
    let n_classes = scenario.classes.len() as f64;
    let config = scenario.instances[0];
    let nominal = [HealthState::nominal()];
    let healths = fault_healths(scenario, MAX_HEALTHS);
    let quote_nominal_us = quote_us(b, &config, &scenario.classes, &nominal, scenario.limits);
    let quote_degraded_us = quote_us(b, &config, &scenario.classes, &healths, scenario.limits);
    v.insert("core.quote_us", quote_nominal_us);
    v.insert("core.quote_degraded_us", quote_degraded_us);
    let validate_s = median_time(b.unit, 3, usize::MAX, || {
        black_box(scenario.validate().is_ok());
    });
    let quote_table_s = median_time(b.unit, 3, usize::MAX, || {
        black_box(scenario.quote_table().ok());
    });
    v.insert("engine.validate_s", validate_s);
    v.insert("engine.quote_table_s", quote_table_s);
    let quotes = scenario.quote_table().map_err(err)?;

    let tcfg = TraceConfig::default();
    // (ledger wall, the report the counts come from, its traced twin's
    // profile and batches, control-loop seconds, shard-plan seconds)
    let (wall, report, profile, profile_batches, control_s, plan_s) = match run.workload {
        Workload::SmallFleet => {
            let (whole, whole_r) = call_leg(b.call, verdicts, || scenario.simulate().map_err(err))?;
            let (s11, s11_r) = call_leg(b.call, verdicts, || {
                scenario.simulate_sharded(1, 1).map_err(err)
            })?;
            let (traced, (traced_r, trace)) = call_leg(b.call, verdicts, || {
                scenario.simulate_sharded_traced(1, 1, &tcfg).map_err(err)
            })?;
            verdicts.record(checks::matches_oracle(&traced_r, &s11_r));
            v.insert("shard.s11_over_whole", s11 / whole);
            v.insert("shard.s11_batches", s11_r.batches as f64);
            v.insert("shard.s11_weight_reloads", s11_r.weight_reloads as f64);
            v.insert("telemetry.overhead", traced / s11);
            (whole, whole_r, trace.profile, traced_r.batches, 0.0, 0.0)
        }
        Workload::MegaFleet => {
            let (plan_s, cells) = {
                let t = median_time(b.unit, 3, usize::MAX, || {
                    black_box(ShardPlan::new(scenario, Some(&quotes)).n_cells());
                });
                (t, ShardPlan::new(scenario, Some(&quotes)).n_cells())
            };
            v.insert("shard.plan_s", plan_s);
            v.insert("shard.cells", cells as f64);
            let (par, par_r) = call_leg(b.call, verdicts, || {
                scenario.simulate_sharded(MEGA_SHARDS, threads).map_err(err)
            })?;
            let (serial, serial_r) = call_leg(b.call, verdicts, || {
                scenario.simulate_sharded(MEGA_SHARDS, 1).map_err(err)
            })?;
            let (mono, _) = call_leg(b.call, verdicts, || scenario.simulate().map_err(err))?;
            let (traced, (traced_r, trace)) = call_leg(b.call, verdicts, || {
                scenario
                    .simulate_sharded_traced(MEGA_SHARDS, threads, &tcfg)
                    .map_err(err)
            })?;
            verdicts.record(checks::matches_oracle(&par_r, &serial_r));
            verdicts.record(checks::matches_oracle(&traced_r, &serial_r));
            v.insert("shard.thread_speedup", serial / par);
            v.insert("shard.arch_speedup", mono / serial);
            v.insert("telemetry.overhead", traced / par);
            // Unit costs are single-thread, so the ledger is taken
            // against the single-thread (16, 1) wall.
            let batches = serial_r.batches;
            (serial, serial_r, trace.profile, batches, 0.0, plan_s)
        }
        Workload::ChaosControl => {
            let cfg = control.ok_or("chaos-control has no control config")?;
            let (t_compile, compiled) = (
                median_time(b.unit, 3, usize::MAX, || {
                    black_box(
                        workloads::chaos_spec(run.seed, run.size)
                            .and_then(|s| s.compile().map_err(|e| e.to_string()))
                            .is_ok(),
                    );
                }),
                workloads::chaos_spec(run.seed, run.size)?
                    .compile()
                    .map_err(err)?,
            );
            verdicts.attempted += 1;
            if compiled.scenario != *scenario {
                verdicts
                    .failures
                    .push("re-compiled chaos scenario differs".into());
            }
            v.insert("scenario.compile_s", t_compile);
            let (controlled, c) = call_leg(b.call, verdicts, || {
                scenario
                    .simulate_controlled(cfg, &mut ReactivePolicy::new())
                    .map_err(err)
            })?;
            let (plain, _) = call_leg(b.call, verdicts, || scenario.simulate().map_err(err))?;
            let (traced, (traced_c, telemetry)) = call_leg(b.call, verdicts, || {
                scenario
                    .simulate_controlled_traced(cfg, &mut ReactivePolicy::new(), &tcfg)
                    .map_err(err)
            })?;
            verdicts.record(checks::same_as_first(
                &Outcome::Controlled(c.clone()),
                &Outcome::Controlled(traced_c),
            ));
            v.insert("control.overhead", controlled / plain);
            v.insert("control.windows", c.windows as f64);
            v.insert("control.scale_ups", c.scale_ups as f64);
            v.insert("control.scale_downs", c.scale_downs as f64);
            v.insert("telemetry.overhead", traced / controlled);
            let batches = c.report.batches;
            (
                controlled,
                c.report,
                telemetry.trace.profile,
                batches,
                (controlled - plain).max(0.0),
                0.0,
            )
        }
        Workload::DesignSweep => return Err("design-sweep has no fleet ledger".into()),
    };

    let calls = quote_calls(scenario, &report)?;
    let setup_calls = quotes.n_rows() as f64 * n_classes;
    let requote_calls = calls as f64 - setup_calls;
    v.insert("core.quote_calls", calls as f64);
    v.insert("faults.events", report.resilience.fault_events as f64);
    v.insert("faults.requotes", report.resilience.requotes as f64);
    v.insert("engine.batches", report.batches as f64);
    v.insert("engine.weight_reloads", report.weight_reloads as f64);
    v.insert("engine.dispatch_scans", profile.dispatch_scans as f64);
    v.insert("engine.quote_lookups", profile.quote_lookups as f64);
    v.insert("wheel.pushes", profile.wheel_pushes as f64);
    v.insert("wheel.pops", profile.wheel_pops as f64);
    v.insert("telemetry.events_recorded", profile.events_recorded as f64);

    // The engine keeps one queue set and one wheel per cell, so queue
    // and wheel costs are taken at a cell's class count and depth (a
    // busy instance has one completion in flight).
    let cells = match run.workload {
        Workload::MegaFleet => ShardPlan::new(scenario, Some(&quotes)).n_cells(),
        _ => 1,
    };
    let cell_classes = scenario.classes.len().div_ceil(cells);
    let cell_depth = scenario.instances.len().div_ceil(cells);
    let arrival_ns = arrival_ns(b, scenario);
    let sched_ns = scheduler_ns(b, scenario, cell_classes, report.mean_batch);
    let wheel_ns = wheel_ns(b, &quotes, cell_depth, &report);
    let (record_ns, merge_us) = histogram_costs(b, &report);
    v.insert("workload.arrival_ns", arrival_ns);
    v.insert("scheduler.ns_per_req", sched_ns);
    v.insert("wheel.ns_per_op", wheel_ns);
    v.insert("metrics.record_ns", record_ns);
    v.insert("metrics.merge_us", merge_us);

    let share = |seconds: f64| seconds / wall;
    v.insert(
        "core.share",
        share((setup_calls * quote_nominal_us + requote_calls * quote_degraded_us) * 1e-6),
    );
    v.insert("engine.share", share(validate_s));
    v.insert("shard.share", share(plan_s));
    v.insert(
        "workload.share",
        share(report.offered as f64 * arrival_ns * 1e-9),
    );
    v.insert(
        "scheduler.share",
        share(report.admitted as f64 * sched_ns * 1e-9),
    );
    // On small-fleet the profile is the sharded (1, 1) twin's, which
    // batches differently; its measured wheel operations per batch are
    // scaled to the whole-fleet run's batches.
    let wheel_ops = (profile.wheel_pushes + profile.wheel_pops) as f64 * report.batches as f64
        / profile_batches.max(1) as f64;
    v.insert("wheel.share", share(wheel_ops * wheel_ns * 1e-9));
    v.insert(
        "metrics.share",
        share(
            report.completed as f64 * record_ns * 1e-9
                + profile.merge_folds as f64 * merge_us * 1e-6,
        ),
    );
    v.insert("control.share", share(control_s));
    Ok(())
}

/// The distinct degraded health snapshots a scenario's fault timeline
/// applies, in first-seen order (at most `limit`).
fn fault_healths(scenario: &FleetScenario, limit: usize) -> Vec<HealthState> {
    let mut out: Vec<HealthState> = Vec::new();
    for ev in scenario.faults.events() {
        if let FaultAction::Degrade(h) = ev.action {
            if out.len() < limit && !out.contains(&h) {
                out.push(h);
            }
        }
    }
    out
}

/// Nanoseconds to draw one arrival time and its class, with this
/// scenario's process, mix and seed.
fn arrival_ns(b: &Budgets, scenario: &FleetScenario) -> f64 {
    let sampler = ClassSampler::new(&scenario.classes);
    median_time(b.unit, 3, usize::MAX, || {
        let mut arrivals = ArrivalSampler::new(scenario.arrival, scenario.seed);
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let mut acc = 0.0;
        for _ in 0..UNIT_OPS {
            acc += arrivals.next_arrival_s();
            acc += sampler.sample(&mut rng) as f64;
        }
        black_box(acc);
    }) / UNIT_OPS as f64
        * 1e9
}

/// Nanoseconds per request through the class queues: admit, rank the
/// classes, pop a batch — at `n` classes (a cell's share of this
/// scenario's mix), its policy, and the run's measured mean batch.
fn scheduler_ns(b: &Budgets, scenario: &FleetScenario, n: usize, mean_batch: f64) -> f64 {
    let batch = (mean_batch.round() as usize).clamp(1, scenario.max_batch as usize);
    let sampler = ClassSampler::new(&scenario.classes[..n]);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let requests: Vec<Request> = (0..UNIT_OPS)
        .map(|i| {
            let class = sampler.sample(&mut rng);
            let arrival_s = i as f64 * 1e-6;
            Request {
                id: i as u64,
                class,
                arrival_s,
                deadline_s: arrival_s + scenario.classes[class].slo_s,
            }
        })
        .collect();
    let mut queues = ClassQueues::new(n);
    let mut ranked = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(batch);
    median_time(b.unit, 3, usize::MAX, || {
        for chunk in requests.chunks(batch) {
            for r in chunk {
                queues.push(*r);
            }
            queues.ranked_classes(scenario.policy, &mut ranked);
            if let Some(&class) = ranked.first() {
                queues.pop_batch_into(class, scenario.max_batch, &mut out);
                black_box(out.len());
            }
        }
        // drain what class interleaving left behind
        while !queues.is_empty() {
            queues.ranked_classes(scenario.policy, &mut ranked);
            queues.pop_batch_into(ranked[0], scenario.max_batch, &mut out);
        }
    }) / UNIT_OPS as f64
        * 1e9
}

/// Nanoseconds per timing-wheel operation (a pop and the push that
/// replaces it) at `depth` events in flight, with batch service times
/// drawn from this scenario's quotes at the run's mean batch and
/// weight-reload rate.
fn wheel_ns(b: &Budgets, quotes: &QuoteTable, depth: usize, report: &FleetReport) -> f64 {
    let depth = depth.max(1);
    let row = quotes.row(0);
    let reload_frac = report.weight_reloads as f64 / report.batches.max(1) as f64;
    let mut rng = StdRng::seed_from_u64(depth as u64);
    let services: Vec<f64> = (0..1024)
        .map(|_| {
            let q = row[rng.gen_range(0..row.len())];
            let s = q.per_frame.as_secs_f64() * report.mean_batch.max(1.0)
                + q.weight_load.as_secs_f64() * reload_frac;
            s * rng.gen_range(0.5..1.5)
        })
        .collect();
    median_time(b.unit, 3, usize::MAX, || {
        let mut wheel = TimingWheel::new();
        for i in 0..depth {
            let at = EventTime::try_new(services[i % services.len()]).expect("finite time");
            wheel.push(at, i as u32, 0);
        }
        for i in 0..UNIT_OPS / 2 {
            let ev = wheel.pop().expect("wheel keeps its depth");
            let at = EventTime::try_new(ev.at.get() + services[i % services.len()])
                .expect("finite time");
            wheel.push(at, ev.instance, ev.epoch);
        }
        black_box(wheel.len());
    }) / UNIT_OPS as f64
        * 1e9
}

/// (ns per `LatencyHistogram::record`, µs per `LatencyHistogram::merge`)
/// over latencies spread like this run's.
fn histogram_costs(b: &Budgets, report: &FleetReport) -> (f64, f64) {
    let lo = report.latency.min_s.max(1e-9);
    let hi = report.latency.max_s.max(lo * 2.0);
    let mut rng = StdRng::seed_from_u64(0x4157);
    let samples: Vec<f64> = (0..UNIT_OPS)
        .map(|_| lo * (hi / lo).powf(rng.gen_range(0.0..1.0)))
        .collect();
    let record_ns = median_time(b.unit, 3, usize::MAX, || {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        black_box(h.count());
    }) / UNIT_OPS as f64
        * 1e9;
    let mut a = LatencyHistogram::new();
    let mut other = LatencyHistogram::new();
    for (i, &s) in samples.iter().enumerate() {
        if i % 2 == 0 { &mut a } else { &mut other }.record(s);
    }
    const MERGES: usize = 1_000;
    let merge_us = median_time(b.unit, 3, usize::MAX, || {
        let mut acc = a.clone();
        for _ in 0..MERGES {
            acc.merge(&other);
        }
        black_box(acc.count());
    }) / MERGES as f64
        * 1e6;
    (record_ns, merge_us)
}

/// Per-evaluation microseconds on one network, over a seeded sample of
/// the sweep's candidates: `[whole evaluation, analytical, feasibility,
/// power, link SNR]` — the last four are the evaluator's model calls.
fn model_us(b: &Budgets, sample: &[Candidate], ev: &Evaluator) -> [f64; 5] {
    let assumptions = PowerAssumptions::default();
    let layers = &ev.layer_refs();
    let per = |t: f64| t / sample.len() as f64 * 1e6;
    let evaluate = median_time(b.unit, 3, usize::MAX, || {
        for c in sample {
            black_box(ev.evaluate(c));
        }
    });
    let analytical = median_time(b.unit, 3, usize::MAX, || {
        for c in sample {
            if let Ok(m) = AnalyticalModel::new(c.config) {
                for (_, g) in layers {
                    black_box(m.layer_full_system_time(g).ok());
                }
            }
        }
    });
    let feasibility = median_time(b.unit, 3, usize::MAX, || {
        for c in sample {
            if let Ok(m) = FeasibilityModel::new(c.config, c.budget) {
                for (_, g) in layers {
                    black_box(m.layer_spectrum(g));
                }
            }
        }
    });
    let exec_s: Vec<Vec<f64>> = sample
        .iter()
        .map(|c| {
            let m = AnalyticalModel::new(c.config).ok();
            layers
                .iter()
                .map(|(_, g)| {
                    m.as_ref()
                        .and_then(|m| m.layer_full_system_time(g).ok())
                        .map_or(0.0, |t| t.as_secs_f64())
                })
                .collect()
        })
        .collect();
    let power = median_time(b.unit, 3, usize::MAX, || {
        for (c, secs) in sample.iter().zip(&exec_s) {
            if let Ok(m) = PowerModel::new(c.config, assumptions) {
                for ((_, g), s) in layers.iter().zip(secs) {
                    black_box(m.layer_energy_j(g, *s));
                }
            }
        }
    });
    let link = median_time(b.unit, 3, usize::MAX, || {
        for c in sample {
            if let Ok(l) = BroadcastWeightLink::new(c.config.link, 1, 1) {
                black_box(l.full_scale_snr());
            }
            black_box(crosstalk_ratio(
                c.config.link.ring.q_factor,
                c.budget.channel_spacing_hz,
                c.budget.center_m,
            ));
        }
    });
    [
        per(evaluate),
        per(analytical),
        per(feasibility),
        per(power),
        per(link),
    ]
}

fn sweep_ledger(
    run: &Run,
    sweep: &Sweep,
    b: &Budgets,
    v: &mut Values,
    verdicts: &mut Verdicts,
) -> Result<(), String> {
    let (wall, outcome) = call_leg(b.call, verdicts, || {
        workloads::run_once(run.workload, &Inputs::Sweep(sweep.clone()), 1).map(|(o, _)| o)
    })?;
    let Outcome::Sweep(outcome) = outcome else {
        return Err("design-sweep produced a fleet outcome".into());
    };
    let total = outcome.total_stats();
    v.insert("dse.evaluated", total.evaluated as f64);
    v.insert("dse.cache_hits", total.cache_hits as f64);
    v.insert("dse.frontier_len", outcome.frontiers[0].len() as f64);

    let config = PcnnaConfig::default();
    let nominal = [HealthState::nominal()];
    v.insert(
        "core.quote_us",
        quote_us(
            b,
            &config,
            &sweep.classes,
            &nominal,
            DegradationLimits::default(),
        ),
    );

    let candidates: Vec<Candidate> = sweep
        .space
        .grid_choices()
        .into_iter()
        .map(|c| sweep.space.assemble(c))
        .collect();
    let per_candidate_ns = |t: f64| t / candidates.len() as f64 * 1e9;
    let choices = sweep.space.grid_choices();
    let assemble_ns = per_candidate_ns(median_time(b.unit, 3, usize::MAX, || {
        for c in &choices {
            black_box(sweep.space.assemble(*c));
        }
    }));
    let fingerprint_ns = per_candidate_ns(median_time(b.unit, 3, usize::MAX, || {
        for c in &candidates {
            black_box(c.fingerprint());
        }
    }));
    let fingerprints: Vec<u64> = candidates.iter().map(Candidate::fingerprint).collect();
    let cache_ns = per_candidate_ns(median_time(b.unit, 3, usize::MAX, || {
        let mut cache = EvalCache::new();
        for &fp in &fingerprints {
            if cache.get(fp).is_none() {
                cache.insert(fp, None);
            }
        }
        black_box(cache.len());
    }));
    v.insert("dse.assemble_ns", assemble_ns);
    v.insert("dse.fingerprint_ns", fingerprint_ns);
    v.insert("dse.cache_ns", cache_ns);

    // Replay the AlexNet grid's verdicts into a fresh frontier.
    let alexnet = &sweep.evaluators[0];
    let verdict_list: Vec<(Candidate, DesignPoint)> = candidates
        .iter()
        .filter_map(|c| alexnet.evaluate(c).map(|p| (*c, p)))
        .collect();
    let mut replayed = 0;
    let insert_ns = median_time(b.unit, 3, usize::MAX, || {
        let mut frontier = ParetoFrontier::new();
        for (c, p) in &verdict_list {
            frontier.insert(*c, *p);
        }
        replayed = frontier.len();
    }) / verdict_list.len().max(1) as f64
        * 1e9;
    v.insert("dse.pareto_insert_ns", insert_ns);
    verdicts.attempted += 1;
    if replayed != outcome.frontiers[0].len() {
        verdicts.failures.push(format!(
            "replayed AlexNet frontier has {replayed} designs, the sweep's {}",
            outcome.frontiers[0].len()
        ));
    }

    let grid_frontier = grid_sweep(&sweep.space, alexnet, 1).map_err(|e| e.to_string())?;
    let codesign_s = median_time(b.unit, 2, usize::MAX, || {
        black_box(co_design(&grid_frontier.frontier, &sweep.classes, &sweep.codesign).ok());
    });
    v.insert("dse.codesign_s", codesign_s);

    // Unit model costs per network, weighted by that network's fresh
    // evaluations (grid stages in evaluator order; the evolve is on the
    // first evaluator).
    let mut rng = StdRng::seed_from_u64(run.seed);
    let sample: Vec<Candidate> = (0..MODEL_SAMPLE.min(candidates.len()))
        .map(|_| candidates[rng.gen_range(0..candidates.len())])
        .collect();
    let mut weighted = [0.0f64; 5];
    for (i, ev) in sweep.evaluators.iter().enumerate() {
        let evals = outcome.stats[i].evaluated
            + if i == 0 {
                outcome.stats.last().map_or(0, |s| s.evaluated)
            } else {
                0
            };
        let costs = model_us(b, &sample, ev);
        for (w, c) in weighted.iter_mut().zip(costs) {
            *w += evals as f64 * c;
        }
    }
    let evals = total.evaluated.max(1) as f64;
    let [evaluate, analytical, feasibility, power, link] = weighted;
    v.insert("dse.evaluate_us", evaluate / evals);
    v.insert("core.analytical_us", analytical / evals);
    v.insert("core.feasibility_us", feasibility / evals);
    v.insert("core.power_us", power / evals);
    v.insert("photonics.link_snr_us", link / evals);

    // The evaluator's self time (its span minus its model calls) is
    // the dse layer's, with the search loop's per-proposal work.
    let share = |seconds: f64| seconds / wall;
    let models = analytical + feasibility + power;
    v.insert("core.share", share(models * 1e-6));
    v.insert("photonics.share", share(link * 1e-6));
    let proposals = (total.evaluated + total.cache_hits) as f64;
    let dse_ns = proposals * (assemble_ns + fingerprint_ns)
        + total.evaluated as f64 * cache_ns
        + total.valid as f64 * insert_ns;
    let evaluator_self_s = (evaluate - models - link).max(0.0) * 1e-6;
    v.insert(
        "dse.share",
        share(dse_ns * 1e-9 + evaluator_self_s + codesign_s),
    );
    Ok(())
}
