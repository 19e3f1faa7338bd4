//! The four workloads: seeded inputs, their set-up, and the one
//! simulation call a measured pass makes per traffic sub-seed.

use crate::stats::time;
use pcnna_core::serving::{service_quote, QuoteRequest};
use pcnna_core::PcnnaConfig;
use pcnna_dse::prelude::*;
use pcnna_fleet::prelude::*;
use std::time::Instant;

/// Shard count of the mega-fleet workload (16 classes ⇒ 16 cells).
pub(crate) const MEGA_SHARDS: usize = 16;
/// Instance count the chaos-control workload scales `heat-wave` to.
const CHAOS_INSTANCES: usize = 256;
/// Idle power per powered instance used to price SLO-per-watt of an
/// open-loop fleet, watts (the control plane's default).
pub(crate) fn idle_power_w() -> f64 {
    ControlConfig::default().idle_power_w
}

/// The committed heat-wave scenario the chaos-control workload scales.
const HEAT_WAVE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/heat-wave.json");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4 instances, LeNet-5 + AlexNet, Poisson 50k req/s, `simulate()`.
    SmallFleet,
    /// 1 000 instances × 16 LeNet classes near saturation, sharded.
    MegaFleet,
    /// `heat-wave` at 256 instances under the reactive control loop.
    ChaosControl,
    /// AlexNet + VGG-16 grid sweeps, an evolve and a co-design.
    DesignSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SmallFleet,
        Workload::MegaFleet,
        Workload::ChaosControl,
        Workload::DesignSweep,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallFleet => "small-fleet",
            Workload::MegaFleet => "mega-fleet",
            Workload::ChaosControl => "chaos-control",
            Workload::DesignSweep => "design-sweep",
        }
    }

    /// Traffic sub-seeds one measured pass runs, each once. The
    /// simulated metrics are medians over them, so a short pass still
    /// rests on enough traffic for a steady tail quantile.
    #[must_use]
    pub fn sub_seeds(self) -> usize {
        match self {
            Workload::SmallFleet => 8,
            Workload::ChaosControl => 2,
            Workload::MegaFleet | Workload::DesignSweep => 1,
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Smoke` is a tiny
/// version of the same workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Measured size.
    Full,
    /// Seconds-scale smoke size.
    Smoke,
}

/// A workload's generated inputs for one sub-seed, ready for measured
/// passes. Built once per process, so the variants' size difference does
/// not matter.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A fleet scenario; `control` is set for the closed-loop workload.
    Fleet {
        /// The scenario passed to the engine.
        scenario: FleetScenario,
        /// Closed-loop parameters (chaos-control only).
        control: Option<ControlConfig>,
    },
    /// A design-space exploration.
    Sweep(Sweep),
}

/// The design-sweep inputs.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The design space both grids sweep.
    pub space: DesignSpace,
    /// One evaluator per swept network (AlexNet first).
    pub evaluators: Vec<Evaluator>,
    /// The seeded evolutionary search on AlexNet.
    pub evolution: EvolutionConfig,
    /// Classes the co-design fleets serve.
    pub classes: Vec<NetworkClass>,
    /// The co-design ranking parameters.
    pub codesign: CodesignConfig,
}

/// What one simulation call of a measured pass produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An open-loop fleet run.
    Fleet(FleetReport),
    /// A closed-loop fleet run.
    Controlled(ControlledReport),
    /// A design sweep.
    Sweep(SweepOutcome),
}

/// The result of one design sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Each grid sweep's frontier (in evaluator order), then the
    /// evolutionary frontier, as design points.
    pub frontiers: Vec<Vec<DesignPoint>>,
    /// Search counters of each stage: one per grid sweep (in evaluator
    /// order), then the evolve.
    pub stats: Vec<SearchStats>,
    /// The co-design ranking.
    pub rows: Vec<CodesignRow>,
    /// The top-ranked co-design fleet, simulated again as a serving
    /// check: the workload's simulated serving figures come from it.
    pub fleet: FleetReport,
    /// Instances in that fleet.
    pub fleet_instances: usize,
}

impl Outcome {
    /// The fleet report the simulated metrics are read from.
    #[must_use]
    pub fn report(&self) -> &FleetReport {
        match self {
            Outcome::Fleet(r) => r,
            Outcome::Controlled(c) => &c.report,
            Outcome::Sweep(s) => &s.fleet,
        }
    }
}

/// The seed of sub-seed `i` of a run seeded `seed`: distinct across runs
/// whose seeds differ.
#[must_use]
pub fn sub_seed(workload: Workload, seed: u64, i: usize) -> u64 {
    let k = workload.sub_seeds() as u64;
    seed.wrapping_mul(k).wrapping_add(i as u64)
}

/// The small-fleet scenario (the `perf` fleet leg), one sub-seed's slice.
#[must_use]
pub(crate) fn small_fleet(seed: u64, size: Size) -> FleetScenario {
    FleetScenario {
        classes: vec![
            NetworkClass::lenet5(0.005, 2.0),
            NetworkClass::alexnet(0.050, 1.0),
        ],
        arrival: ArrivalProcess::Poisson { rate_rps: 50_000.0 },
        policy: Policy::NetworkAffinity,
        instances: vec![PcnnaConfig::default(); 4],
        horizon_s: match size {
            Size::Full => 1.5,
            Size::Smoke => 0.2,
        },
        queue_capacity: 1_000_000,
        seed,
        ..FleetScenario::default()
    }
}

/// The mega-fleet scenario (the `perf` mega leg).
#[must_use]
fn mega_fleet(seed: u64, size: Size) -> FleetScenario {
    let classes = (0..16)
        .map(|i| NetworkClass::lenet5(0.002 + 0.001 * f64::from(i), 1.0))
        .collect();
    FleetScenario {
        classes,
        arrival: ArrivalProcess::Poisson {
            rate_rps: 10_000_000.0,
        },
        policy: Policy::NetworkAffinity,
        instances: vec![PcnnaConfig::default(); 1_000],
        max_batch: 32,
        queue_capacity: 1_000_000,
        horizon_s: match size {
            Size::Full => 0.03,
            Size::Smoke => 0.002,
        },
        seed,
        ..FleetScenario::default()
    }
}

/// Loads the committed heat-wave scenario and scales the parsed spec:
/// instance count raised (to [`CHAOS_INSTANCES`] at full size), arrival
/// rate and queue bound scaled by the same factor, and the traffic seed
/// set to `seed`. The horizon stays the committed one: stretched, the
/// heat wave's recoveries fall on the tail quantile in a seed-dependent
/// way. The fault timeline keeps the
/// committed chaos seed, so every seed meets the same heat wave and the
/// simulated tail moves with the traffic only.
///
/// # Errors
///
/// Returns the load/parse failure, or a reason if the committed file no
/// longer has the shape this scaling expects.
pub(crate) fn chaos_spec(seed: u64, size: Size) -> Result<ScenarioSpec, String> {
    let instances = match size {
        Size::Full => CHAOS_INSTANCES,
        Size::Smoke => 8,
    };
    let mut spec = ScenarioSpec::load(HEAT_WAVE_PATH).map_err(|e| e.to_string())?;
    let factor = instances as f64 / spec.n_instances() as f64;
    for group in &mut spec.instances {
        group.count = (group.count as f64 * factor).round() as usize;
    }
    spec.arrival = match spec.arrival {
        ArrivalProcess::Poisson { rate_rps } => ArrivalProcess::Poisson {
            rate_rps: rate_rps * factor,
        },
        other => return Err(format!("heat-wave arrival is not Poisson: {other:?}")),
    };
    spec.queue_capacity = (spec.queue_capacity as f64 * factor).round() as usize;
    spec.seed = seed;
    Ok(spec)
}

/// The design space both grids sweep: denser than
/// `DesignSpace::default()` in every knob but the allocation policy
/// (24 576 points at full size).
#[must_use]
fn design_space(size: Size) -> DesignSpace {
    match size {
        Size::Full => DesignSpace {
            n_input_dacs: vec![4, 8, 10, 12, 16, 24, 32, 64],
            n_adcs: vec![8, 16, 24, 32, 48, 64],
            adc_bits: vec![6, 7, 8, 10],
            fast_clock_ghz: vec![2.5, 5.0, 7.5, 10.0],
            channel_spacing_ghz: vec![25.0, 50.0, 75.0, 100.0],
            ring_radius_um: vec![5.0, 7.5, 10.0, 20.0],
            ..DesignSpace::default()
        },
        Size::Smoke => DesignSpace::smoke(),
    }
}

/// Simulated seconds of traffic the top co-design fleet is re-simulated
/// for, so its tail quantile rests on enough requests.
const CHECK_FLEET_HORIZON_S: f64 = 5.0;
/// Traffic seed of that re-simulation: every chosen design meets the
/// same reference traffic, so its serving figures move with the design
/// the seeded search picked, not with the traffic.
const CHECK_FLEET_SEED: u64 = 0xC0DE;

/// Generates a workload's inputs from its seed. Nothing here quotes or
/// simulates; see [`setup`] for the set-up work.
///
/// # Errors
///
/// Returns a reason if the chaos scenario cannot be loaded or compiled.
pub(crate) fn inputs(workload: Workload, seed: u64, size: Size) -> Result<Inputs, String> {
    Ok(match workload {
        Workload::SmallFleet => Inputs::Fleet {
            scenario: small_fleet(seed, size),
            control: None,
        },
        Workload::MegaFleet => Inputs::Fleet {
            scenario: mega_fleet(seed, size),
            control: None,
        },
        Workload::ChaosControl => {
            let compiled = chaos_spec(seed, size)?
                .compile()
                .map_err(|e| e.to_string())?;
            Inputs::Fleet {
                scenario: compiled.scenario,
                control: Some(
                    compiled
                        .control
                        .map_or_else(ControlConfig::default, |c| c.config),
                ),
            }
        }
        Workload::DesignSweep => Inputs::Sweep(Sweep {
            space: design_space(size),
            evaluators: vec![Evaluator::alexnet(), Evaluator::vgg16()],
            evolution: EvolutionConfig {
                seed,
                threads: 1,
                ..EvolutionConfig::default()
            },
            classes: vec![NetworkClass::alexnet(0.050, 1.0)],
            codesign: CodesignConfig {
                seed,
                horizon_s: match size {
                    Size::Full => 0.5,
                    Size::Smoke => 0.02,
                },
                ..CodesignConfig::default()
            },
        }),
    })
}

/// A workload's set-up: everything a fresh process does before the
/// first arrival is admitted or the first candidate evaluated — scenario
/// load and compile (chaos-control), validation, the quote table (whose
/// first quote trains the accuracy proxy ladder), and the shard plan
/// (mega-fleet). The design sweep validates its space and warms the
/// quote path its co-design fleets use.
///
/// # Errors
///
/// Returns the first failing step's reason.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Result<Inputs, String> {
    let inputs = inputs(workload, seed, size)?;
    match &inputs {
        Inputs::Fleet { scenario, .. } => {
            scenario.validate().map_err(|e| e.to_string())?;
            let quotes = scenario.quote_table().map_err(|e| e.to_string())?;
            if workload == Workload::MegaFleet {
                let plan = ShardPlan::new(scenario, Some(&quotes));
                std::hint::black_box(plan.n_cells());
            }
        }
        Inputs::Sweep(sweep) => {
            sweep.space.validate().map_err(|e| e.to_string())?;
            let config = PcnnaConfig::default();
            let assumptions = pcnna_core::power::PowerAssumptions::default();
            for class in &sweep.classes {
                let layers = class.layer_refs();
                service_quote(&QuoteRequest::new(&config, &assumptions, &layers))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(inputs)
}

/// Runs one sub-seed of a measured pass: exactly one simulation call (or
/// one sweep → evolve → co-design chain) on `threads` worker threads.
/// Returns the outcome and the host seconds of each timed part: the
/// simulation call, or each stage of the chain (see [`Sweep::run`]).
///
/// # Errors
///
/// Returns the engine's failure as a string.
pub(crate) fn run_once(
    workload: Workload,
    inputs: &Inputs,
    threads: usize,
) -> Result<(Outcome, Vec<f64>), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (seconds, outcome) = match inputs {
        Inputs::Fleet { scenario, control } => time(|| match (workload, control) {
            (Workload::MegaFleet, _) => scenario
                .simulate_sharded(MEGA_SHARDS, threads)
                .map(Outcome::Fleet)
                .map_err(|e| err(&e)),
            (_, Some(cfg)) => scenario
                .simulate_controlled(cfg, &mut ReactivePolicy::new())
                .map(Outcome::Controlled)
                .map_err(|e| err(&e)),
            (_, None) => scenario.simulate().map(Outcome::Fleet).map_err(|e| err(&e)),
        }),
        Inputs::Sweep(sweep) => {
            let (outcome, stages) = sweep.run()?;
            return Ok((Outcome::Sweep(outcome), stages));
        }
    };
    Ok((outcome?, vec![seconds]))
}

impl Sweep {
    /// Sweeps every evaluator's grid on one thread, evolves on the first
    /// (AlexNet), co-designs fleets from AlexNet's grid frontier and
    /// re-simulates the top-ranked fleet. Returns the outcome and the host
    /// seconds of each stage: every grid sweep, the evolve, and the
    /// co-design with its re-simulation.
    ///
    /// # Errors
    ///
    /// Returns the first search, co-design or simulation failure.
    pub fn run(&self) -> Result<(SweepOutcome, Vec<f64>), String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut stats = Vec::new();
        let mut frontiers = Vec::new();
        let mut stages = Vec::new();
        let mut first: Option<ParetoFrontier> = None;
        for ev in &self.evaluators {
            let (seconds, out) = time(|| grid_sweep(&self.space, ev, 1));
            let out = out.map_err(|e| err(&e))?;
            stages.push(seconds);
            stats.push(out.stats);
            frontiers.push(points(&out.frontier));
            first.get_or_insert(out.frontier);
        }
        let frontier = first.ok_or("design sweep has no evaluators")?;
        let (seconds, evo) = time(|| evolve(&self.space, &self.evaluators[0], &self.evolution));
        let evo = evo.map_err(|e| err(&e))?;
        stages.push(seconds);
        stats.push(evo.stats);
        frontiers.push(points(&evo.frontier));
        let t0 = Instant::now();
        let rows = co_design(&frontier, &self.classes, &self.codesign).map_err(|e| err(&e))?;
        let top = rows.first().ok_or("co-design ranked no fleets")?;
        let instances = top
            .fingerprints
            .iter()
            .map(|fp| {
                frontier
                    .entries()
                    .iter()
                    .find(|e| e.point.fingerprint == *fp)
                    .map(|e| e.candidate.config)
                    .ok_or_else(|| format!("co-design fielded unknown design {fp:#x}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let c = &self.codesign;
        let scenario = FleetScenario {
            classes: self.classes.clone(),
            arrival: c.arrival,
            policy: c.policy,
            instances,
            max_batch: c.max_batch,
            queue_capacity: c.queue_capacity,
            seed: CHECK_FLEET_SEED,
            horizon_s: CHECK_FLEET_HORIZON_S.max(c.horizon_s),
            ..FleetScenario::default()
        };
        let fleet = scenario.simulate().map_err(|e| err(&e))?;
        stages.push(t0.elapsed().as_secs_f64());
        let outcome = SweepOutcome {
            frontiers,
            stats,
            rows,
            fleet,
            fleet_instances: scenario.instances.len(),
        };
        Ok((outcome, stages))
    }
}

impl SweepOutcome {
    /// Search counters summed over every stage.
    #[must_use]
    pub fn total_stats(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for s in &self.stats {
            total.evaluated += s.evaluated;
            total.valid += s.valid;
            total.invalid += s.invalid;
            total.cache_hits += s.cache_hits;
        }
        total
    }
}

fn points(frontier: &ParetoFrontier) -> Vec<DesignPoint> {
    frontier.entries().iter().map(|e| e.point).collect()
}

/// Worker threads the benchmark may use: the machine's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
