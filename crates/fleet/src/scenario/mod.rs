//! Declarative scenario files: a strict JSON format for fleet
//! experiments.
//!
//! A [`ScenarioSpec`] is the on-disk description of one serving
//! experiment: arrival process, class mix with SLOs, heterogeneous
//! instance configs, a fault timeline (explicit [`FaultAction`]
//! sequences or a named chaos generator reference), and an optional
//! closed-loop control section. [`ScenarioSpec::compile`] turns a
//! validated spec into the runnable [`FleetScenario`] (+
//! [`ControlConfig`] + policy) bundle; [`ScenarioSpec::render`] /
//! [`ScenarioSpec::parse`] round-trip it through JSON **losslessly**
//! (floats are shortest-roundtrip, integers exact — see
//! [`json`]) and **deterministically** (same spec ⇒ same bytes).
//!
//! The codec lives in [`json`]; it is also the one every report,
//! bench record and telemetry trace in the workspace renders through.
//!
//! Parsing is strict in the `try_from` style: unknown keys, missing
//! required fields, non-finite or negative times, out-of-range
//! instance indices, non-monotone per-instance fault sequences, and
//! empty class mixes are all rejected with a reason — nothing is
//! silently defaulted except fields documented as optional. Every
//! error names the key path it is about, e.g. `control.policy.alpha`
//! or `classes[1].slo_s`.
//!
//! Each type of the format lists its keys once, in its `Fields::walk`
//! at the end of this file; `render` and `parse` both walk that list.
//! A new knob is one entry there, next to its siblings, plus its range
//! check in the validator its type already has.
//!
//! ## Format reference
//!
//! ```json
//! {
//!   "name": "heat-wave",
//!   "seed": 7,
//!   "horizon_s": 0.05,
//!   "arrival": {"poisson": {"rate_rps": 45000.0}},
//!   "policy": "network-affinity",
//!   "classes": [
//!     {"network": "alexnet", "slo_s": 0.004, "weight": 1.0},
//!     {"network": "lenet5", "slo_s": 0.001, "weight": 3.0}
//!   ],
//!   "instances": [{"count": 4}],
//!   "max_batch": 32,
//!   "queue_capacity": 100000,
//!   "resident_weights": true,
//!   "limits": {"max_ambient_excursion_k": 0.2, "min_laser_power_factor": 0.5},
//!   "faults": {"chaos": {"kind": "heat-wave", "recalibration_s": 0.002, "seed": 7}}
//! }
//! ```
//!
//! `faults` may instead list explicit events:
//!
//! ```json
//! {"events": [
//!   {"at_s": 0.01, "instance": 0, "action": "fail"},
//!   {"at_s": 0.02, "instance": 0, "action": {"recalibrate": {"duration_s": 0.002}}},
//!   {"at_s": 0.03, "instance": 1, "action": {"degrade": {"ambient_delta_k": 0.5}}}
//! ]}
//! ```
//!
//! and an optional `control` section closes the loop:
//!
//! ```json
//! {"control": {
//!   "policy": {"kind": "reactive", "scale_up_load": 0.75},
//!   "config": {"window_s": 0.005, "boot_s": 0.004, "min_active": 1,
//!              "initial_active": 4, "max_step": 4, "idle_power_w": 2.0}
//! }}
//! ```
//!
//! Required fields: `name`, `classes`, `arrival`, `instances`,
//! `horizon_s`. Everything else defaults as [`FleetScenario::default`]
//! does (`seed` 0, `policy` `"fifo"`, `max_batch` 32,
//! `queue_capacity` 10000, `resident_weights` true, default limits,
//! no faults, no control).

pub mod json;
mod schema;

use crate::control::policy::{ControlPolicy, Hold, PredictivePolicy, ReactivePolicy};
use crate::control::ControlConfig;
use crate::engine::{validate_common, FleetScenario};
use crate::faults::{
    chaos_timeline, validate_events, ChaosConfig, ChaosKind, FaultAction, FaultEvent, FaultTimeline,
};
use crate::scheduler::Policy;
use crate::workload::{ArrivalProcess, NetworkClass};
use crate::{FleetError, Result};
use json::Json;
use pcnna_core::config::PcnnaConfig;
use pcnna_photonics::degradation::{DegradationLimits, HealthState};
use schema::{fresh, Blank, Fields, Io, Path, Value};
use std::collections::HashMap;

/// One served class in a scenario file: a model-zoo network name plus
/// its SLO and traffic weight.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Zoo network name: `"alexnet"`, `"lenet5"`, or `"vgg16"`.
    pub network: String,
    /// Latency SLO, seconds.
    pub slo_s: f64,
    /// Relative traffic weight (need not be normalized).
    pub weight: f64,
    /// Accuracy SLO: minimum quoted top-1 an instance must sustain to
    /// serve the class when the scenario's `accuracy_routing` is on
    /// (default `0.0` = any accuracy is acceptable). Must be in
    /// `[0, 1]`.
    pub min_accuracy: f64,
}

impl ClassSpec {
    fn to_class(&self) -> Option<NetworkClass> {
        let class = match self.network.as_str() {
            "alexnet" => NetworkClass::alexnet(self.slo_s, self.weight),
            "lenet5" => NetworkClass::lenet5(self.slo_s, self.weight),
            "vgg16" => NetworkClass::vgg16(self.slo_s, self.weight),
            _ => return None,
        };
        Some(class.with_min_accuracy(self.min_accuracy))
    }
}

/// Zoo networks a [`ClassSpec`] may reference.
pub const KNOWN_NETWORKS: [&str; 3] = ["alexnet", "lenet5", "vgg16"];

/// A group of identical accelerator instances, described as knob
/// overrides on [`PcnnaConfig::default`]. Omitted knobs keep the
/// paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// How many instances this group expands to.
    pub count: usize,
    /// Input DAC channels (default 10).
    pub input_dacs: Option<usize>,
    /// Output ADC channels (default 32).
    pub adcs: Option<usize>,
    /// Weight DAC channels (default 1).
    pub weight_dacs: Option<usize>,
    /// Microring pitch, meters.
    pub ring_pitch_m: Option<f64>,
    /// Bytes per transferred value (default 2).
    pub bytes_per_value: Option<u64>,
}

impl InstanceSpec {
    /// A group of `count` default-config instances.
    #[must_use]
    pub fn defaults(count: usize) -> Self {
        InstanceSpec {
            count,
            input_dacs: None,
            adcs: None,
            weight_dacs: None,
            ring_pitch_m: None,
            bytes_per_value: None,
        }
    }

    fn to_config(&self) -> PcnnaConfig {
        let d = PcnnaConfig::default();
        PcnnaConfig {
            n_input_dacs: self.input_dacs.unwrap_or(d.n_input_dacs),
            n_adcs: self.adcs.unwrap_or(d.n_adcs),
            n_weight_dacs: self.weight_dacs.unwrap_or(d.n_weight_dacs),
            ring_pitch_m: self.ring_pitch_m.unwrap_or(d.ring_pitch_m),
            bytes_per_value: self.bytes_per_value.unwrap_or(d.bytes_per_value),
            ..d
        }
    }
}

/// The fault section of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// An explicit event list (any [`FaultAction`] sequence).
    Events(Vec<FaultEvent>),
    /// A named chaos generator reference, expanded at compile time
    /// with the spec's `limits`.
    Chaos {
        /// Which named scenario to generate.
        kind: ChaosKind,
        /// Recalibration window passed to the generator, seconds.
        recalibration_s: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::Events(Vec::new())
    }
}

/// The control policy section of a scenario file: the policy to run,
/// carrying its knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The open-loop baseline.
    Hold,
    /// A [`ReactivePolicy`] with the file's knobs.
    Reactive(ReactivePolicy),
    /// A [`PredictivePolicy`] with the file's knobs.
    Predictive(PredictivePolicy),
}

impl PolicySpec {
    /// Every kind, with its default knobs.
    fn kinds() -> [PolicySpec; 3] {
        [
            PolicySpec::Hold,
            PolicySpec::Reactive(ReactivePolicy::new()),
            PolicySpec::Predictive(PredictivePolicy::new()),
        ]
    }

    /// The policy's stable kind name.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PolicySpec::Hold => "hold",
            PolicySpec::Reactive(_) => "reactive",
            PolicySpec::Predictive(_) => "predictive",
        }
    }

    /// Builds the runnable policy: a clone of the carried one, whose
    /// internal state is fresh until it first plans.
    #[must_use]
    pub fn build(&self) -> Box<dyn ControlPolicy> {
        match self {
            PolicySpec::Hold => Box::new(Hold),
            PolicySpec::Reactive(p) => Box::new(p.clone()),
            PolicySpec::Predictive(p) => Box::new(p.clone()),
        }
    }
}

/// The closed-loop section of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSpec {
    /// Which policy drives the loop, with its knobs.
    pub policy: PolicySpec,
    /// The loop parameters.
    pub config: ControlConfig,
}

/// A complete, serializable scenario description. See the
/// [module docs](self) for the JSON format.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (lands in reports, artifact records, and
    /// regression file names; restricted to `[A-Za-z0-9._-]`).
    pub name: String,
    /// The served class mix.
    pub classes: Vec<ClassSpec>,
    /// Request arrival process.
    pub arrival: ArrivalProcess,
    /// Batching admission policy.
    pub policy: Policy,
    /// Instance groups, expanded in order into the fleet.
    pub instances: Vec<InstanceSpec>,
    /// Largest batch a single dispatch may carry.
    pub max_batch: u64,
    /// Admission bound (queue depth beyond which arrivals are rejected).
    pub queue_capacity: usize,
    /// Weight-residency assumption (see [`FleetScenario::resident_weights`]).
    pub resident_weights: bool,
    /// Whether dispatch honors the classes' `min_accuracy` floors (see
    /// [`FleetScenario::accuracy_routing`]; default `false`).
    pub accuracy_routing: bool,
    /// Arrival horizon, seconds.
    pub horizon_s: f64,
    /// RNG seed (arrivals + class sampling).
    pub seed: u64,
    /// Serviceability envelope (also fed to the chaos generator).
    pub limits: DegradationLimits,
    /// The fault section.
    pub faults: FaultSpec,
    /// Optional closed-loop section.
    pub control: Option<ControlSpec>,
}

/// A compiled scenario: the runnable engine inputs a spec expands to.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The engine scenario (classes, instances, and faults expanded).
    pub scenario: FleetScenario,
    /// The control section, if present ([`ControlSpec::policy`]
    /// builds a fresh policy per run).
    pub control: Option<ControlSpec>,
}

/// The largest fleet a scenario file may describe, summed over its
/// instance groups: above the 100k-instance perf leg, the largest
/// fleet any in-repo caller builds, so [`ScenarioSpec::compile`] never
/// expands a file into an unbounded allocation.
pub const MAX_INSTANCES: usize = 1 << 20;

fn invalid(reason: String) -> FleetError {
    FleetError::InvalidScenario { reason }
}

/// The stable scheduling-policy names used in scenario files.
#[must_use]
pub fn policy_name(policy: Policy) -> &'static str {
    match policy {
        Policy::Fifo => "fifo",
        Policy::EarliestDeadlineFirst => "edf",
        Policy::NetworkAffinity => "network-affinity",
    }
}

/// Every scheduling policy, in [`policy_name`]'s order.
const POLICIES: [Policy; 3] = [
    Policy::Fifo,
    Policy::EarliestDeadlineFirst,
    Policy::NetworkAffinity,
];

impl ScenarioSpec {
    /// Validates every field of the spec (strict `try_from`-style:
    /// the checks [`compile`](Self::compile) relies on, surfaced with
    /// reasons before anything runs).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] with the violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(invalid("scenario name must be non-empty".to_owned()));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(invalid(format!(
                "scenario name {:?} must use only [A-Za-z0-9._-]",
                self.name
            )));
        }
        let classes = self.classes.iter();
        validate_common(
            classes.map(|c| (c.network.as_str(), c.slo_s, c.weight, c.min_accuracy)),
            &self.arrival,
            self.max_batch,
            self.queue_capacity,
            self.horizon_s,
            &self.limits,
        )?;
        if let Some((i, c)) = (self.classes.iter().enumerate())
            .find(|(_, c)| !KNOWN_NETWORKS.contains(&c.network.as_str()))
        {
            return Err(invalid(format!(
                "classes[{i}].network {:?} is unknown (known: {})",
                c.network,
                KNOWN_NETWORKS.join(", ")
            )));
        }
        if self.instances.is_empty() {
            return Err(invalid("instances must be non-empty".to_owned()));
        }
        let mut fleet = 0usize;
        for (g, spec) in self.instances.iter().enumerate() {
            if spec.count == 0 {
                return Err(invalid(format!("instances[{g}].count must be at least 1")));
            }
            fleet = fleet
                .checked_add(spec.count)
                .filter(|&n| n <= MAX_INSTANCES)
                .ok_or_else(|| {
                    invalid(format!(
                        "instances[{g}].count {} takes the fleet past \
                         {MAX_INSTANCES} instances",
                        spec.count
                    ))
                })?;
            if spec.input_dacs == Some(0) {
                return Err(invalid(format!(
                    "instances[{g}].input_dacs must be at least 1"
                )));
            }
            if spec.adcs == Some(0) {
                return Err(invalid(format!("instances[{g}].adcs must be at least 1")));
            }
            if spec.weight_dacs == Some(0) {
                return Err(invalid(format!(
                    "instances[{g}].weight_dacs must be at least 1"
                )));
            }
            if let Some(p) = spec.ring_pitch_m {
                if !(p > 0.0) || !p.is_finite() {
                    return Err(invalid(format!(
                        "instances[{g}].ring_pitch_m must be finite and positive, got {p}"
                    )));
                }
            }
            if spec.bytes_per_value == Some(0) {
                return Err(invalid(format!(
                    "instances[{g}].bytes_per_value must be at least 1"
                )));
            }
        }
        match &self.faults {
            FaultSpec::Events(events) => {
                validate_events(events, fleet).map_err(invalid)?;
                // The file's per-instance order is the replay order for
                // same-instant events; require it monotone so what you
                // read is what runs. Keyed by instance, so the check
                // is sized by the events, not the fleet.
                let mut last_at: HashMap<usize, f64> = HashMap::new();
                for (k, e) in events.iter().enumerate() {
                    let last = last_at.entry(e.instance).or_insert(e.at_s);
                    if e.at_s < *last {
                        return Err(invalid(format!(
                            "faults.events[{k}] at t={} precedes an earlier event for \
                             instance {} — per-instance event order must be monotone",
                            e.at_s, e.instance
                        )));
                    }
                    *last = e.at_s;
                }
            }
            FaultSpec::Chaos {
                recalibration_s, ..
            } => {
                if !(*recalibration_s > 0.0) || !recalibration_s.is_finite() {
                    return Err(invalid(format!(
                        "faults.chaos.recalibration_s must be finite and positive, \
                         got {recalibration_s}"
                    )));
                }
            }
        }
        if let Some(control) = &self.control {
            control.config.validate(self.horizon_s)?;
            match &control.policy {
                PolicySpec::Hold => Ok(()),
                PolicySpec::Reactive(p) => p.validate(),
                PolicySpec::Predictive(p) => p.validate(),
            }
            .map_err(|e| invalid(format!("control.policy.{e}")))?;
        }
        Ok(())
    }

    /// Total fleet size the instance groups expand to, saturating at
    /// `usize::MAX` ([`validate`](Self::validate) rejects any total
    /// above [`MAX_INSTANCES`]).
    #[must_use]
    pub fn n_instances(&self) -> usize {
        self.instances
            .iter()
            .fold(0, |n: usize, g| n.saturating_add(g.count))
    }

    /// Expands and validates the spec into runnable engine inputs.
    ///
    /// Deterministic: the same spec always compiles to the same
    /// [`FleetScenario`] (chaos references expand through the seeded
    /// generator).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] from
    /// [`validate`](Self::validate) or the engine's own
    /// [`FleetScenario::validate`].
    pub fn compile(&self) -> Result<CompiledScenario> {
        self.validate()?;
        let classes = (self.classes.iter().enumerate())
            .map(|(i, c)| {
                c.to_class().ok_or_else(|| {
                    invalid(format!("classes[{i}].network {:?} is unknown", c.network))
                })
            })
            .collect::<Result<Vec<NetworkClass>>>()?;
        let instances: Vec<PcnnaConfig> = self
            .instances
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.to_config(), g.count))
            .collect();
        let faults = match &self.faults {
            FaultSpec::Events(events) => FaultTimeline::from_events(events.clone()),
            FaultSpec::Chaos {
                kind,
                recalibration_s,
                seed,
            } => chaos_timeline(
                *kind,
                &instances,
                self.horizon_s,
                &ChaosConfig {
                    limits: self.limits,
                    recalibration_s: *recalibration_s,
                    seed: *seed,
                },
            ),
        };
        let scenario = FleetScenario {
            classes,
            arrival: self.arrival,
            policy: self.policy,
            instances,
            max_batch: self.max_batch,
            queue_capacity: self.queue_capacity,
            resident_weights: self.resident_weights,
            accuracy_routing: self.accuracy_routing,
            horizon_s: self.horizon_s,
            seed: self.seed,
            faults,
            limits: self.limits,
            ..FleetScenario::default()
        };
        scenario.validate()?;
        Ok(CompiledScenario {
            scenario,
            control: self.control.clone(),
        })
    }

    /// Serializes the spec to its JSON value (every field written, in
    /// a fixed order — the deterministic form [`render`](Self::render)
    /// emits).
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.clone().write()
    }

    /// Renders the spec as pretty-printed JSON with a trailing
    /// newline — the committed-scenario-file form. Deterministic:
    /// same spec ⇒ byte-identical output.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a spec from JSON text (strict: unknown keys are errors).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] with the parse or
    /// validation failure.
    pub fn parse(text: &str) -> Result<ScenarioSpec> {
        let value = Json::parse(text).map_err(|e| invalid(format!("scenario JSON: {e}")))?;
        ScenarioSpec::from_json(&value)
    }

    /// Reads and parses a scenario file.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] for I/O, parse, or
    /// validation failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<ScenarioSpec> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| invalid(format!("cannot read {}: {e}", path.display())))?;
        ScenarioSpec::parse(&text)
    }

    /// Builds a spec from a parsed JSON value (strict; also runs
    /// [`validate`](Self::validate)).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] with the reason, naming
    /// the key path.
    pub fn from_json(value: &Json) -> Result<ScenarioSpec> {
        let spec: ScenarioSpec = fresh(value, Path::Root)?;
        spec.validate()?;
        Ok(spec)
    }
}

// ---- the format: one field list per type ----------------------------

impl Blank for ScenarioSpec {
    fn blank() -> Self {
        let d = FleetScenario::default();
        ScenarioSpec {
            name: String::new(),
            classes: Vec::new(),
            arrival: d.arrival,
            policy: d.policy,
            instances: Vec::new(),
            max_batch: d.max_batch,
            queue_capacity: d.queue_capacity,
            resident_weights: d.resident_weights,
            accuracy_routing: d.accuracy_routing,
            horizon_s: d.horizon_s,
            seed: d.seed,
            limits: d.limits,
            faults: FaultSpec::default(),
            control: None,
        }
    }
}

impl Fields for ScenarioSpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.req("name", &mut self.name)?;
        io.opt("seed", &mut self.seed)?;
        io.req("horizon_s", &mut self.horizon_s)?;
        io.req("arrival", &mut self.arrival)?;
        io.opt("policy", &mut self.policy)?;
        io.req("classes", &mut self.classes)?;
        io.req("instances", &mut self.instances)?;
        io.opt("max_batch", &mut self.max_batch)?;
        io.opt("queue_capacity", &mut self.queue_capacity)?;
        io.opt("resident_weights", &mut self.resident_weights)?;
        io.opt("accuracy_routing", &mut self.accuracy_routing)?;
        io.opt("limits", &mut self.limits)?;
        io.opt("faults", &mut self.faults)?;
        io.maybe("control", &mut self.control)?;
        io.skip("description");
        Ok(())
    }
}

impl Fields for ArrivalProcess {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        let tag = io.variant(
            self,
            [
                ("poisson", ArrivalProcess::Poisson { rate_rps: 0.0 }),
                (
                    "mmpp",
                    ArrivalProcess::Mmpp {
                        low_rps: 0.0,
                        high_rps: 0.0,
                        dwell_low_s: 0.0,
                        dwell_high_s: 0.0,
                    },
                ),
                (
                    "diurnal",
                    ArrivalProcess::Diurnal {
                        base_rps: 0.0,
                        peak_rps: 0.0,
                        period_s: 0.0,
                    },
                ),
            ],
        )?;
        io.object(tag, |io| match self {
            ArrivalProcess::Poisson { rate_rps } => io.req("rate_rps", rate_rps),
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                dwell_low_s,
                dwell_high_s,
            } => {
                io.req("low_rps", low_rps)?;
                io.req("high_rps", high_rps)?;
                io.req("dwell_low_s", dwell_low_s)?;
                io.req("dwell_high_s", dwell_high_s)
            }
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => {
                io.req("base_rps", base_rps)?;
                io.req("peak_rps", peak_rps)?;
                io.req("period_s", period_s)
            }
        })
    }
}

impl Blank for ClassSpec {
    fn blank() -> Self {
        ClassSpec {
            network: String::new(),
            slo_s: 0.0,
            weight: 0.0,
            min_accuracy: 0.0,
        }
    }
}

impl Fields for ClassSpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.req("network", &mut self.network)?;
        io.req("slo_s", &mut self.slo_s)?;
        io.req("weight", &mut self.weight)?;
        io.opt("min_accuracy", &mut self.min_accuracy)
    }
}

impl Blank for InstanceSpec {
    fn blank() -> Self {
        InstanceSpec::defaults(1)
    }
}

impl Fields for InstanceSpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("count", &mut self.count)?;
        io.maybe("input_dacs", &mut self.input_dacs)?;
        io.maybe("adcs", &mut self.adcs)?;
        io.maybe("weight_dacs", &mut self.weight_dacs)?;
        io.maybe("ring_pitch_m", &mut self.ring_pitch_m)?;
        io.maybe("bytes_per_value", &mut self.bytes_per_value)
    }
}

impl Fields for DegradationLimits {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("max_ambient_excursion_k", &mut self.max_ambient_excursion_k)?;
        io.opt("min_laser_power_factor", &mut self.min_laser_power_factor)
    }
}

impl Fields for FaultSpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        let d = ChaosConfig::default();
        let chaos = FaultSpec::Chaos {
            kind: ChaosKind::HeatWave,
            recalibration_s: d.recalibration_s,
            seed: d.seed,
        };
        let tag = io.variant(self, [("events", FaultSpec::default()), ("chaos", chaos)])?;
        match self {
            FaultSpec::Events(events) => io.req(tag, events),
            FaultSpec::Chaos {
                kind,
                recalibration_s,
                seed,
            } => io.object(tag, |io| {
                io.req("kind", kind)?;
                io.opt("recalibration_s", recalibration_s)?;
                io.opt("seed", seed)
            }),
        }
    }
}

impl Blank for FaultEvent {
    fn blank() -> Self {
        FaultEvent {
            at_s: 0.0,
            instance: 0,
            action: FaultAction::Fail,
        }
    }
}

impl Fields for FaultEvent {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.req("at_s", &mut self.at_s)?;
        io.req("instance", &mut self.instance)?;
        io.req("action", &mut self.action)
    }
}

impl Fields for FaultAction {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        let tag = io.variant(
            self,
            [
                ("fail", FaultAction::Fail),
                ("degrade", FaultAction::Degrade(HealthState::nominal())),
                ("recalibrate", FaultAction::Recalibrate { duration_s: 0.0 }),
            ],
        )?;
        match self {
            FaultAction::Fail => io.unit(tag),
            FaultAction::Degrade(health) => io.req(tag, health),
            FaultAction::Recalibrate { duration_s } => {
                io.object(tag, |io| io.req("duration_s", duration_s))
            }
        }
    }
}

impl Fields for HealthState {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("ambient_delta_k", &mut self.ambient_delta_k)?;
        io.opt("laser_power_factor", &mut self.laser_power_factor)?;
        io.opt("dead_input_channels", &mut self.dead_input_channels)?;
        io.opt("dead_output_channels", &mut self.dead_output_channels)
    }
}

impl Blank for ControlSpec {
    fn blank() -> Self {
        ControlSpec {
            policy: PolicySpec::Hold,
            config: ControlConfig::default(),
        }
    }
}

impl Fields for ControlSpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.req("policy", &mut self.policy)?;
        io.opt("config", &mut self.config)
    }
}

impl Fields for PolicySpec {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.tag("kind", self, PolicySpec::kinds().map(|p| (p.kind(), p)))?;
        match self {
            PolicySpec::Hold => Ok(()),
            PolicySpec::Reactive(p) => p.walk(io),
            PolicySpec::Predictive(p) => p.walk(io),
        }
    }
}

/// The overload-guard knobs both control policies carry.
fn guard_fields(io: &mut Io<'_>, p99_guard_frac: &mut f64, accuracy_guard: &mut f64) -> Result<()> {
    io.opt("p99_guard_frac", p99_guard_frac)?;
    io.opt("accuracy_guard", accuracy_guard)
}

impl Fields for ReactivePolicy {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("scale_up_load", &mut self.scale_up_load)?;
        io.opt("scale_down_load", &mut self.scale_down_load)?;
        guard_fields(io, &mut self.p99_guard_frac, &mut self.accuracy_guard)?;
        io.opt("cooldown_windows", &mut self.cooldown_windows)
    }
}

impl Fields for PredictivePolicy {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("alpha", &mut self.alpha)?;
        io.opt("beta", &mut self.beta)?;
        io.opt("target_util", &mut self.target_util)?;
        guard_fields(io, &mut self.p99_guard_frac, &mut self.accuracy_guard)
    }
}

impl Fields for ControlConfig {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()> {
        io.opt("window_s", &mut self.window_s)?;
        io.opt("boot_s", &mut self.boot_s)?;
        io.opt("min_active", &mut self.min_active)?;
        io.opt("initial_active", &mut self.initial_active)?;
        io.opt("max_step", &mut self.max_step)?;
        io.opt("idle_power_w", &mut self.idle_power_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".to_owned(),
            classes: vec![
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
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: 45_000.0 },
            policy: Policy::NetworkAffinity,
            instances: vec![InstanceSpec::defaults(4)],
            max_batch: 32,
            queue_capacity: 100_000,
            resident_weights: true,
            accuracy_routing: false,
            horizon_s: 0.05,
            seed: 7,
            limits: DegradationLimits::default(),
            faults: FaultSpec::Chaos {
                kind: ChaosKind::HeatWave,
                recalibration_s: 2e-3,
                seed: 7,
            },
            control: None,
        }
    }

    #[test]
    fn round_trip_is_lossless_and_deterministic() {
        let spec = demo_spec();
        let rendered = spec.render();
        let back = ScenarioSpec::parse(&rendered).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.render(), rendered, "render must be deterministic");
    }

    #[test]
    fn compiled_chaos_reference_matches_hand_built_scenario() {
        let spec = demo_spec();
        let compiled = spec.compile().unwrap();
        let expected = FleetScenario {
            classes: vec![
                NetworkClass::alexnet(0.004, 1.0),
                NetworkClass::lenet5(0.001, 3.0),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: 45_000.0 },
            policy: Policy::NetworkAffinity,
            instances: vec![PcnnaConfig::default(); 4],
            max_batch: 32,
            queue_capacity: 100_000,
            horizon_s: 0.05,
            seed: 7,
            faults: chaos_timeline(
                ChaosKind::HeatWave,
                &vec![PcnnaConfig::default(); 4],
                0.05,
                &ChaosConfig {
                    recalibration_s: 2e-3,
                    seed: 7,
                    ..ChaosConfig::default()
                },
            ),
            ..FleetScenario::default()
        };
        assert_eq!(compiled.scenario, expected);
    }

    #[test]
    fn explicit_events_round_trip_and_compile() {
        let mut spec = demo_spec();
        spec.faults = FaultSpec::Events(vec![
            FaultEvent {
                at_s: 0.01,
                instance: 0,
                action: FaultAction::Fail,
            },
            FaultEvent {
                at_s: 0.02,
                instance: 0,
                action: FaultAction::Recalibrate { duration_s: 2e-3 },
            },
            FaultEvent {
                at_s: 0.015,
                instance: 3,
                action: FaultAction::Degrade(HealthState {
                    ambient_delta_k: 0.1,
                    ..HealthState::nominal()
                }),
            },
        ]);
        let back = ScenarioSpec::parse(&spec.render()).unwrap();
        assert_eq!(back, spec);
        let compiled = spec.compile().unwrap();
        assert_eq!(compiled.scenario.faults.len(), 3);
    }

    #[test]
    fn control_section_round_trips_and_builds() {
        let mut spec = demo_spec();
        let mut reactive = ReactivePolicy::new();
        reactive.scale_up_load = 0.8;
        reactive.scale_down_load = 0.3;
        reactive.accuracy_guard = 0.85;
        reactive.cooldown_windows = 3;
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive(reactive),
            config: ControlConfig {
                initial_active: 4,
                ..ControlConfig::default()
            },
        });
        let back = ScenarioSpec::parse(&spec.render()).unwrap();
        assert_eq!(back, spec);
        let policy = back.control.as_ref().unwrap().policy.build();
        assert_eq!(policy.name(), "reactive");
        for p in PolicySpec::kinds() {
            assert_eq!(p.build().name(), p.kind());
        }
    }

    #[test]
    fn accuracy_slos_round_trip_and_compile() {
        let mut spec = demo_spec();
        spec.accuracy_routing = true;
        spec.classes[0].min_accuracy = 0.85;
        let mut predictive = PredictivePolicy::new();
        predictive.alpha = 0.5;
        predictive.accuracy_guard = 0.8;
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Predictive(predictive),
            config: ControlConfig::default(),
        });
        let rendered = spec.render();
        assert!(rendered.contains("\"min_accuracy\""));
        assert!(rendered.contains("\"accuracy_routing\": true"));
        assert!(rendered.contains("\"accuracy_guard\""));
        let back = ScenarioSpec::parse(&rendered).unwrap();
        assert_eq!(back, spec);
        let compiled = spec.compile().unwrap();
        assert!(compiled.scenario.accuracy_routing);
        assert_eq!(compiled.scenario.classes[0].min_accuracy, 0.85);
        assert_eq!(compiled.scenario.classes[1].min_accuracy, 0.0);
        // a spec that omits the fields defaults them off
        let bare = demo_spec();
        assert!(!bare.compile().unwrap().scenario.accuracy_routing);
    }

    #[test]
    fn out_of_range_min_accuracy_names_the_field() {
        let mut spec = demo_spec();
        spec.classes[1].min_accuracy = 1.5;
        let err = spec.validate().unwrap_err().to_string();
        assert!(
            err.contains("min_accuracy") && err.contains("lenet5"),
            "error must name the field and class: {err}"
        );
        let mut spec = demo_spec();
        let mut reactive = ReactivePolicy::new();
        reactive.accuracy_guard = -0.2;
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive(reactive),
            config: ControlConfig::default(),
        });
        let err = spec.validate().unwrap_err().to_string();
        assert!(err.contains("accuracy_guard"), "got: {err}");
    }

    #[test]
    fn strict_parsing_rejects_malformed_specs() {
        let good = demo_spec().render();
        // unknown top-level key
        let with_unknown = good.replace("\"seed\"", "\"sneed\"");
        assert!(ScenarioSpec::parse(&with_unknown).is_err());
        // unknown network
        let bad_net = good.replace("\"alexnet\"", "\"resnet50\"");
        assert!(ScenarioSpec::parse(&bad_net).is_err());
        // missing required field
        let v = Json::parse(&good).unwrap();
        let Json::Obj(fields) = v else { unreachable!() };
        let without_arrival: Vec<_> = fields
            .iter()
            .filter(|(k, _)| k != "arrival")
            .cloned()
            .collect();
        assert!(ScenarioSpec::from_json(&Json::Obj(without_arrival)).is_err());
        // negative time, out-of-range instance, non-monotone order
        for (patch, label) in [
            (
                r#"{"events":[{"at_s":-1.0,"instance":0,"action":"fail"}]}"#,
                "negative time",
            ),
            (
                r#"{"events":[{"at_s":0.01,"instance":9,"action":"fail"}]}"#,
                "instance range",
            ),
            (
                r#"{"events":[{"at_s":0.02,"instance":0,"action":"fail"},
                             {"at_s":0.01,"instance":0,"action":"fail"}]}"#,
                "monotone order",
            ),
        ] {
            let mut spec = demo_spec();
            let faults = Json::parse(patch).unwrap();
            if spec.faults.read(&faults, Path::Root).is_err() {
                continue; // rejected at parse: also a pass
            }
            assert!(spec.validate().is_err(), "{label} must be rejected");
        }
        // a reactive policy takes no predictive knobs (render would
        // drop them, so the file would not round-trip)
        let mut spec = demo_spec();
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive(ReactivePolicy::new()),
            config: ControlConfig::default(),
        });
        let smuggled = spec.render().replace(
            "\"kind\": \"reactive\"",
            "\"kind\": \"reactive\", \"alpha\": 0.5, \"target_util\": 9.0",
        );
        let err = ScenarioSpec::parse(&smuggled).unwrap_err().to_string();
        assert!(err.contains("control.policy.alpha"), "got: {err}");
        // fleet sizes a file can ask for: a total that overflows
        // `usize`, and one far past MAX_INSTANCES next to a fault event
        // (the per-instance order check is sized by the events)
        let fail = Json::parse(r#"{"events":[{"at_s":0.01,"instance":0,"action":"fail"}]}"#);
        for (label, groups) in [
            (
                "overflowing fleet",
                r#"[{"count":9223372036854775808},{"count":9223372036854775808}]"#,
            ),
            ("oversized fleet", r#"[{"count":1000000000000000}]"#),
        ] {
            let Json::Obj(mut fields) = Json::parse(&good).unwrap() else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                match k.as_str() {
                    "instances" => *v = Json::parse(groups).unwrap(),
                    "faults" => *v = fail.clone().unwrap(),
                    _ => {}
                }
            }
            let err = ScenarioSpec::parse(&Json::Obj(fields).render()).unwrap_err();
            assert!(err.to_string().contains("count"), "{label}: {err}");
        }
    }

    /// `demo_spec` reaching every nesting level of the format: MMPP
    /// arrivals, a control section, and explicit fault events (or, with
    /// `chaos`, the chaos reference).
    fn deep_spec(chaos: bool) -> ScenarioSpec {
        let mut spec = demo_spec();
        spec.arrival = ArrivalProcess::Mmpp {
            low_rps: 10_000.0,
            high_rps: 40_000.0,
            dwell_low_s: 0.01,
            dwell_high_s: 0.005,
        };
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive(ReactivePolicy::new()),
            config: ControlConfig::default(),
        });
        if !chaos {
            spec.faults = FaultSpec::Events(vec![
                FaultEvent {
                    at_s: 0.01,
                    instance: 0,
                    action: FaultAction::Fail,
                },
                FaultEvent {
                    at_s: 0.02,
                    instance: 1,
                    action: FaultAction::Degrade(HealthState::nominal()),
                },
            ]);
        }
        spec
    }

    #[test]
    fn every_error_names_its_key_path() {
        // (the object to plant a stray key in, as JSON path segments;
        // the stray key — unknown or a typo of a real one; the path the
        // error must name)
        let cases: [(&[&str], &str, &str); 9] = [
            (&[], "sed", "sed"),
            (&["classes", "1"], "slo", "classes[1].slo"),
            (&["instances", "0"], "adc", "instances[0].adc"),
            (&["arrival", "mmpp"], "low_rp", "arrival.mmpp.low_rp"),
            (&["limits"], "max_ambient_k", "limits.max_ambient_k"),
            (&["faults", "chaos"], "recal_s", "faults.chaos.recal_s"),
            (
                &["faults", "events", "1", "action", "degrade"],
                "ambient_k",
                "faults.events[1].action.degrade.ambient_k",
            ),
            (&["control", "policy"], "alpha", "control.policy.alpha"),
            (&["control", "config"], "window", "control.config.window"),
        ];
        for (at, key, path) in cases {
            let mut doc = deep_spec(at == ["faults", "chaos"]).to_json();
            let mut node = &mut doc;
            for seg in at {
                node = match node {
                    Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                    Json::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
                    other => panic!("{path}: {other:?} has no {seg}"),
                };
            }
            let Json::Obj(fields) = node else {
                panic!("{path}: not an object")
            };
            fields.push((key.to_owned(), Json::Int(1)));
            let err = ScenarioSpec::from_json(&doc).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key {path}")),
                "{path}: {err}"
            );
        }
        // missing, mistyped and unknown-variant values name
        // their paths too
        let good = deep_spec(false).render();
        for (edit, path) in [
            (
                good.replace("\"kind\": \"reactive\"", "\"sort\": 1"),
                "control.policy.kind",
            ),
            (
                good.replace("\"slo_s\": 0.001", "\"slo_s\": \"fast\""),
                "classes[1].slo_s",
            ),
            (
                good.replace("\"count\": 4", "\"count\": -4"),
                "instances[0].count",
            ),
            (
                good.replace("\"mmpp\"", "\"mmmp\""),
                "arrival: unknown \"mmmp\"",
            ),
            (
                good.replace("\"fail\"", "\"explode\""),
                "faults.events[0].action",
            ),
            // and so do values the validators refuse
            (
                good.replace("\"boot_s\": 0.004", "\"boot_s\": -1.0"),
                "control.config.boot_s",
            ),
            (
                good.replace("\"instance\": 1", "\"instance\": 9"),
                "faults.events[1].instance",
            ),
        ] {
            assert_ne!(edit, good, "{path}: edit did not apply");
            let err = ScenarioSpec::parse(&edit).unwrap_err().to_string();
            assert!(err.contains(path), "{path}: {err}");
        }
    }

    #[test]
    fn oversized_heat_wave_edits_are_refused_fast() {
        let committed = include_str!("../../../../scenarios/heat-wave.json");
        let (head, tail) = committed.split_at(committed.find("\"classes\"").unwrap());
        let tail = &tail[tail.find("\"instances\"").unwrap()..];
        let class = r#"{"network": "lenet5", "slo_s": 0.001, "weight": 1.0}"#;
        let many = format!(
            "{head}\"classes\": [{}],\n  {tail}",
            vec![class; 200_000].join(",")
        );
        // The bound is an optimized build's: unoptimized, the parser
        // alone takes ~0.5 s over the 11 MB of 200 000 classes.
        let budget = std::time::Duration::from_secs(if cfg!(debug_assertions) { 5 } else { 1 });
        for (label, text, fields) in [
            (
                "horizon_s 1e7",
                committed.replace("\"horizon_s\": 0.05", "\"horizon_s\": 1e7"),
                ["horizon_s", "MAX_EXPECTED_REQUESTS"],
            ),
            (
                "rate_rps 1e13",
                committed.replace("\"rate_rps\": 45000.0", "\"rate_rps\": 1e13"),
                ["arrival", "MAX_EXPECTED_REQUESTS"],
            ),
            ("200 000 classes", many, ["classes", "MAX_CLASSES"]),
        ] {
            assert_ne!(text, committed, "{label}: edit did not apply");
            let t0 = std::time::Instant::now();
            let err = ScenarioSpec::parse(&text).unwrap_err().to_string();
            let elapsed = t0.elapsed();
            assert!(elapsed < budget, "{label}: {elapsed:?}");
            for field in fields {
                assert!(err.contains(field), "{label}: {err}");
            }
        }
    }

    #[test]
    fn deeply_nested_scenario_is_an_error_not_a_stack_overflow() {
        let committed = include_str!("../../../../scenarios/heat-wave.json");
        assert!(ScenarioSpec::parse(committed).is_ok());
        let bomb = committed.replacen(
            "\"instances\": [",
            &format!("\"instances\": {}", "[".repeat(200_000)),
            1,
        );
        assert!(bomb.len() > 200_000);
        let t0 = std::time::Instant::now();
        let err = ScenarioSpec::parse(&bomb).unwrap_err().to_string();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            t0.elapsed()
        );
        assert!(err.contains("nesting depth"), "got: {err}");
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let ok = demo_spec();
        assert!(ok.validate().is_ok());
        // (case, the field its reason must name, the edit that breaks it)
        type Edit = fn(&mut ScenarioSpec);
        let cases: [(&str, &str, Edit); 18] = [
            ("empty name", "name", |s| s.name.clear()),
            ("bad name", "name", |s| s.name = "no spaces".to_owned()),
            ("empty classes", "class", |s| s.classes.clear()),
            ("empty instances", "instance", |s| s.instances.clear()),
            ("zero count", "count", |s| s.instances[0].count = 0),
            ("zero batch", "max_batch", |s| s.max_batch = 0),
            ("zero queue", "queue_capacity", |s| s.queue_capacity = 0),
            ("inf horizon", "horizon_s", |s| s.horizon_s = f64::INFINITY),
            ("nan horizon", "horizon_s", |s| s.horizon_s = f64::NAN),
            ("bad slo", "slo_s", |s| s.classes[1].slo_s = 0.0),
            ("min_accuracy above 1", "min_accuracy", |s| {
                s.classes[1].min_accuracy = 1.5;
            }),
            ("negative min_accuracy", "min_accuracy", |s| {
                s.classes[1].min_accuracy = -0.1;
            }),
            ("bad chaos recal", "recalibration_s", |s| {
                if let FaultSpec::Chaos {
                    recalibration_s, ..
                } = &mut s.faults
                {
                    *recalibration_s = 0.0;
                }
            }),
            ("bad arrival", "rate_rps", |s| {
                s.arrival = ArrivalProcess::Poisson { rate_rps: 0.0 };
            }),
            ("fleet total overflows usize", "count", |s| {
                s.instances = vec![InstanceSpec::defaults(usize::MAX / 2 + 1); 2];
            }),
            ("fleet total above MAX_INSTANCES", "count", |s| {
                s.instances = vec![
                    InstanceSpec::defaults(MAX_INSTANCES),
                    InstanceSpec::defaults(1),
                ];
            }),
            (
                "window edge never advances",
                "control.config.window_s",
                |s| {
                    s.control = Some(ControlSpec {
                        policy: PolicySpec::Hold,
                        config: ControlConfig {
                            window_s: 1e-300,
                            ..ControlConfig::default()
                        },
                    });
                },
            ),
            ("5e7 control windows", "control.config.window_s", |s| {
                s.control = Some(ControlSpec {
                    policy: PolicySpec::Hold,
                    config: ControlConfig {
                        window_s: 1e-9,
                        ..ControlConfig::default()
                    },
                });
            }),
        ];
        for (label, field, edit) in cases {
            let mut spec = ok.clone();
            edit(&mut spec);
            match spec.validate() {
                Err(FleetError::InvalidScenario { reason }) => {
                    assert!(
                        reason.contains(field),
                        "{label}: {reason:?} must name {field}"
                    );
                }
                other => panic!("{label} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn heterogeneous_instance_groups_expand_in_order() {
        let mut spec = demo_spec();
        spec.instances = vec![
            InstanceSpec {
                input_dacs: Some(40),
                ..InstanceSpec::defaults(1)
            },
            InstanceSpec::defaults(2),
        ];
        let compiled = spec.compile().unwrap();
        assert_eq!(compiled.scenario.instances.len(), 3);
        assert_eq!(compiled.scenario.instances[0].n_input_dacs, 40);
        assert_eq!(compiled.scenario.instances[1].n_input_dacs, 10);
        assert_eq!(spec.n_instances(), 3);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in POLICIES {
            let mut spec = demo_spec();
            spec.policy = p;
            assert_eq!(ScenarioSpec::parse(&spec.render()).unwrap().policy, p);
        }
        let lifo = demo_spec().render().replace("network-affinity", "lifo");
        let err = ScenarioSpec::parse(&lifo).unwrap_err().to_string();
        assert!(err.contains("policy: unknown \"lifo\""), "got: {err}");
    }
}
