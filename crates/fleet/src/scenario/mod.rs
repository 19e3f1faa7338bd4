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
//! silently defaulted except fields documented as optional.
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

use crate::control::policy::{ControlPolicy, Hold, PredictivePolicy, ReactivePolicy};
use crate::control::ControlConfig;
use crate::engine::FleetScenario;
use crate::faults::{
    chaos_timeline, ChaosConfig, ChaosKind, FaultAction, FaultEvent, FaultTimeline,
};
use crate::scheduler::Policy;
use crate::workload::{ArrivalProcess, NetworkClass};
use crate::{FleetError, Result};
use json::Json;
use pcnna_core::config::PcnnaConfig;
use pcnna_photonics::degradation::{DegradationLimits, HealthState};
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
        let mut c = PcnnaConfig::default();
        if let Some(n) = self.input_dacs {
            c = c.with_input_dacs(n);
        }
        if let Some(n) = self.adcs {
            c = c.with_adcs(n);
        }
        if let Some(n) = self.weight_dacs {
            c = c.with_weight_dacs(n);
        }
        if let Some(p) = self.ring_pitch_m {
            c = c.with_ring_pitch(p);
        }
        if let Some(b) = self.bytes_per_value {
            c = c.with_bytes_per_value(b);
        }
        c
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

/// The control policy section of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The open-loop baseline.
    Hold,
    /// [`ReactivePolicy`] with its public knobs.
    Reactive {
        /// Load factor above which the fleet scales up.
        scale_up_load: f64,
        /// Load factor below which the fleet may scale down.
        scale_down_load: f64,
        /// p99 fraction of the tightest SLO that arms the overload guard.
        p99_guard_frac: f64,
        /// Worst quoted top-1 accuracy below which the guard presses
        /// (`0.0` = never).
        accuracy_guard: f64,
        /// Consecutive low-load windows before each scale-down.
        cooldown_windows: u32,
    },
    /// [`PredictivePolicy`] with its public knobs.
    Predictive {
        /// Level smoothing factor α.
        alpha: f64,
        /// Trend smoothing factor β.
        beta: f64,
        /// Utilization the forecast is provisioned at.
        target_util: f64,
        /// p99 fraction of the tightest SLO that arms the overload guard.
        p99_guard_frac: f64,
        /// Worst quoted top-1 accuracy below which the guard presses
        /// (`0.0` = never).
        accuracy_guard: f64,
    },
}

impl PolicySpec {
    /// The defaults for a named policy kind, or `None` for an unknown
    /// name.
    #[must_use]
    pub fn from_kind(kind: &str) -> Option<PolicySpec> {
        match kind {
            "hold" => Some(PolicySpec::Hold),
            "reactive" => {
                let d = ReactivePolicy::new();
                Some(PolicySpec::Reactive {
                    scale_up_load: d.scale_up_load,
                    scale_down_load: d.scale_down_load,
                    p99_guard_frac: d.p99_guard_frac,
                    accuracy_guard: d.accuracy_guard,
                    cooldown_windows: d.cooldown_windows,
                })
            }
            "predictive" => {
                let d = PredictivePolicy::new();
                Some(PolicySpec::Predictive {
                    alpha: d.alpha,
                    beta: d.beta,
                    target_util: d.target_util,
                    p99_guard_frac: d.p99_guard_frac,
                    accuracy_guard: d.accuracy_guard,
                })
            }
            _ => None,
        }
    }

    /// The policy's stable kind name.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PolicySpec::Hold => "hold",
            PolicySpec::Reactive { .. } => "reactive",
            PolicySpec::Predictive { .. } => "predictive",
        }
    }

    /// Builds the runnable policy (fresh internal state).
    #[must_use]
    pub fn build(&self) -> Box<dyn ControlPolicy> {
        match *self {
            PolicySpec::Hold => Box::new(Hold),
            PolicySpec::Reactive {
                scale_up_load,
                scale_down_load,
                p99_guard_frac,
                accuracy_guard,
                cooldown_windows,
            } => {
                let mut p = ReactivePolicy::new();
                p.scale_up_load = scale_up_load;
                p.scale_down_load = scale_down_load;
                p.p99_guard_frac = p99_guard_frac;
                p.accuracy_guard = accuracy_guard;
                p.cooldown_windows = cooldown_windows;
                Box::new(p)
            }
            PolicySpec::Predictive {
                alpha,
                beta,
                target_util,
                p99_guard_frac,
                accuracy_guard,
            } => {
                let mut p = PredictivePolicy::new();
                p.alpha = alpha;
                p.beta = beta;
                p.target_util = target_util;
                p.p99_guard_frac = p99_guard_frac;
                p.accuracy_guard = accuracy_guard;
                Box::new(p)
            }
        }
    }

    fn validate(&self) -> core::result::Result<(), String> {
        let frac = |label: &str, v: f64| {
            if v.is_finite() && v > 0.0 && v <= 1.0 {
                Ok(())
            } else {
                Err(format!("{label} must be in (0, 1], got {v}"))
            }
        };
        let unit = |label: &str, v: f64| {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{label} must be in [0, 1], got {v}"))
            }
        };
        match *self {
            PolicySpec::Hold => Ok(()),
            PolicySpec::Reactive {
                scale_up_load,
                scale_down_load,
                p99_guard_frac,
                accuracy_guard,
                cooldown_windows,
            } => {
                if !(scale_up_load > 0.0) || !scale_up_load.is_finite() {
                    return Err(format!(
                        "scale_up_load must be positive, got {scale_up_load}"
                    ));
                }
                if !(scale_down_load >= 0.0) || scale_down_load >= scale_up_load {
                    return Err(format!(
                        "scale_down_load must be in [0, scale_up_load), got {scale_down_load}"
                    ));
                }
                frac("p99_guard_frac", p99_guard_frac)?;
                unit("accuracy_guard", accuracy_guard)?;
                if cooldown_windows == 0 {
                    return Err("cooldown_windows must be at least 1".to_owned());
                }
                Ok(())
            }
            PolicySpec::Predictive {
                alpha,
                beta,
                target_util,
                p99_guard_frac,
                accuracy_guard,
            } => {
                frac("alpha", alpha)?;
                frac("beta", beta)?;
                frac("target_util", target_util)?;
                frac("p99_guard_frac", p99_guard_frac)?;
                unit("accuracy_guard", accuracy_guard)
            }
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

/// Parses a scheduling-policy name ([`policy_name`]'s inverse).
#[must_use]
pub fn policy_from_name(name: &str) -> Option<Policy> {
    match name {
        "fifo" => Some(Policy::Fifo),
        "edf" => Some(Policy::EarliestDeadlineFirst),
        "network-affinity" => Some(Policy::NetworkAffinity),
        _ => None,
    }
}

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
        if self.classes.is_empty() {
            return Err(invalid("class mix must be non-empty".to_owned()));
        }
        for c in &self.classes {
            if !KNOWN_NETWORKS.contains(&c.network.as_str()) {
                return Err(invalid(format!(
                    "unknown network {:?} (known: {})",
                    c.network,
                    KNOWN_NETWORKS.join(", ")
                )));
            }
            if !(c.slo_s > 0.0) || !c.slo_s.is_finite() {
                return Err(invalid(format!(
                    "class {} slo_s must be finite and positive, got {}",
                    c.network, c.slo_s
                )));
            }
            if !(c.weight > 0.0) || !c.weight.is_finite() {
                return Err(invalid(format!(
                    "class {} weight must be finite and positive, got {}",
                    c.network, c.weight
                )));
            }
            if !c.min_accuracy.is_finite() || !(0.0..=1.0).contains(&c.min_accuracy) {
                return Err(invalid(format!(
                    "class {} min_accuracy must be in [0, 1], got {}",
                    c.network, c.min_accuracy
                )));
            }
        }
        self.arrival.validate().map_err(invalid)?;
        if self.instances.is_empty() {
            return Err(invalid("instance list must be non-empty".to_owned()));
        }
        let mut fleet = 0usize;
        for (g, spec) in self.instances.iter().enumerate() {
            if spec.count == 0 {
                return Err(invalid(format!("instance group {g} has count 0")));
            }
            fleet = fleet
                .checked_add(spec.count)
                .filter(|&n| n <= MAX_INSTANCES)
                .ok_or_else(|| {
                    invalid(format!(
                        "instance group {g} count {} takes the fleet past \
                         {MAX_INSTANCES} instances",
                        spec.count
                    ))
                })?;
            for (label, v) in [
                ("input_dacs", spec.input_dacs),
                ("adcs", spec.adcs),
                ("weight_dacs", spec.weight_dacs),
            ] {
                if v == Some(0) {
                    return Err(invalid(format!(
                        "instance group {g} {label} must be at least 1"
                    )));
                }
            }
            if let Some(p) = spec.ring_pitch_m {
                if !(p > 0.0) || !p.is_finite() {
                    return Err(invalid(format!(
                        "instance group {g} ring_pitch_m must be finite and positive, got {p}"
                    )));
                }
            }
            if spec.bytes_per_value == Some(0) {
                return Err(invalid(format!(
                    "instance group {g} bytes_per_value must be at least 1"
                )));
            }
        }
        if self.max_batch == 0 {
            return Err(invalid("max_batch must be at least 1".to_owned()));
        }
        if self.queue_capacity == 0 {
            return Err(invalid("queue_capacity must be at least 1".to_owned()));
        }
        if !(self.horizon_s > 0.0) || !self.horizon_s.is_finite() {
            return Err(invalid(format!(
                "horizon_s must be finite and positive, got {}",
                self.horizon_s
            )));
        }
        if !(self.limits.max_ambient_excursion_k >= 0.0)
            || !self.limits.max_ambient_excursion_k.is_finite()
            || !(0.0..=1.0).contains(&self.limits.min_laser_power_factor)
        {
            return Err(invalid(format!(
                "degradation limits out of range: {:?}",
                self.limits
            )));
        }
        match &self.faults {
            FaultSpec::Events(events) => {
                FaultTimeline::try_from_events(events.clone(), fleet)
                    .map_err(|e| invalid(format!("fault timeline: {e}")))?;
                // The file's per-instance order is the replay order for
                // same-instant events; require it monotone so what you
                // read is what runs. Keyed by instance, so the check
                // is sized by the events, not the fleet.
                let mut last_at: HashMap<usize, f64> = HashMap::new();
                for (k, e) in events.iter().enumerate() {
                    let last = last_at.entry(e.instance).or_insert(e.at_s);
                    if e.at_s < *last {
                        return Err(invalid(format!(
                            "fault event {k} at t={} precedes an earlier event for \
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
                        "chaos recalibration_s must be finite and positive, got {recalibration_s}"
                    )));
                }
            }
        }
        if let Some(control) = &self.control {
            control.config.validate()?;
            control
                .policy
                .validate()
                .map_err(|e| invalid(format!("control policy: {e}")))?;
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
        let classes: Vec<NetworkClass> = self
            .classes
            .iter()
            .map(|c| c.to_class().expect("validated network name"))
            .collect();
        let instances: Vec<PcnnaConfig> = self
            .instances
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.to_config(), g.count))
            .collect();
        let faults = match &self.faults {
            FaultSpec::Events(events) => {
                FaultTimeline::try_from_events(events.clone(), instances.len())
                    .map_err(|e| invalid(format!("fault timeline: {e}")))?
            }
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
        let mut fields: Vec<(&str, Json)> = vec![
            ("name", json::str(&self.name)),
            ("seed", json::int(self.seed)),
            ("horizon_s", json::num(self.horizon_s)),
            ("arrival", arrival_to_json(&self.arrival)),
            ("policy", json::str(policy_name(self.policy))),
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .map(|c| {
                            json::obj([
                                ("network", json::str(&c.network)),
                                ("slo_s", json::num(c.slo_s)),
                                ("weight", json::num(c.weight)),
                                ("min_accuracy", json::num(c.min_accuracy)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "instances",
                Json::Arr(self.instances.iter().map(instance_to_json).collect()),
            ),
            ("max_batch", json::int(self.max_batch)),
            ("queue_capacity", json::uint(self.queue_capacity)),
            ("resident_weights", Json::Bool(self.resident_weights)),
            ("accuracy_routing", Json::Bool(self.accuracy_routing)),
            (
                "limits",
                json::obj([
                    (
                        "max_ambient_excursion_k",
                        json::num(self.limits.max_ambient_excursion_k),
                    ),
                    (
                        "min_laser_power_factor",
                        json::num(self.limits.min_laser_power_factor),
                    ),
                ]),
            ),
            ("faults", faults_to_json(&self.faults)),
        ];
        if let Some(control) = &self.control {
            fields.push(("control", control_to_json(control)));
        }
        json::obj(fields)
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
    /// Returns [`FleetError::InvalidScenario`] with the reason.
    pub fn from_json(value: &Json) -> Result<ScenarioSpec> {
        let fields = value
            .as_obj()
            .ok_or_else(|| invalid("scenario must be a JSON object".to_owned()))?;
        const KNOWN: [&str; 15] = [
            "name",
            "seed",
            "horizon_s",
            "arrival",
            "policy",
            "classes",
            "instances",
            "max_batch",
            "queue_capacity",
            "resident_weights",
            "accuracy_routing",
            "limits",
            "faults",
            "control",
            "description",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(invalid(format!("unknown scenario key {k:?}")));
            }
        }
        let name = req_str(value, "name")?;
        let seed = opt_u64(value, "seed")?.unwrap_or(0);
        let horizon_s = req_f64(value, "horizon_s")?;
        let arrival = arrival_from_json(
            value
                .get("arrival")
                .ok_or_else(|| invalid("missing \"arrival\"".to_owned()))?,
        )?;
        let policy = match value.get("policy") {
            None => Policy::Fifo,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| invalid("\"policy\" must be a string".to_owned()))?;
                policy_from_name(name).ok_or_else(|| {
                    invalid(format!(
                        "unknown policy {name:?} (known: fifo, edf, network-affinity)"
                    ))
                })?
            }
        };
        let classes = value
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("\"classes\" must be an array".to_owned()))?
            .iter()
            .map(class_from_json)
            .collect::<Result<Vec<_>>>()?;
        let instances = value
            .get("instances")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("\"instances\" must be an array".to_owned()))?
            .iter()
            .map(instance_from_json)
            .collect::<Result<Vec<_>>>()?;
        let defaults = FleetScenario::default();
        let max_batch = opt_u64(value, "max_batch")?.unwrap_or(defaults.max_batch);
        let queue_capacity = opt_usize(value, "queue_capacity")?.unwrap_or(defaults.queue_capacity);
        let resident_weights = match value.get("resident_weights") {
            None => defaults.resident_weights,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("\"resident_weights\" must be a bool".to_owned()))?,
        };
        let accuracy_routing = match value.get("accuracy_routing") {
            None => defaults.accuracy_routing,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("\"accuracy_routing\" must be a bool".to_owned()))?,
        };
        let limits = match value.get("limits") {
            None => DegradationLimits::default(),
            Some(v) => limits_from_json(v)?,
        };
        let faults = match value.get("faults") {
            None => FaultSpec::default(),
            Some(v) => faults_from_json(v)?,
        };
        let control = match value.get("control") {
            None => None,
            Some(v) => Some(control_from_json(v)?),
        };
        let spec = ScenarioSpec {
            name,
            classes,
            arrival,
            policy,
            instances,
            max_batch,
            queue_capacity,
            resident_weights,
            accuracy_routing,
            horizon_s,
            seed,
            limits,
            faults,
            control,
        };
        spec.validate()?;
        Ok(spec)
    }
}

// ---- field helpers -------------------------------------------------

fn req_str(value: &Json, key: &str) -> Result<String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| invalid(format!("missing or non-string {key:?}")))
}

fn req_f64(value: &Json, key: &str) -> Result<f64> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| invalid(format!("missing or non-numeric {key:?}")))
}

fn opt_f64(value: &Json, key: &str) -> Result<Option<f64>> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| invalid(format!("{key:?} must be a number"))),
    }
}

fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| invalid(format!("{key:?} must be a non-negative integer"))),
    }
}

fn opt_usize(value: &Json, key: &str) -> Result<Option<usize>> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| invalid(format!("{key:?} must be a non-negative integer"))),
    }
}

fn reject_unknown(value: &Json, known: &[&str], what: &str) -> Result<()> {
    let fields = value
        .as_obj()
        .ok_or_else(|| invalid(format!("{what} must be a JSON object")))?;
    for (k, _) in fields {
        if !known.contains(&k.as_str()) {
            return Err(invalid(format!("unknown {what} key {k:?}")));
        }
    }
    Ok(())
}

// ---- arrival -------------------------------------------------------

fn arrival_to_json(arrival: &ArrivalProcess) -> Json {
    match *arrival {
        ArrivalProcess::Poisson { rate_rps } => {
            json::obj([("poisson", json::obj([("rate_rps", json::num(rate_rps))]))])
        }
        ArrivalProcess::Mmpp {
            low_rps,
            high_rps,
            dwell_low_s,
            dwell_high_s,
        } => json::obj([(
            "mmpp",
            json::obj([
                ("low_rps", json::num(low_rps)),
                ("high_rps", json::num(high_rps)),
                ("dwell_low_s", json::num(dwell_low_s)),
                ("dwell_high_s", json::num(dwell_high_s)),
            ]),
        )]),
        ArrivalProcess::Diurnal {
            base_rps,
            peak_rps,
            period_s,
        } => json::obj([(
            "diurnal",
            json::obj([
                ("base_rps", json::num(base_rps)),
                ("peak_rps", json::num(peak_rps)),
                ("period_s", json::num(period_s)),
            ]),
        )]),
    }
}

fn arrival_from_json(value: &Json) -> Result<ArrivalProcess> {
    let fields = value
        .as_obj()
        .ok_or_else(|| invalid("\"arrival\" must be a JSON object".to_owned()))?;
    if fields.len() != 1 {
        return Err(invalid(
            "\"arrival\" must have exactly one of: poisson, mmpp, diurnal".to_owned(),
        ));
    }
    let (kind, body) = &fields[0];
    match kind.as_str() {
        "poisson" => {
            reject_unknown(body, &["rate_rps"], "poisson")?;
            Ok(ArrivalProcess::Poisson {
                rate_rps: req_f64(body, "rate_rps")?,
            })
        }
        "mmpp" => {
            reject_unknown(
                body,
                &["low_rps", "high_rps", "dwell_low_s", "dwell_high_s"],
                "mmpp",
            )?;
            Ok(ArrivalProcess::Mmpp {
                low_rps: req_f64(body, "low_rps")?,
                high_rps: req_f64(body, "high_rps")?,
                dwell_low_s: req_f64(body, "dwell_low_s")?,
                dwell_high_s: req_f64(body, "dwell_high_s")?,
            })
        }
        "diurnal" => {
            reject_unknown(body, &["base_rps", "peak_rps", "period_s"], "diurnal")?;
            Ok(ArrivalProcess::Diurnal {
                base_rps: req_f64(body, "base_rps")?,
                peak_rps: req_f64(body, "peak_rps")?,
                period_s: req_f64(body, "period_s")?,
            })
        }
        other => Err(invalid(format!("unknown arrival process {other:?}"))),
    }
}

// ---- classes / instances / limits ----------------------------------

fn class_from_json(value: &Json) -> Result<ClassSpec> {
    reject_unknown(
        value,
        &["network", "slo_s", "weight", "min_accuracy"],
        "class",
    )?;
    Ok(ClassSpec {
        network: req_str(value, "network")?,
        slo_s: req_f64(value, "slo_s")?,
        weight: req_f64(value, "weight")?,
        min_accuracy: opt_f64(value, "min_accuracy")?.unwrap_or(0.0),
    })
}

fn instance_to_json(spec: &InstanceSpec) -> Json {
    let mut fields = vec![("count", json::uint(spec.count))];
    if let Some(n) = spec.input_dacs {
        fields.push(("input_dacs", json::uint(n)));
    }
    if let Some(n) = spec.adcs {
        fields.push(("adcs", json::uint(n)));
    }
    if let Some(n) = spec.weight_dacs {
        fields.push(("weight_dacs", json::uint(n)));
    }
    if let Some(p) = spec.ring_pitch_m {
        fields.push(("ring_pitch_m", json::num(p)));
    }
    if let Some(b) = spec.bytes_per_value {
        fields.push(("bytes_per_value", json::int(b)));
    }
    json::obj(fields)
}

fn instance_from_json(value: &Json) -> Result<InstanceSpec> {
    reject_unknown(
        value,
        &[
            "count",
            "input_dacs",
            "adcs",
            "weight_dacs",
            "ring_pitch_m",
            "bytes_per_value",
        ],
        "instance group",
    )?;
    Ok(InstanceSpec {
        count: opt_usize(value, "count")?.unwrap_or(1),
        input_dacs: opt_usize(value, "input_dacs")?,
        adcs: opt_usize(value, "adcs")?,
        weight_dacs: opt_usize(value, "weight_dacs")?,
        ring_pitch_m: opt_f64(value, "ring_pitch_m")?,
        bytes_per_value: opt_u64(value, "bytes_per_value")?,
    })
}

fn limits_from_json(value: &Json) -> Result<DegradationLimits> {
    reject_unknown(
        value,
        &["max_ambient_excursion_k", "min_laser_power_factor"],
        "limits",
    )?;
    let defaults = DegradationLimits::default();
    Ok(DegradationLimits {
        max_ambient_excursion_k: opt_f64(value, "max_ambient_excursion_k")?
            .unwrap_or(defaults.max_ambient_excursion_k),
        min_laser_power_factor: opt_f64(value, "min_laser_power_factor")?
            .unwrap_or(defaults.min_laser_power_factor),
    })
}

// ---- faults --------------------------------------------------------

fn health_to_json(h: &HealthState) -> Json {
    json::obj([
        ("ambient_delta_k", json::num(h.ambient_delta_k)),
        ("laser_power_factor", json::num(h.laser_power_factor)),
        ("dead_input_channels", json::uint(h.dead_input_channels)),
        ("dead_output_channels", json::uint(h.dead_output_channels)),
    ])
}

fn health_from_json(value: &Json) -> Result<HealthState> {
    reject_unknown(
        value,
        &[
            "ambient_delta_k",
            "laser_power_factor",
            "dead_input_channels",
            "dead_output_channels",
        ],
        "degrade",
    )?;
    let nominal = HealthState::nominal();
    Ok(HealthState {
        ambient_delta_k: opt_f64(value, "ambient_delta_k")?.unwrap_or(nominal.ambient_delta_k),
        laser_power_factor: opt_f64(value, "laser_power_factor")?
            .unwrap_or(nominal.laser_power_factor),
        dead_input_channels: opt_usize(value, "dead_input_channels")?
            .unwrap_or(nominal.dead_input_channels),
        dead_output_channels: opt_usize(value, "dead_output_channels")?
            .unwrap_or(nominal.dead_output_channels),
    })
}

fn action_to_json(action: &FaultAction) -> Json {
    match action {
        FaultAction::Fail => json::str("fail"),
        FaultAction::Degrade(h) => json::obj([("degrade", health_to_json(h))]),
        FaultAction::Recalibrate { duration_s } => json::obj([(
            "recalibrate",
            json::obj([("duration_s", json::num(*duration_s))]),
        )]),
    }
}

fn action_from_json(value: &Json) -> Result<FaultAction> {
    if value.as_str() == Some("fail") {
        return Ok(FaultAction::Fail);
    }
    let fields = value
        .as_obj()
        .ok_or_else(|| invalid("fault action must be \"fail\" or an object".to_owned()))?;
    if fields.len() != 1 {
        return Err(invalid(
            "fault action must have exactly one of: degrade, recalibrate".to_owned(),
        ));
    }
    let (kind, body) = &fields[0];
    match kind.as_str() {
        "degrade" => Ok(FaultAction::Degrade(health_from_json(body)?)),
        "recalibrate" => {
            reject_unknown(body, &["duration_s"], "recalibrate")?;
            Ok(FaultAction::Recalibrate {
                duration_s: req_f64(body, "duration_s")?,
            })
        }
        other => Err(invalid(format!("unknown fault action {other:?}"))),
    }
}

fn faults_to_json(faults: &FaultSpec) -> Json {
    match faults {
        FaultSpec::Events(events) => json::obj([(
            "events",
            Json::Arr(
                events
                    .iter()
                    .map(|e| {
                        json::obj([
                            ("at_s", json::num(e.at_s)),
                            ("instance", json::uint(e.instance)),
                            ("action", action_to_json(&e.action)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        FaultSpec::Chaos {
            kind,
            recalibration_s,
            seed,
        } => json::obj([(
            "chaos",
            json::obj([
                ("kind", json::str(kind.name())),
                ("recalibration_s", json::num(*recalibration_s)),
                ("seed", json::int(*seed)),
            ]),
        )]),
    }
}

fn faults_from_json(value: &Json) -> Result<FaultSpec> {
    let fields = value
        .as_obj()
        .ok_or_else(|| invalid("\"faults\" must be a JSON object".to_owned()))?;
    if fields.len() != 1 {
        return Err(invalid(
            "\"faults\" must have exactly one of: events, chaos".to_owned(),
        ));
    }
    let (kind, body) = &fields[0];
    match kind.as_str() {
        "events" => {
            let events = body
                .as_arr()
                .ok_or_else(|| invalid("\"events\" must be an array".to_owned()))?
                .iter()
                .map(|e| {
                    reject_unknown(e, &["at_s", "instance", "action"], "fault event")?;
                    Ok(FaultEvent {
                        at_s: req_f64(e, "at_s")?,
                        instance: e.get("instance").and_then(Json::as_usize).ok_or_else(|| {
                            invalid(
                                "fault event \"instance\" must be a non-negative integer"
                                    .to_owned(),
                            )
                        })?,
                        action: action_from_json(e.get("action").ok_or_else(|| {
                            invalid("fault event missing \"action\"".to_owned())
                        })?)?,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(FaultSpec::Events(events))
        }
        "chaos" => {
            reject_unknown(body, &["kind", "recalibration_s", "seed"], "chaos")?;
            let kind_name = req_str(body, "kind")?;
            let kind = ChaosKind::from_name(&kind_name).ok_or_else(|| {
                invalid(format!(
                    "unknown chaos kind {kind_name:?} (known: {})",
                    ChaosKind::ALL
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            let defaults = ChaosConfig::default();
            Ok(FaultSpec::Chaos {
                kind,
                recalibration_s: opt_f64(body, "recalibration_s")?
                    .unwrap_or(defaults.recalibration_s),
                seed: opt_u64(body, "seed")?.unwrap_or(defaults.seed),
            })
        }
        other => Err(invalid(format!("unknown faults key {other:?}"))),
    }
}

// ---- control -------------------------------------------------------

fn control_to_json(control: &ControlSpec) -> Json {
    let policy = match control.policy {
        PolicySpec::Hold => json::obj([("kind", json::str("hold"))]),
        PolicySpec::Reactive {
            scale_up_load,
            scale_down_load,
            p99_guard_frac,
            accuracy_guard,
            cooldown_windows,
        } => json::obj([
            ("kind", json::str("reactive")),
            ("scale_up_load", json::num(scale_up_load)),
            ("scale_down_load", json::num(scale_down_load)),
            ("p99_guard_frac", json::num(p99_guard_frac)),
            ("accuracy_guard", json::num(accuracy_guard)),
            ("cooldown_windows", json::int(u64::from(cooldown_windows))),
        ]),
        PolicySpec::Predictive {
            alpha,
            beta,
            target_util,
            p99_guard_frac,
            accuracy_guard,
        } => json::obj([
            ("kind", json::str("predictive")),
            ("alpha", json::num(alpha)),
            ("beta", json::num(beta)),
            ("target_util", json::num(target_util)),
            ("p99_guard_frac", json::num(p99_guard_frac)),
            ("accuracy_guard", json::num(accuracy_guard)),
        ]),
    };
    let cfg = &control.config;
    json::obj([
        ("policy", policy),
        (
            "config",
            json::obj([
                ("window_s", json::num(cfg.window_s)),
                ("boot_s", json::num(cfg.boot_s)),
                ("min_active", json::uint(cfg.min_active)),
                ("initial_active", json::uint(cfg.initial_active)),
                ("max_step", json::uint(cfg.max_step)),
                ("idle_power_w", json::num(cfg.idle_power_w)),
            ]),
        ),
    ])
}

fn control_from_json(value: &Json) -> Result<ControlSpec> {
    reject_unknown(value, &["policy", "config"], "control")?;
    let policy_value = value
        .get("policy")
        .ok_or_else(|| invalid("control missing \"policy\"".to_owned()))?;
    reject_unknown(
        policy_value,
        &[
            "kind",
            "scale_up_load",
            "scale_down_load",
            "p99_guard_frac",
            "accuracy_guard",
            "cooldown_windows",
            "alpha",
            "beta",
            "target_util",
        ],
        "control policy",
    )?;
    let kind = req_str(policy_value, "kind")?;
    let mut policy = PolicySpec::from_kind(&kind).ok_or_else(|| {
        invalid(format!(
            "unknown control policy {kind:?} (known: hold, reactive, predictive)"
        ))
    })?;
    match &mut policy {
        PolicySpec::Hold => {}
        PolicySpec::Reactive {
            scale_up_load,
            scale_down_load,
            p99_guard_frac,
            accuracy_guard,
            cooldown_windows,
        } => {
            *scale_up_load = opt_f64(policy_value, "scale_up_load")?.unwrap_or(*scale_up_load);
            *scale_down_load =
                opt_f64(policy_value, "scale_down_load")?.unwrap_or(*scale_down_load);
            *p99_guard_frac = opt_f64(policy_value, "p99_guard_frac")?.unwrap_or(*p99_guard_frac);
            *accuracy_guard = opt_f64(policy_value, "accuracy_guard")?.unwrap_or(*accuracy_guard);
            if let Some(w) = opt_u64(policy_value, "cooldown_windows")? {
                *cooldown_windows = u32::try_from(w)
                    .map_err(|_| invalid(format!("cooldown_windows {w} out of range")))?;
            }
        }
        PolicySpec::Predictive {
            alpha,
            beta,
            target_util,
            p99_guard_frac,
            accuracy_guard,
        } => {
            *alpha = opt_f64(policy_value, "alpha")?.unwrap_or(*alpha);
            *beta = opt_f64(policy_value, "beta")?.unwrap_or(*beta);
            *target_util = opt_f64(policy_value, "target_util")?.unwrap_or(*target_util);
            *p99_guard_frac = opt_f64(policy_value, "p99_guard_frac")?.unwrap_or(*p99_guard_frac);
            *accuracy_guard = opt_f64(policy_value, "accuracy_guard")?.unwrap_or(*accuracy_guard);
        }
    }
    let config = match value.get("config") {
        None => ControlConfig::default(),
        Some(v) => {
            reject_unknown(
                v,
                &[
                    "window_s",
                    "boot_s",
                    "min_active",
                    "initial_active",
                    "max_step",
                    "idle_power_w",
                ],
                "control config",
            )?;
            let d = ControlConfig::default();
            ControlConfig {
                window_s: opt_f64(v, "window_s")?.unwrap_or(d.window_s),
                boot_s: opt_f64(v, "boot_s")?.unwrap_or(d.boot_s),
                min_active: opt_usize(v, "min_active")?.unwrap_or(d.min_active),
                initial_active: opt_usize(v, "initial_active")?.unwrap_or(d.initial_active),
                max_step: opt_usize(v, "max_step")?.unwrap_or(d.max_step),
                idle_power_w: opt_f64(v, "idle_power_w")?.unwrap_or(d.idle_power_w),
            }
        }
    };
    Ok(ControlSpec { policy, config })
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
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive {
                scale_up_load: 0.8,
                scale_down_load: 0.3,
                p99_guard_frac: 0.7,
                accuracy_guard: 0.85,
                cooldown_windows: 3,
            },
            config: ControlConfig {
                initial_active: 4,
                ..ControlConfig::default()
            },
        });
        let back = ScenarioSpec::parse(&spec.render()).unwrap();
        assert_eq!(back, spec);
        let policy = back.control.as_ref().unwrap().policy.build();
        assert_eq!(policy.name(), "reactive");
        for kind in ["hold", "reactive", "predictive"] {
            let p = PolicySpec::from_kind(kind).unwrap();
            assert_eq!(p.kind(), kind);
            assert_eq!(p.build().name(), kind);
        }
        assert!(PolicySpec::from_kind("nope").is_none());
    }

    #[test]
    fn accuracy_slos_round_trip_and_compile() {
        let mut spec = demo_spec();
        spec.accuracy_routing = true;
        spec.classes[0].min_accuracy = 0.85;
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Predictive {
                alpha: 0.4,
                beta: 0.2,
                target_util: 0.6,
                p99_guard_frac: 0.7,
                accuracy_guard: 0.8,
            },
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
        spec.control = Some(ControlSpec {
            policy: PolicySpec::Reactive {
                scale_up_load: 0.75,
                scale_down_load: 0.35,
                p99_guard_frac: 0.7,
                accuracy_guard: -0.2,
                cooldown_windows: 2,
            },
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
            spec.faults = match faults_from_json(&faults) {
                Ok(f) => f,
                Err(_) => continue, // rejected at parse: also a pass
            };
            assert!(spec.validate().is_err(), "{label} must be rejected");
        }
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
        let cases: [(&str, &str, Edit); 16] = [
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
        for p in [
            Policy::Fifo,
            Policy::EarliestDeadlineFirst,
            Policy::NetworkAffinity,
        ] {
            assert_eq!(policy_from_name(policy_name(p)), Some(p));
        }
        assert_eq!(policy_from_name("lifo"), None);
    }
}
