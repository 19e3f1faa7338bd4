//! # pcnna-fleet — multi-accelerator serving & throughput simulation.
//!
//! The rest of the workspace models one PCNNA device from microring physics
//! up to single-network latency. This crate adds the request level a
//! production deployment is judged on: a **discrete-event simulation** of
//! inference traffic arriving at a fleet of PCNNA instances, with batching,
//! queueing, SLOs, and tail-latency / throughput / energy-per-request
//! accounting — the serving figures of merit Eyeriss- and YodaNN-class
//! systems publish.
//!
//! The pieces:
//!
//! * [`workload`] — arrival processes ([Poisson](workload::ArrivalProcess::Poisson),
//!   bursty [MMPP](workload::ArrivalProcess::Mmpp), sinusoidal
//!   [diurnal](workload::ArrivalProcess::Diurnal)) over a weighted class
//!   mix of networks from `pcnna_cnn::zoo` (the engine samples it through
//!   the borrowed, allocation-free [`workload::ClassSampler`]), each
//!   request tagged with its class's SLO deadline.
//! * [`scheduler`] — batching admission policies: FIFO, earliest-deadline-
//!   first, and network-affinity batching that amortizes the MRR
//!   weight-reprogramming cost across same-network batches.
//! * [`engine`] — the discrete-event fleet engine: N heterogeneous
//!   [`PcnnaConfig`](pcnna_core::PcnnaConfig) instances, per-class queues
//!   with bounded admission, greedy fastest-available placement, and
//!   health-aware dispatch (degraded instances requote, failed ones
//!   fail their work over, recalibrating ones drain and re-admit).
//!   Future events live in a binary heap on integer keys
//!   ([`engine::wheel`]; it beat the radix timing wheel it replaced at
//!   a cell's depth of one completion per instance), and one
//!   simulation scales across cores through the deterministic
//!   [shard partition](engine::shard): same seed ⇒ bit-identical
//!   report at every shard and thread count
//!   ([`FleetScenario::simulate_sharded`](engine::FleetScenario::simulate_sharded)).
//! * [`faults`] — fleet fault timelines over
//!   `pcnna_photonics::degradation` and the named chaos scenarios
//!   (heat wave, laser aging, channel-loss burst, rolling
//!   recalibration) the CI scenario matrix replays.
//! * [`control`] — the closed loop over all of the above: an observer
//!   (windowed metric deltas), pluggable scaling/admission/shedding
//!   policies (reactive hysteresis and predictive Holt-forecast), and
//!   an actuator that boots and parks instances with realistic
//!   boot + ring-lock cost
//!   ([`FleetScenario::simulate_controlled`](engine::FleetScenario::simulate_controlled)) —
//!   scored by SLO-attainment-per-watt against the always-on baseline.
//! * [`telemetry`] — deterministic observability over the engine:
//!   sampled request-lifecycle traces, control-window time series, and
//!   engine self-profiling, all byte-identical for a given seed at any
//!   shard/thread count and compiled out by default through the
//!   zero-sized [`NullSink`]
//!   ([`FleetScenario::simulate_sharded_traced`](engine::FleetScenario::simulate_sharded_traced)).
//! * [`metrics`] — p50/p95/p99/p999 latency, throughput, SLO attainment,
//!   utilization, and energy-per-request built on the `pcnna-core` power
//!   models.
//! * [`par`] — the ordered parallel map the design-space sweeps fan out
//!   on (an offline stand-in for rayon), and the bound that keeps every
//!   worker pool here within the host's cores.
//!
//! The hot loop never re-runs the analytical model: every
//! (instance, network) pair is collapsed once into a
//! [`ServiceQuote`](pcnna_core::serving::ServiceQuote) — an affine
//! (weight-load, per-frame) cost in both time and energy — so pricing a
//! batch is two multiply-adds.
//!
//! ## Quickstart
//!
//! ```
//! use pcnna_fleet::prelude::*;
//!
//! let scenario = FleetScenario {
//!     classes: vec![
//!         NetworkClass::alexnet(0.050, 1.0),
//!         NetworkClass::lenet5(0.010, 3.0),
//!     ],
//!     arrival: ArrivalProcess::Poisson { rate_rps: 2000.0 },
//!     policy: Policy::NetworkAffinity,
//!     instances: vec![pcnna_core::PcnnaConfig::default(); 4],
//!     ..FleetScenario::default()
//! };
//! let report = scenario.simulate().unwrap();
//! assert!(report.completed > 0);
//! assert!(report.latency.p99_s >= report.latency.p50_s);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
// `if !(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0`
// it also rejects NaN, which must never enter the simulation (same policy
// as pcnna-core).
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod control;
pub mod engine;
pub mod faults;
pub mod fuzz;
pub mod metrics;
pub mod par;
pub mod scenario;
pub mod scheduler;
pub mod telemetry;
pub mod workload;

pub use control::{ControlConfig, ControlledReport, PowerMetrics};
pub use engine::{FleetScenario, ShardPlan};
pub use faults::{chaos_timeline, ChaosConfig, ChaosKind, FaultAction, FaultEvent, FaultTimeline};
pub use fuzz::{CampaignConfig, CampaignSummary, Oracle, Violation};
pub use metrics::{FleetReport, LatencySummary, ResilienceStats};
pub use scenario::{CompiledScenario, ScenarioSpec};
pub use scheduler::Policy;
pub use telemetry::{FleetTrace, NullSink, TraceConfig, TraceSink, TracingSink};
pub use workload::{ArrivalProcess, NetworkClass, Request};

/// Errors produced by the fleet simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// A scenario parameter is invalid.
    InvalidScenario {
        /// Description of the violated constraint.
        reason: String,
    },
    /// An error bubbled up from the accelerator core while quoting a
    /// (network, config) pair.
    Core(pcnna_core::CoreError),
    /// The core models found no quote for a class on an instance config
    /// even at nominal health, so the fleet could never serve it.
    UnquotableConfig {
        /// Index of the instance whose config failed, in
        /// `FleetScenario::instances`.
        config: usize,
        /// Index of the class it cannot serve, in `FleetScenario::classes`.
        class: usize,
    },
    /// A thread of a sharded run, the calling thread included, panicked
    /// while it ran a cell.
    WorkerPanicked {
        /// Index of the shard cell the worker was running, in the
        /// scenario's [`ShardPlan`].
        cell: usize,
        /// The panic's message.
        message: String,
    },
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::InvalidScenario { reason } => {
                write!(f, "invalid fleet scenario: {reason}")
            }
            FleetError::Core(e) => write!(f, "core error while quoting: {e}"),
            FleetError::UnquotableConfig { config, class } => write!(
                f,
                "instance config {config} has no nominal quote for class {class}"
            ),
            FleetError::WorkerPanicked { cell, message } => {
                write!(f, "shard worker panicked in cell {cell}: {message}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Core(e) => Some(e),
            FleetError::InvalidScenario { .. }
            | FleetError::UnquotableConfig { .. }
            | FleetError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<pcnna_core::CoreError> for FleetError {
    fn from(e: pcnna_core::CoreError) -> Self {
        FleetError::Core(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, FleetError>;

/// One-stop imports for scenario construction.
pub mod prelude {
    pub use crate::control::observer::WindowObservation;
    pub use crate::control::policy::{
        Admission, ControlAction, ControlPolicy, FleetView, Hold, PredictivePolicy, ReactivePolicy,
    };
    pub use crate::control::{
        power_metrics, uncontrolled_power_metrics, ControlConfig, ControlledReport, PowerMetrics,
        WindowTrace,
    };
    pub use crate::engine::{FleetScenario, ShardPlan};
    pub use crate::faults::{
        chaos_timeline, ChaosConfig, ChaosKind, FaultAction, FaultEvent, FaultTimeline,
    };
    pub use crate::fuzz::{
        default_oracles, run_and_check, run_campaign, shrink, CampaignConfig, CampaignSummary,
        CheckOutcome, Oracle, RunArtifacts, ScenarioGen, Violation,
    };
    pub use crate::metrics::{FleetReport, LatencyHistogram, LatencySummary, ResilienceStats};
    pub use crate::par;
    pub use crate::scenario::{
        ClassSpec, CompiledScenario, ControlSpec, FaultSpec, InstanceSpec, PolicySpec, ScenarioSpec,
    };
    pub use crate::scheduler::Policy;
    pub use crate::telemetry::{
        ControlTelemetry, FleetTrace, HealthMix, NullSink, Profile, TimeSeries, TraceConfig,
        TraceEvent, TraceEventKind, TraceSink, TracingSink, WindowSample,
    };
    pub use crate::workload::{ArrivalProcess, ClassSampler, NetworkClass};
    pub use pcnna_photonics::degradation::{DegradationLimits, HealthState};
}
