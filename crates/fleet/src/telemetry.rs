//! Deterministic observability: request-lifecycle tracing, windowed
//! time-series, and engine self-profiling.
//!
//! Every aggregate this crate reports ([`FleetReport`], the control
//! plane's ledgers) says *what* happened; this module records *why* —
//! without breaking the determinism contract the rest of the crate is
//! built on. Three instruments share one design rule: **all output is
//! wall-clock-free and byte-identical for a given seed at any
//! `(shards, threads)`**.
//!
//! - **Request-lifecycle tracing.** The engine calls a [`TraceSink`] at
//!   its existing decision points (arrive, enqueue, dispatch, complete,
//!   failover, refuse, shed, recalibrate-drain/re-admit, boot, park).
//!   Per-class stride sampling with a hard cap keeps a million-request
//!   run down to a bounded trace; sampling is keyed to the per-class
//!   arrival ordinal, which is a pure function of the scenario, so the
//!   same requests are traced under every shard layout.
//! - **Windowed time-series.** The control loop records one
//!   [`WindowSample`] per control window — queue depth, utilization,
//!   health mix, per-class p50/p99 from histogram deltas, powered
//!   instance-seconds, and the controller's decision — into a
//!   fixed-capacity [`TimeSeries`] ring.
//! - **Self-profiling.** Hot engine phases (wheel pushes/pops, dispatch
//!   scans, quote lookups, merge folds) bump counters exposed as a
//!   [`Profile`].
//!
//! The disabled path costs nothing: [`NullSink`] is a zero-sized type
//! whose `ENABLED` constant is `false`, and every instrumentation site
//! is guarded by `if S::ENABLED` — the compiler monomorphizes the
//! default engine back to exactly the uninstrumented code.
//!
//! Determinism contract: per-cell traces carry `(cell, seq)` ids and
//! are concatenated in cell-index order — the same canonical order
//! [`ResilienceStats::merge`](crate::metrics::ResilienceStats::merge)
//! folds outcomes in — so
//! [`simulate_sharded_traced`](crate::engine::FleetScenario::simulate_sharded_traced)
//! renders byte-identical JSONL at any shard/thread count.
//!
//! [`FleetReport`]: crate::metrics::FleetReport

use crate::scenario::json::{self, Json};
use std::collections::HashSet;

/// Sentinel request id for instance-level trace events (a failure,
/// recalibration, boot, or park has no single request attached).
pub const NO_REQUEST: u64 = u64::MAX;
/// Sentinel class id for events that are not class-scoped.
pub const NO_CLASS: u32 = u32::MAX;
/// Sentinel instance id for events that happen before dispatch
/// (arrive, enqueue, refuse, shed).
pub const NO_INSTANCE: u32 = u32::MAX;
/// Sentinel accuracy for events with no quoted accuracy attached
/// (anything but dispatch/complete). Negative, so it can never collide
/// with a real top-1 in `[0, 1]`; rendered as `null`.
pub const NO_ACCURACY: f64 = -1.0;

/// The lifecycle moments the engine can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A request entered the system (offered).
    Arrive,
    /// The request was admitted to its class queue.
    Enqueue,
    /// The request was turned away — queue full, no serviceable
    /// instance, or admission control said no.
    Refuse,
    /// The request left the queue in a dispatched batch.
    Dispatch,
    /// The request's batch finished service.
    Complete,
    /// The serving instance failed mid-batch; the request went back to
    /// the front of its queue. With [`NO_REQUEST`] as the id, the event
    /// marks the instance failure itself.
    Failover,
    /// The control plane shed the request from its queue.
    Shed,
    /// An instance began draining into recalibration.
    RecalDrain,
    /// An instance finished recalibration (or boot) and rejoined the
    /// serving pool.
    Readmit,
    /// A parked instance was ordered to boot.
    Boot,
    /// An instance was parked by the control plane.
    Park,
}

impl TraceEventKind {
    /// Stable lowercase label used in the JSONL rendering.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceEventKind::Arrive => "arrive",
            TraceEventKind::Enqueue => "enqueue",
            TraceEventKind::Refuse => "refuse",
            TraceEventKind::Dispatch => "dispatch",
            TraceEventKind::Complete => "complete",
            TraceEventKind::Failover => "failover",
            TraceEventKind::Shed => "shed",
            TraceEventKind::RecalDrain => "recal-drain",
            TraceEventKind::Readmit => "readmit",
            TraceEventKind::Boot => "boot",
            TraceEventKind::Park => "park",
        }
    }
}

/// One recorded lifecycle moment.
///
/// `(cell, seq)` is the event's identity: `seq` increments in the
/// cell's deterministic processing order, so two traces of the same
/// seed are equal exactly when the runs behaved identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Index of the cell (shard-plan partition) that recorded this.
    pub cell: u32,
    /// Per-cell sequence number, dense from 0.
    pub seq: u64,
    /// Simulation time of the event, seconds.
    pub t_s: f64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Global request id, or [`NO_REQUEST`] for instance-level events.
    pub id: u64,
    /// Global class index, or [`NO_CLASS`].
    pub class: u32,
    /// Global instance index, or [`NO_INSTANCE`].
    pub instance: u32,
    /// Quoted top-1 accuracy of the serving instance at dispatch /
    /// completion, or [`NO_ACCURACY`] for events that carry none.
    pub accuracy: f64,
}

impl TraceEvent {
    /// The event as one JSON object; sentinel ids and a missing
    /// accuracy are `null`. Floats render shortest-roundtrip, so the
    /// rendering inherits the trace's byte-identity.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let or_null = |v: Json, present: bool| if present { v } else { Json::Null };
        json::obj([
            ("type", json::str("event")),
            ("cell", json::int(self.cell.into())),
            ("seq", json::int(self.seq)),
            ("t_s", json::num(self.t_s)),
            ("kind", json::str(self.kind.as_str())),
            ("id", or_null(json::int(self.id), self.id != NO_REQUEST)),
            (
                "class",
                or_null(json::int(self.class.into()), self.class != NO_CLASS),
            ),
            (
                "instance",
                or_null(
                    json::int(self.instance.into()),
                    self.instance != NO_INSTANCE,
                ),
            ),
            (
                "accuracy",
                or_null(json::num(self.accuracy), self.accuracy >= 0.0),
            ),
        ])
    }
}

/// Hot engine phases the self-profiler counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileOp {
    /// Event-set insertions.
    WheelPush,
    /// Event-set pops (events fired).
    WheelPop,
    /// Bitset words read by dispatch placement queries.
    DispatchScan,
    /// Service-quote evaluations priced for dispatched batches.
    QuoteLookup,
    /// Per-cell and per-class folds performed by report assembly.
    MergeFold,
}

/// Counter totals over the hot engine phases of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Event-set insertions (completions, control, and fault events).
    pub wheel_pushes: u64,
    /// Event-set pops.
    pub wheel_pops: u64,
    /// Bitset words (eligible, per-row and per-class runs) read by
    /// all dispatch placement queries.
    pub dispatch_scans: u64,
    /// Service-quote evaluations (time + energy) priced at dispatch.
    pub quote_lookups: u64,
    /// Folds performed assembling the final report (cells + classes).
    pub merge_folds: u64,
    /// Trace events recorded.
    pub events_recorded: u64,
    /// Requests selected by the sampler.
    pub requests_sampled: u64,
}

impl Profile {
    /// Adds `other`'s counters into `self` (cell-merge).
    pub fn merge(&mut self, other: &Profile) {
        self.wheel_pushes += other.wheel_pushes;
        self.wheel_pops += other.wheel_pops;
        self.dispatch_scans += other.dispatch_scans;
        self.quote_lookups += other.quote_lookups;
        self.merge_folds += other.merge_folds;
        self.events_recorded += other.events_recorded;
        self.requests_sampled += other.requests_sampled;
    }

    /// The profile as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        json::obj([
            ("type", json::str("profile")),
            ("wheel_pushes", json::int(self.wheel_pushes)),
            ("wheel_pops", json::int(self.wheel_pops)),
            ("dispatch_scans", json::int(self.dispatch_scans)),
            ("quote_lookups", json::int(self.quote_lookups)),
            ("merge_folds", json::int(self.merge_folds)),
            ("events_recorded", json::int(self.events_recorded)),
            ("requests_sampled", json::int(self.requests_sampled)),
        ])
    }
}

/// Where the engine reports lifecycle events and profile counts.
///
/// The engine is generic over its sink and guards every call with
/// `if S::ENABLED`, so the default [`NullSink`] compiles the
/// instrumentation out entirely. Implementations must be deterministic:
/// the engine calls these methods in its (deterministic) processing
/// order, and the trace's byte-identity guarantee is only as good as
/// the sink's.
pub trait TraceSink {
    /// `false` turns every instrumentation site into dead code.
    const ENABLED: bool;

    /// Called once per offered request (in per-class arrival order);
    /// returns whether this request should be traced. Stateful: the
    /// sink remembers its decision for [`TraceSink::is_traced`].
    fn sample(&mut self, class: usize, id: u64) -> bool;

    /// Whether [`TraceSink::sample`] selected this request id.
    fn is_traced(&self, id: u64) -> bool;

    /// Records one lifecycle event. Use [`NO_REQUEST`] / [`NO_CLASS`] /
    /// [`NO_INSTANCE`] for fields that do not apply.
    fn event(&mut self, kind: TraceEventKind, t_s: f64, id: u64, class: usize, instance: usize);

    /// Records one lifecycle event that carries the serving instance's
    /// quoted top-1 accuracy (dispatch and complete). Default drops the
    /// accuracy and forwards to [`TraceSink::event`], so sinks that do
    /// not care never have to change.
    fn event_with_accuracy(
        &mut self,
        kind: TraceEventKind,
        t_s: f64,
        id: u64,
        class: usize,
        instance: usize,
        _accuracy: f64,
    ) {
        self.event(kind, t_s, id, class, instance);
    }

    /// Adds `n` to the counter for `op`.
    fn count(&mut self, op: ProfileOp, n: u64);
}

/// The default sink: a zero-sized type that records nothing. With
/// `ENABLED = false` every `if S::ENABLED` guard in the engine is
/// statically dead, so the monomorphized engine is byte-for-byte
/// today's uninstrumented one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn sample(&mut self, _class: usize, _id: u64) -> bool {
        false
    }

    #[inline(always)]
    fn is_traced(&self, _id: u64) -> bool {
        false
    }

    #[inline(always)]
    fn event(&mut self, _kind: TraceEventKind, _t_s: f64, _id: u64, _class: usize, _inst: usize) {}

    #[inline(always)]
    fn count(&mut self, _op: ProfileOp, _n: u64) {}
}

/// Sampling and sizing knobs for a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace every `stride`-th request of each class (by per-class
    /// arrival ordinal; `0` is treated as `1` = trace everything).
    pub stride: u64,
    /// Hard cap on traced requests per class, whatever the stride.
    pub max_per_class: u64,
    /// Capacity of the control-loop [`TimeSeries`] ring; older windows
    /// are evicted (and counted) once it fills.
    pub timeline_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            stride: 64,
            max_per_class: 4096,
            timeline_capacity: 512,
        }
    }
}

/// A recording [`TraceSink`]: per-class stride sampling with a cap,
/// events kept in processing order with dense `(cell, seq)` ids.
#[derive(Debug, Clone)]
pub struct TracingSink {
    cell: u32,
    seq: u64,
    stride: u64,
    max_per_class: u64,
    /// Per (global) class: offered requests seen so far.
    seen: Vec<u64>,
    /// Per (global) class: requests selected so far.
    sampled: Vec<u64>,
    /// Selected request ids (membership queries only — never iterated,
    /// so hash order cannot leak into the output).
    traced: HashSet<u64>,
    events: Vec<TraceEvent>,
    profile: Profile,
}

impl TracingSink {
    /// A sink for cell `cell` of a fleet with `n_classes` global
    /// request classes.
    #[must_use]
    pub fn new(cell: usize, n_classes: usize, cfg: &TraceConfig) -> TracingSink {
        TracingSink {
            cell: cell as u32,
            seq: 0,
            stride: cfg.stride.max(1),
            max_per_class: cfg.max_per_class,
            seen: vec![0; n_classes],
            sampled: vec![0; n_classes],
            traced: HashSet::new(),
            events: Vec::new(),
            profile: Profile::default(),
        }
    }

    /// The recorded events, in processing order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// This cell's profile counters.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }
}

impl TraceSink for TracingSink {
    const ENABLED: bool = true;

    fn sample(&mut self, class: usize, id: u64) -> bool {
        let ordinal = self.seen[class];
        self.seen[class] += 1;
        if !ordinal.is_multiple_of(self.stride) || self.sampled[class] >= self.max_per_class {
            return false;
        }
        self.sampled[class] += 1;
        self.profile.requests_sampled += 1;
        self.traced.insert(id);
        true
    }

    fn is_traced(&self, id: u64) -> bool {
        self.traced.contains(&id)
    }

    fn event(&mut self, kind: TraceEventKind, t_s: f64, id: u64, class: usize, instance: usize) {
        self.event_with_accuracy(kind, t_s, id, class, instance, NO_ACCURACY);
    }

    fn event_with_accuracy(
        &mut self,
        kind: TraceEventKind,
        t_s: f64,
        id: u64,
        class: usize,
        instance: usize,
        accuracy: f64,
    ) {
        self.events.push(TraceEvent {
            cell: self.cell,
            seq: self.seq,
            t_s,
            kind,
            id,
            class: if class == usize::MAX {
                NO_CLASS
            } else {
                class as u32
            },
            instance: if instance == usize::MAX {
                NO_INSTANCE
            } else {
                instance as u32
            },
            accuracy,
        });
        self.seq += 1;
        self.profile.events_recorded += 1;
    }

    fn count(&mut self, op: ProfileOp, n: u64) {
        match op {
            ProfileOp::WheelPush => self.profile.wheel_pushes += n,
            ProfileOp::WheelPop => self.profile.wheel_pops += n,
            ProfileOp::DispatchScan => self.profile.dispatch_scans += n,
            ProfileOp::QuoteLookup => self.profile.quote_lookups += n,
            ProfileOp::MergeFold => self.profile.merge_folds += n,
        }
    }
}

/// The merged trace of one run: every cell's events concatenated in
/// cell-index order (the canonical merge order) plus the summed
/// [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// All recorded events, cell-major, processing order within a cell.
    pub events: Vec<TraceEvent>,
    /// Summed profile counters across cells.
    pub profile: Profile,
    /// How many cells contributed.
    pub cells: usize,
}

impl FleetTrace {
    /// Folds per-cell sinks in the order given — callers pass cells in
    /// cell-index order, mirroring how outcomes merge into a report.
    #[must_use]
    pub fn from_sinks(sinks: Vec<TracingSink>) -> FleetTrace {
        let cells = sinks.len();
        let mut events = Vec::new();
        let mut profile = Profile::default();
        for sink in sinks {
            profile.merge(&sink.profile);
            events.extend(sink.events);
        }
        FleetTrace {
            events,
            profile,
            cells,
        }
    }

    /// Renders the trace as JSONL: one `profile` line, then one
    /// `event` line per event. Byte-identical across runs of the same
    /// seed at any `(shards, threads)`.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(self.profile.to_json())
            .chain(self.events.iter().map(TraceEvent::to_json))
        {
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Instance health mix at a window boundary. Every instance lands in
/// exactly one of the first seven states (they partition the fleet);
/// `degraded` is an overlay counting instances whose health is below
/// nominal regardless of state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthMix {
    /// Serving a batch right now.
    pub serving: usize,
    /// Up and idle.
    pub idle: usize,
    /// Draining toward recalibration or a pending park.
    pub draining: usize,
    /// Mid power-on.
    pub booting: usize,
    /// Parked by the control plane.
    pub parked: usize,
    /// Offline, recalibrating.
    pub recalibrating: usize,
    /// Hard-failed (and not parked).
    pub failed: usize,
    /// Overlay: instances whose health is below nominal.
    pub degraded: usize,
}

impl HealthMix {
    /// The mix as one JSON object (no surrounding line type).
    #[must_use]
    pub fn to_json(&self) -> Json {
        json::obj([
            ("serving", json::uint(self.serving)),
            ("idle", json::uint(self.idle)),
            ("draining", json::uint(self.draining)),
            ("booting", json::uint(self.booting)),
            ("parked", json::uint(self.parked)),
            ("recalibrating", json::uint(self.recalibrating)),
            ("failed", json::uint(self.failed)),
            ("degraded", json::uint(self.degraded)),
        ])
    }
}

/// One control window in the telemetry timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window ordinal, from 0.
    pub index: u64,
    /// Window end (the decision instant), seconds.
    pub t_s: f64,
    /// Queue depth at the boundary.
    pub queue_depth: usize,
    /// Busy-time utilization over the window (see
    /// [`WindowObservation::utilization`](crate::control::observer::WindowObservation::utilization)).
    pub utilization: f64,
    /// Requests offered this window.
    pub arrivals: u64,
    /// Requests completed this window.
    pub completed: u64,
    /// Requests shed this window.
    pub shed: u64,
    /// Requests throttled at the door this window.
    pub throttled: u64,
    /// Instance health mix at the boundary.
    pub health: HealthMix,
    /// Per-class median latency of this window's completions, seconds
    /// (0 when a class completed nothing).
    pub class_p50_s: Vec<f64>,
    /// Per-class 99th-percentile latency of this window's completions,
    /// seconds (0 when a class completed nothing).
    pub class_p99_s: Vec<f64>,
    /// Powered instance-seconds spent in this window.
    pub powered_s: f64,
    /// The controller's provisioning target after this window.
    pub target_active: usize,
    /// Classes whose admission the controller closed for next window.
    pub classes_closed: usize,
    /// Classes the controller put under a quota for next window.
    pub classes_quota: usize,
    /// Classes the controller shed queue depth from this window.
    pub shed_classes: usize,
}

impl WindowSample {
    /// The sample as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().copied().map(json::num).collect());
        json::obj([
            ("type", json::str("window")),
            ("index", json::int(self.index)),
            ("t_s", json::num(self.t_s)),
            ("queue_depth", json::uint(self.queue_depth)),
            ("utilization", json::num(self.utilization)),
            ("arrivals", json::int(self.arrivals)),
            ("completed", json::int(self.completed)),
            ("shed", json::int(self.shed)),
            ("throttled", json::int(self.throttled)),
            ("health", self.health.to_json()),
            ("class_p50_s", nums(&self.class_p50_s)),
            ("class_p99_s", nums(&self.class_p99_s)),
            ("powered_s", json::num(self.powered_s)),
            ("target_active", json::uint(self.target_active)),
            ("classes_closed", json::uint(self.classes_closed)),
            ("classes_quota", json::uint(self.classes_quota)),
            ("shed_classes", json::uint(self.shed_classes)),
        ])
    }
}

/// Fixed-capacity ring of [`WindowSample`]s. Once full, pushing evicts
/// the oldest sample and counts it in [`TimeSeries::dropped`], so a
/// long run keeps the most recent `capacity` windows.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    pushed: u64,
    /// The retained samples behind up to `capacity` evicted ones, which
    /// [`push`](Self::push) discards in one shift when the buffer
    /// reaches twice the capacity — amortized O(1) per push.
    samples: Vec<WindowSample>,
}

impl TimeSeries {
    /// A ring holding at most `capacity` samples (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            pushed: 0,
            samples: Vec::new(),
        }
    }

    /// Appends a sample, evicting the oldest if the ring is full.
    pub fn push(&mut self, sample: WindowSample) {
        if self.samples.len() == 2 * self.capacity {
            self.samples.drain(..self.capacity);
        }
        self.samples.push(sample);
        self.pushed += 1;
    }

    /// The retained samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples[self.samples.len().saturating_sub(self.capacity)..]
    }

    /// Samples evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.pushed - self.samples().len() as u64
    }

    /// Renders the timeline as JSONL, one `window` line per retained
    /// sample.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.samples() {
            out.push_str(&s.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.dropped() == other.dropped()
            && self.samples() == other.samples()
    }
}

/// Everything a traced closed-loop run records beyond its
/// [`ControlledReport`](crate::control::ControlledReport): the request
/// trace plus the per-window timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTelemetry {
    /// Request-lifecycle trace and profile (whole-fleet single cell).
    pub trace: FleetTrace,
    /// Per-control-window time series.
    pub timeline: TimeSeries,
}

impl ControlTelemetry {
    /// Renders trace then timeline as one JSONL document.
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        let mut out = self.trace.render_jsonl();
        out.push_str(&self.timeline.render_jsonl());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(stride: u64, cap: u64) -> TraceConfig {
        TraceConfig {
            stride,
            max_per_class: cap,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn stride_sampling_is_per_class_and_capped() {
        let mut sink = TracingSink::new(0, 2, &cfg(3, 2));
        // class 0 ordinals 0..7: selected at 0, 3 (cap 2 stops 6)
        let picks: Vec<bool> = (0..7).map(|i| sink.sample(0, 100 + i)).collect();
        assert_eq!(picks, [true, false, false, true, false, false, false]);
        // class 1 has its own ordinal stream
        assert!(sink.sample(1, 900));
        assert!(sink.is_traced(100));
        assert!(sink.is_traced(103));
        assert!(!sink.is_traced(101));
        assert!(!sink.is_traced(106), "per-class cap must hold");
        assert_eq!(sink.profile().requests_sampled, 3);
    }

    #[test]
    fn stride_zero_means_trace_everything() {
        let mut sink = TracingSink::new(0, 1, &cfg(0, 10));
        let picks = (0..4).filter(|&i| sink.sample(0, i)).count();
        assert_eq!(picks, 4);
    }

    #[test]
    fn events_get_dense_cell_seq_ids() {
        let mut sink = TracingSink::new(3, 1, &cfg(1, 10));
        sink.event(TraceEventKind::Arrive, 0.5, 7, 0, usize::MAX);
        sink.event(TraceEventKind::Enqueue, 0.5, 7, 0, usize::MAX);
        let evs = sink.events();
        assert_eq!((evs[0].cell, evs[0].seq), (3, 0));
        assert_eq!((evs[1].cell, evs[1].seq), (3, 1));
        assert_eq!(evs[0].instance, NO_INSTANCE);
        let ev = evs[1].to_json();
        assert_eq!(ev.get("kind"), Some(&json::str("enqueue")));
        assert_eq!(ev.get("instance"), Some(&Json::Null));
    }

    #[test]
    fn trace_merge_is_cell_order_and_sums_profiles() {
        let mut a = TracingSink::new(0, 1, &cfg(1, 10));
        let mut b = TracingSink::new(1, 1, &cfg(1, 10));
        a.event(TraceEventKind::Arrive, 0.1, 1, 0, usize::MAX);
        b.event(TraceEventKind::Arrive, 0.2, 2, 0, usize::MAX);
        b.count(ProfileOp::WheelPush, 5);
        a.count(ProfileOp::WheelPush, 2);
        let trace = FleetTrace::from_sinks(vec![a, b]);
        assert_eq!(trace.cells, 2);
        assert_eq!(trace.events.len(), 2);
        assert_eq!((trace.events[0].cell, trace.events[1].cell), (0, 1));
        assert_eq!(trace.profile.wheel_pushes, 7);
        assert_eq!(trace.profile.events_recorded, 2);
        let jsonl = trace.render_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "profile line + 2 events");
    }

    fn window(i: u64) -> WindowSample {
        WindowSample {
            index: i,
            t_s: i as f64,
            queue_depth: 0,
            utilization: 0.0,
            arrivals: 0,
            completed: 0,
            shed: 0,
            throttled: 0,
            health: HealthMix::default(),
            class_p50_s: vec![0.0],
            class_p99_s: vec![0.0],
            powered_s: 0.0,
            target_active: 0,
            classes_closed: 0,
            classes_quota: 0,
            shed_classes: 0,
        }
    }

    #[test]
    fn time_series_ring_evicts_oldest() {
        let capacity = 2u64;
        let mut ts = TimeSeries::new(capacity as usize);
        for n in 1..=3 * capacity {
            ts.push(window(n - 1));
            let first = n.saturating_sub(capacity);
            let kept: Vec<u64> = ts.samples().iter().map(|s| s.index).collect();
            assert_eq!(kept, (first..n).collect::<Vec<u64>>(), "after {n} pushes");
            assert_eq!(ts.dropped(), first);
        }
        assert_eq!(ts.render_jsonl().lines().count(), 2);
        // equality sees the retained window, not the evicted samples
        let mut twin = TimeSeries::new(capacity as usize);
        for i in 0..3 * capacity {
            twin.push(window(if i < 2 * capacity { 99 } else { i }));
        }
        assert_eq!(twin, ts);
    }

    #[test]
    fn null_sink_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink;
        assert!(!s.sample(0, 1));
        assert!(!s.is_traced(1));
    }
}
