//! The discrete-event core: one shard cell's event loop.
//!
//! [`CellEngine`] is the engine that used to live behind `simulate()` as
//! a single closed loop, refactored into a **resumable** unit so the
//! same code drives both execution shapes:
//!
//! * the whole-fleet engine — one cell owning every class and instance,
//!   fed arrivals straight off the streaming sampler (this is exactly
//!   the pre-shard engine, event for event); and
//! * a shard cell — one slice of the class/instance partition
//!   ([`CellSpec`](super::shard)), fed its classes' arrivals by the
//!   shard driver in conservative time windows.
//!
//! The caller contract is a three-step protocol: for each arriving
//! request, [`CellEngine::advance_through`] the arrival instant (which
//! processes every internal event — completions, restores, faults — at
//! or before it, in the engine's canonical tie order), then
//! [`CellEngine::admit`] the request; when arrivals are exhausted,
//! [`CellEngine::finish`] drains the remaining events and yields the
//! cell's [`CellOutcome`].
//!
//! Internally the future-event sets are two [`TimingWheel`]s
//! (completions and recalibration restores): binary min-heaps on the
//! integer key `(time bits, instance, epoch)`, with hard-failure
//! cancellation by epoch token — a stale event is recognized when it
//! surfaces at the front and skipped, never searched for. A cell holds
//! at most one completion per instance, a depth at which the heap's
//! O(log n) sift beat the octave radix wheel it replaced; pop order is
//! the same, so the swap changed no simulation result.
//!
//! Everything else the pre-shard engine guaranteed still holds per
//! cell: memoized `Copy` quotes (interned per `(config, health)`, so a
//! fault requote derives only states the cell has not met), zero
//! steady-state allocation (slab arena of warm batch buffers,
//! log-binned latency histograms), greedy completion-earliest
//! placement, and the full degradation/failover
//! protocol (degrade ⇒ requote, fail ⇒ abort + front-of-queue failover
//! + refund, recalibrate ⇒ drain/offline/re-lock).
//!
//! Placement reads bitsets, never instance records: instances are
//! kept per quote row, and idle ones per loaded class, so "the fastest
//! instance for a class" and "the deepest class an idle instance
//! already holds" are answered from at most two candidates per live
//! row, whatever the number of instances or of distinct health
//! states. Debug builds check both answers against an
//! instance-by-instance scan on every dispatch.

use super::shard::CellSpec;
use super::wheel::{EventTime, TimingWheel, WheelEvent};
use super::{FleetScenario, QuoteTable};
use crate::faults::{FaultAction, FaultTimeline};
use crate::metrics::{LatencyHistogram, ResilienceStats};
use crate::scheduler::{ClassQueues, Policy};
use crate::telemetry::{HealthMix, NullSink, ProfileOp, TraceEventKind, TraceSink, NO_REQUEST};
use crate::workload::Request;
use pcnna_core::serving::{service_quote, QuoteRequest, ServiceQuote};
use pcnna_photonics::degradation::HealthState;
use std::collections::HashMap;

/// One in-flight batch slot: the (cell-local) class served, a reusable
/// request buffer whose capacity survives release/acquire cycles, and
/// the dispatch provenance (start/finish time, billed energy) a hard
/// failure needs to refund the unserved remainder of an aborted batch.
#[derive(Debug, Default)]
struct InflightSlot {
    class: usize,
    requests: Vec<Request>,
    started_s: f64,
    done_s: f64,
    energy_j: f64,
    /// Top-1 accuracy quoted for the serving instance at dispatch.
    accuracy: f64,
    /// Whether that quote was below the class's `min_accuracy` floor.
    below_accuracy: bool,
}

/// Slab arena for in-flight batches, indexed by `u32` handles.
///
/// `acquire` pops a free slot (or grows the slab during warm-up); the
/// slot's request buffer keeps its capacity across `release`, so once
/// every instance has dispatched a full batch the event loop performs
/// **zero heap allocation** — requests move queue → slot buffer → stats
/// without a `Vec` ever being constructed per batch.
#[derive(Debug, Default)]
struct InflightArena {
    slots: Vec<InflightSlot>,
    free: Vec<u32>,
}

impl InflightArena {
    /// Acquires a slot for a batch of `class`, reusing a freed slot's
    /// warm buffer when one exists.
    fn acquire(&mut self, class: usize) -> u32 {
        if let Some(handle) = self.free.pop() {
            let slot = &mut self.slots[handle as usize];
            slot.class = class;
            slot.requests.clear();
            handle
        } else {
            // A cell runs at most one batch per instance, and instance
            // indices already travel through the event sets as `u32`.
            #[allow(clippy::expect_used)]
            let handle =
                u32::try_from(self.slots.len()).expect("more than u32::MAX concurrent batches");
            self.slots.push(InflightSlot {
                class,
                ..InflightSlot::default()
            });
            handle
        }
    }

    /// Records a batch's dispatch provenance (for abort refunds) and the
    /// accuracy it was quoted at.
    fn note_dispatch(
        &mut self,
        handle: u32,
        started_s: f64,
        done_s: f64,
        energy_j: f64,
        accuracy: f64,
        below_accuracy: bool,
    ) {
        let slot = &mut self.slots[handle as usize];
        slot.started_s = started_s;
        slot.done_s = done_s;
        slot.energy_j = energy_j;
        slot.accuracy = accuracy;
        slot.below_accuracy = below_accuracy;
    }

    /// The accuracy a batch was quoted at: `(accuracy, below_floor)`.
    fn accuracy(&self, handle: u32) -> (f64, bool) {
        let slot = &self.slots[handle as usize];
        (slot.accuracy, slot.below_accuracy)
    }

    /// The dispatch provenance of an in-flight batch:
    /// `(started_s, done_s, energy_j)`.
    fn provenance(&self, handle: u32) -> (f64, f64, f64) {
        let slot = &self.slots[handle as usize];
        (slot.started_s, slot.done_s, slot.energy_j)
    }

    /// The class of an in-flight batch.
    fn class(&self, handle: u32) -> usize {
        self.slots[handle as usize].class
    }

    /// The request buffer of an in-flight batch.
    fn requests(&self, handle: u32) -> &[Request] {
        &self.slots[handle as usize].requests
    }

    /// Mutable request buffer (for filling at dispatch).
    fn requests_mut(&mut self, handle: u32) -> &mut Vec<Request> {
        &mut self.slots[handle as usize].requests
    }

    /// Returns a slot to the free list (its buffer keeps its capacity).
    fn release(&mut self, handle: u32) {
        self.free.push(handle);
    }
}

/// Sentinel for "no in-flight batch" in the flat `busy` array (the
/// arena hands out dense handles from zero, so the max is never a real
/// handle).
const NO_BATCH: u32 = u32::MAX;

/// Sentinel for "no network's weights resident" in the flat `loaded`
/// array.
const NO_CLASS: u32 = u32::MAX;

/// In service: may take new work (cleared while failed, draining,
/// recalibrating, parked, or booting).
const F_UP: u8 = 1 << 0;
/// Mid-recalibration, restore event pending.
const F_RECAL: u8 = 1 << 1;
/// Draining toward a deferred recalibration (`drain_s` holds the
/// window length).
const F_DRAINING: u8 = 1 << 2;
/// Administratively powered off by the control plane.
const F_PARKED: u8 = 1 << 3;
/// Busy when a park was requested: parks at completion.
const F_PARK_PENDING: u8 = 1 << 4;
/// Powering back on, restore event pending.
const F_BOOTING: u8 = 1 << 5;
/// Inside an open offline interval (`offline_from_s` holds its start).
const F_OFFLINE: u8 = 1 << 6;

/// One (instance, class) quote flattened to `f64` seconds/joules — the
/// form the dispatch inner loop consumes. Converting `SimTime` per
/// `service_seconds` call showed up in profiles; this is computed once
/// per run.
#[derive(Debug, Clone, Copy)]
struct QuoteF {
    weight_load_s: f64,
    per_frame_s: f64,
    weight_load_j: f64,
    per_frame_j: f64,
    /// Quoted top-1 accuracy on this instance's current health.
    top1: f64,
}

impl QuoteF {
    /// The placeholder for a pair the core models could not quote. It
    /// is never read: such a pair is marked non-serviceable, and every
    /// reader checks serviceability first.
    const UNQUOTED: QuoteF = QuoteF {
        weight_load_s: f64::NAN,
        per_frame_s: f64::NAN,
        weight_load_j: f64::NAN,
        per_frame_j: f64::NAN,
        top1: f64::NAN,
    };

    fn from_quote(q: ServiceQuote) -> Self {
        QuoteF {
            weight_load_s: q.weight_load.as_secs_f64(),
            per_frame_s: q.per_frame.as_secs_f64(),
            weight_load_j: q.weight_load_energy_j,
            per_frame_j: q.per_frame_energy_j,
            top1: q.accuracy.top1_accuracy,
        }
    }
}

/// The intern key of a quote row: the instance's config (as its
/// construction-time row) and the bit patterns of its health. Every
/// other input of `service_quote` is fixed for the scenario, so equal
/// keys price bit-identical quotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RowKey {
    config: u32,
    ambient_delta_k: u64,
    laser_power_factor: u64,
    dead_input_channels: usize,
    dead_output_channels: usize,
}

impl RowKey {
    fn new(config: u32, health: &HealthState) -> Self {
        RowKey {
            config,
            ambient_delta_k: health.ambient_delta_k.to_bits(),
            laser_power_factor: health.laser_power_factor.to_bits(),
            dead_input_channels: health.dead_input_channels,
            dead_output_channels: health.dead_output_channels,
        }
    }
}

/// Whether a priced pair may be served: always without accuracy
/// routing; under it, only at or above the class's accuracy floor.
fn serviceable(q: &QuoteF, accuracy_routing: bool, min_accuracy: f64) -> bool {
    !accuracy_routing || q.top1 >= min_accuracy
}

/// The index of the first set bit in a bitset read word by word,
/// adding `cost` to `read` per word read (the words an AND of `cost`
/// runs loads).
fn first_set(words: impl Iterator<Item = u64>, cost: u64, read: &mut u64) -> Option<usize> {
    for (w, word) in words.enumerate() {
        *read += cost;
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Everything one cell accumulated, in the exact shape
/// [`merge::assemble`](super::merge::assemble) folds back into a
/// [`FleetReport`](crate::metrics::FleetReport). Counters are exact
/// sums; f64 ledgers were accumulated in the cell's own event order, so
/// the merged report is a pure function of the partition — never of the
/// shard or thread count the run happened to use.
#[derive(Debug)]
pub(crate) struct CellOutcome {
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub batches: u64,
    pub weight_reloads: u64,
    pub energy_j: f64,
    pub last_event_s: f64,
    /// Global index of the cell's first instance (its instances are the
    /// contiguous range starting here).
    pub instance_start: usize,
    pub busy_time_s: Vec<f64>,
    pub per_instance_batches: Vec<u64>,
    /// Per-class accounting in the cell's local class order (each entry
    /// names its global class index).
    pub classes: Vec<ClassSlice>,
    /// Resilience ledger; `availability` is a placeholder until the
    /// merge recomputes it against the fleet-wide makespan.
    pub res: ResilienceStats,
}

/// One class's slice of a cell outcome.
#[derive(Debug)]
pub(crate) struct ClassSlice {
    /// Global class index.
    pub class: usize,
    pub admitted: u64,
    pub on_time: u64,
    /// Requests of this class shed from the queue by the control plane.
    pub shed: u64,
    /// Completions quoted at or above the class's accuracy floor.
    pub on_accuracy: u64,
    /// Completions quoted below the class's accuracy floor (served
    /// anyway — accuracy routing was off or the floor is 0).
    pub below_accuracy: u64,
    pub hist: LatencyHistogram,
}

/// One shard cell's discrete-event engine (module docs tell the story).
///
/// Generic over its [`TraceSink`]: the default [`NullSink`] has
/// `ENABLED = false`, so every `if S::ENABLED` guard below is
/// statically dead and the monomorphized default engine is exactly the
/// uninstrumented one.
pub(crate) struct CellEngine<'a, S: TraceSink = NullSink> {
    scenario: &'a FleetScenario,
    /// Local → global class index.
    classes: Vec<usize>,
    /// Global → local class index (`usize::MAX` for classes owned by
    /// other cells — routing there is a driver bug, debug-asserted).
    class_local: Vec<usize>,
    /// Global index of local instance 0 (the cell owns a contiguous
    /// instance range).
    instance_start: usize,
    n_classes: usize,
    queue_capacity: usize,
    /// The cell's slice of the fault timeline, instance-remapped to
    /// local indices, with its cursor.
    faults: FaultTimeline,
    fault_idx: usize,
    // --- struct-of-arrays instance state -----------------------------
    //
    // Every per-instance record is a flat parallel array of primitives.
    // Placement never walks instances: it reads three families of
    // bitsets over them (eligible, per row, per loaded class), in index
    // order, so a dispatch touches O(live rows × classes × words) words
    // — `n/64` per run — instead of `n` records.
    //
    /// The interned quote table, row-major `row × local classes`: one
    /// immutable row per distinct `(config, health)` key the cell has
    /// met, appended in first-seen order and never rewritten. The
    /// first rows, one per distinct config, are the `(config,
    /// nominal)` entries built at construction, so a single-config
    /// fleet stores one row however many instances it has, and a heat
    /// wave adds one row per distinct drift step, not one per fault
    /// event.
    quote_rows: Vec<QuoteF>,
    /// Serviceability per (row, local class), parallel to `quote_rows`.
    serviceable_rows: Vec<bool>,
    /// Each instance's row in the interned table — the quotes of its
    /// current `(config, health)`. Instances in the same state share
    /// one row.
    quote_row: Vec<u32>,
    /// The intern index: row of each key in the table.
    row_of_key: HashMap<RowKey, u32>,
    /// The config half of each row's key (its `(config, nominal)` row).
    row_config: Vec<u32>,
    /// Instances whose `quote_row` points at each row.
    row_users: Vec<u32>,
    /// The rows with at least one user, in no particular order — the
    /// only rows a dispatch visits, so its cost follows the states the
    /// fleet is in now, not every state it ever met.
    live_rows: Vec<u32>,
    /// Each row's position in `live_rows` (meaningless while the row
    /// has no users).
    live_slot: Vec<u32>,
    /// Per-row membership bitsets, one run of `words` u64 per interned
    /// row: bit `i` of run `r` is set ⇔ `quote_row[i] == r`. The runs
    /// partition the instances, so a row's idle instances are its run
    /// ANDed with `eligible_bits`. Membership changes only at a
    /// requote, never at a dispatch or completion, so the hot path
    /// maintains nothing here.
    row_members: Vec<u64>,
    queues: ClassQueues,
    /// Handle of the in-flight batch, or [`NO_BATCH`].
    busy: Vec<u32>,
    inflight: InflightArena,
    /// Local class whose MRR weights the instance holds, or [`NO_CLASS`].
    loaded: Vec<u32>,
    busy_time_s: Vec<f64>,
    /// Bitset over instances: bit set ⇔ up with no batch in flight.
    eligible_bits: Vec<u64>,
    /// Count of set bits in `eligible_bits` — the dispatch fast path:
    /// when zero (a saturated or fully offline cell), arrivals skip the
    /// placement queries entirely, which is what keeps large fleets
    /// from paying anything per arrival beyond the queue push.
    eligible_count: usize,
    /// Per-class eligibility bitsets, `n_classes` runs of
    /// `eligible_bits.len()` words each: bit `i` of run `c` is set ⇔
    /// instance `i` is eligible **and** holds class `c`'s weights.
    class_bits: Vec<u64>,
    /// Completion events, epoch-cancellable.
    completions: TimingWheel,
    /// Recalibration-restore events, epoch-cancellable.
    control: TimingWheel,
    /// Reusable buffer for same-instant completion cohorts popped off
    /// the completion set in one batch.
    batch_buf: Vec<WheelEvent>,
    // --- degradation / failover / control-plane state (SoA) ---
    health: Vec<HealthState>,
    /// Per-instance lifecycle flags (`F_*` bits).
    flags: Vec<u8>,
    /// Recalibration window length for a draining instance (valid while
    /// `F_DRAINING` is set).
    drain_s: Vec<f64>,
    recal_until: Vec<f64>,
    control_epoch: Vec<u32>,
    /// Start of the open offline interval (valid while `F_OFFLINE`).
    offline_from_s: Vec<f64>,
    offline_s: f64,
    epoch: Vec<u32>,
    rank_buf: Vec<usize>,
    shed_per_class: Vec<u64>,
    res: ResilienceStats,
    // accounting
    offered: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    batches: u64,
    per_instance_batches: Vec<u64>,
    weight_reloads: u64,
    energy_j: f64,
    last_event_s: f64,
    admitted_per_class: Vec<u64>,
    hist_per_class: Vec<LatencyHistogram>,
    on_time_per_class: Vec<u64>,
    on_accuracy_per_class: Vec<u64>,
    below_accuracy_per_class: Vec<u64>,
    /// Per-local-class accuracy floors ([`NetworkClass::min_accuracy`]).
    ///
    /// [`NetworkClass::min_accuracy`]: crate::workload::NetworkClass::min_accuracy
    min_accuracy: Vec<f64>,
    /// Where lifecycle events and profile counts go (ZST when disabled).
    sink: S,
}

impl<'a, S: TraceSink> CellEngine<'a, S> {
    pub(crate) fn with_sink(
        scenario: &'a FleetScenario,
        quotes: &QuoteTable,
        spec: &CellSpec,
        sink: S,
    ) -> Self {
        let n_classes = spec.classes.len();
        let n_instances = spec.instances.len();
        let mut class_local = vec![usize::MAX; scenario.classes.len()];
        for (local, &global) in spec.classes.iter().enumerate() {
            class_local[global] = local;
        }
        // Copy only the distinct quote rows this cell's instances use
        // (restricted to the cell's classes), and point every instance
        // at its shared row — the struct-of-arrays mirror of the
        // deduplicated [`QuoteTable`], and the `(config, nominal)`
        // entries of the intern table.
        let mut table_to_cell_row: Vec<u32> = vec![u32::MAX; quotes.n_rows()];
        let mut quote_rows: Vec<QuoteF> = Vec::new();
        let mut quote_row: Vec<u32> = Vec::with_capacity(n_instances);
        let mut row_users: Vec<u32> = Vec::new();
        let mut row_of_key = HashMap::new();
        let mut row_config: Vec<u32> = Vec::new();
        for i in spec.instances.clone() {
            let tr = quotes.row_index(i);
            if table_to_cell_row[tr] == u32::MAX {
                // At most one construction row per instance, and instance
                // indices already travel through the event sets as `u32`.
                #[allow(clippy::expect_used)]
                let r = u32::try_from(row_users.len()).expect("row count fits u32");
                table_to_cell_row[tr] = r;
                row_of_key.insert(RowKey::new(r, &HealthState::nominal()), r);
                row_users.push(0);
                row_config.push(r);
                let row = quotes.row(tr);
                quote_rows.extend(spec.classes.iter().map(|&c| QuoteF::from_quote(row[c])));
            }
            row_users[table_to_cell_row[tr] as usize] += 1;
            quote_row.push(table_to_cell_row[tr]);
        }
        let min_accuracy: Vec<f64> = spec
            .classes
            .iter()
            .map(|&c| scenario.classes[c].min_accuracy)
            .collect();
        // Under accuracy routing a pair whose quoted accuracy starts
        // below its class floor is never served (an infeasible floor
        // leaves those requests unserved — refusing, not serving
        // garbage). Without routing every pair starts serviceable.
        let serviceable_rows: Vec<bool> = quote_rows
            .iter()
            .enumerate()
            .map(|(idx, q)| {
                serviceable(
                    q,
                    scenario.accuracy_routing,
                    min_accuracy[idx % n_classes.max(1)],
                )
            })
            .collect();
        // Every instance starts up and idle (eligible), in its config row.
        let words = n_instances.div_ceil(64);
        let mut eligible_bits = vec![0u64; words];
        let mut row_members = vec![0u64; row_users.len() * words];
        for (i, &r) in quote_row.iter().enumerate() {
            eligible_bits[i >> 6] |= 1 << (i & 63);
            row_members[r as usize * words + (i >> 6)] |= 1 << (i & 63);
        }
        // As above: one construction row per instance at most.
        #[allow(clippy::expect_used)]
        let n_rows = u32::try_from(row_users.len()).expect("row count fits u32");
        CellEngine {
            scenario,
            classes: spec.classes.clone(),
            class_local,
            instance_start: spec.instances.start,
            n_classes,
            queue_capacity: spec.queue_capacity,
            faults: scenario.faults.slice_instances(spec.instances.clone()),
            fault_idx: 0,
            quote_rows,
            serviceable_rows,
            quote_row,
            row_of_key,
            row_config,
            row_users,
            live_rows: (0..n_rows).collect(),
            live_slot: (0..n_rows).collect(),
            row_members,
            queues: ClassQueues::new(n_classes),
            busy: vec![NO_BATCH; n_instances],
            inflight: InflightArena::default(),
            loaded: vec![NO_CLASS; n_instances],
            busy_time_s: vec![0.0; n_instances],
            eligible_bits,
            eligible_count: n_instances,
            class_bits: vec![0; n_classes * words],
            completions: TimingWheel::new(),
            control: TimingWheel::new(),
            batch_buf: Vec::new(),
            offered: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            batches: 0,
            per_instance_batches: vec![0; n_instances],
            weight_reloads: 0,
            energy_j: 0.0,
            last_event_s: 0.0,
            admitted_per_class: vec![0; n_classes],
            hist_per_class: (0..n_classes).map(|_| LatencyHistogram::new()).collect(),
            on_time_per_class: vec![0; n_classes],
            on_accuracy_per_class: vec![0; n_classes],
            below_accuracy_per_class: vec![0; n_classes],
            min_accuracy,
            health: vec![HealthState::nominal(); n_instances],
            flags: vec![F_UP; n_instances],
            drain_s: vec![0.0; n_instances],
            recal_until: vec![0.0; n_instances],
            control_epoch: vec![0; n_instances],
            offline_from_s: vec![0.0; n_instances],
            offline_s: 0.0,
            epoch: vec![0; n_instances],
            rank_buf: Vec::new(),
            shed_per_class: vec![0; n_classes],
            res: ResilienceStats::default(),
            sink,
        }
    }

    /// Whether `flag` is set on `instance`.
    #[inline]
    fn flag(&self, instance: usize, flag: u8) -> bool {
        self.flags[instance] & flag != 0
    }

    /// Sets `flag` on `instance`.
    #[inline]
    fn set_flag(&mut self, instance: usize, flag: u8) {
        self.flags[instance] |= flag;
    }

    /// Clears `flag` on `instance`.
    #[inline]
    fn clear_flag(&mut self, instance: usize, flag: u8) {
        self.flags[instance] &= !flag;
    }

    /// Re-derives `instance`'s bit in the eligibility bitset (and the
    /// popcount) from its current `up`/`busy` state. Every lifecycle
    /// transition routes through this — one invariant, one maintainer,
    /// instead of hand-balanced `eligible_count` arithmetic at each
    /// call site.
    #[inline]
    fn refresh_eligibility(&mut self, instance: usize) {
        let now = self.flag(instance, F_UP) && self.busy[instance] == NO_BATCH;
        let word = instance >> 6;
        let bit = 1u64 << (instance & 63);
        let was = self.eligible_bits[word] & bit != 0;
        if now != was {
            self.eligible_bits[word] ^= bit;
            if now {
                self.eligible_count += 1;
            } else {
                self.eligible_count -= 1;
            }
            // Mirror the flip into the loaded class's run. Call sites
            // that change `loaded` do so only while the instance is
            // ineligible (bit clear), so the mirror stays exact.
            let c = self.loaded[instance];
            if c != NO_CLASS {
                self.class_bits[c as usize * self.eligible_bits.len() + word] ^= bit;
            }
        }
    }

    /// Processes every internal event — completions, restores, faults —
    /// with time ≤ `limit`, in time order with the engine's canonical
    /// same-instant tie order (completion → restore → fault), so that
    /// finished work lands before state changes and new capacity is
    /// visible before the arrival the caller is about to admit.
    ///
    /// Completions are drained in same-instant cohorts
    /// ([`TimingWheel::pop_front_batch`]): every event at the front
    /// timestamp surfaces in one call and is processed in exact pop
    /// order. The cohort stays coherent while it is processed —
    /// completion handlers never bump another instance's epoch (only
    /// hard faults do, and the fault stream is consulted between
    /// cohorts), and new events they schedule land strictly later than
    /// the cohort's instant (service times are positive).
    ///
    /// Events orphaned by a hard failure (their epoch token no longer
    /// matches) are skipped when they surface at an event-set front.
    pub(crate) fn advance_through(&mut self, limit: f64) {
        loop {
            // Steady-state fast path: no restore pending and the fault
            // timeline drained — completions are the only stream, so
            // skip the three-way merge. Re-checked each cohort because
            // a completion can start a deferred recalibration (a drain
            // that outlives the last fault), re-arming the control
            // event set.
            if self.control.is_empty() && self.fault_idx >= self.faults.len() {
                let Some(t) = self.completions.peek().map(|e| e.at.get()) else {
                    break;
                };
                if !(t <= limit) {
                    break;
                }
                self.complete_front_cohort();
                continue;
            }
            let tc = self.completions.peek().map(|e| e.at.get());
            let tr = self.control.peek().map(|e| e.at.get());
            let tf = self.faults.events().get(self.fault_idx).map(|e| e.at_s);
            let streams = [(tc, 0u8), (tr, 1), (tf, 2)];
            let Some((t, which)) = streams
                .iter()
                .filter_map(|&(t, k)| t.map(|t| (t, k)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            else {
                break;
            };
            if !(t <= limit) {
                break;
            }
            match which {
                0 => self.complete_front_cohort(),
                1 => {
                    // `which == 1` only when the control set's peek
                    // returned the earliest event.
                    #[allow(clippy::expect_used)]
                    let ev = self.control.pop().expect("peeked");
                    if ev.epoch == self.control_epoch[ev.instance as usize] {
                        self.on_restore(ev.instance as usize, ev.at.get());
                    }
                    // stale: the repair was cancelled by a hard failure
                }
                _ => {
                    let ev = self.faults.events()[self.fault_idx];
                    self.fault_idx += 1;
                    self.res.fault_events += 1;
                    self.apply_fault(ev.instance, ev.at_s, ev.action);
                    self.last_event_s = self.last_event_s.max(ev.at_s);
                    self.dispatch_idle(ev.at_s);
                }
            }
        }
    }

    /// Pops the completion cohort at the front instant and completes
    /// each batch in pop order. A batch whose epoch token is stale was
    /// aborted and failed over by a hard fault, and is skipped.
    fn complete_front_cohort(&mut self) {
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        self.completions.pop_front_batch(&mut batch);
        for ev in &batch {
            if ev.epoch == self.epoch[ev.instance as usize] {
                self.on_completion(ev.instance as usize, ev.at.get());
            }
        }
        self.batch_buf = batch;
    }

    /// Admits (or sheds) one request of this cell's classes. The caller
    /// must have [`advance_through`](Self::advance_through) the arrival
    /// instant first.
    pub(crate) fn admit(&mut self, req: Request) {
        self.offered += 1;
        // Sampling keys on the per-class arrival ordinal, which the
        // shard plan fixes independently of shard/thread count.
        let traced = S::ENABLED && self.sink.sample(req.class, req.id);
        let class = self.class_local[req.class];
        debug_assert!(
            class != usize::MAX,
            "request routed to the wrong shard cell"
        );
        let ta = req.arrival_s;
        if traced {
            self.sink
                .event(TraceEventKind::Arrive, ta, req.id, req.class, usize::MAX);
        }
        if self.queues.len() < self.queue_capacity {
            if traced {
                self.sink
                    .event(TraceEventKind::Enqueue, ta, req.id, req.class, usize::MAX);
            }
            self.queues.push(Request { class, ..req });
            self.admitted += 1;
            self.admitted_per_class[class] += 1;
            self.dispatch_idle(ta);
        } else {
            if traced {
                self.sink
                    .event(TraceEventKind::Refuse, ta, req.id, req.class, usize::MAX);
            }
            self.rejected += 1;
        }
        self.last_event_s = self.last_event_s.max(ta);
    }

    /// Turns one request away at the admission door (control-plane
    /// throttling). Counted as offered and rejected, exactly like a
    /// queue-full rejection, so `offered = admitted + rejected` holds
    /// whatever the admission policy does.
    pub(crate) fn refuse(&mut self, req: &Request) {
        self.offered += 1;
        if S::ENABLED && self.sink.sample(req.class, req.id) {
            let ta = req.arrival_s;
            self.sink
                .event(TraceEventKind::Arrive, ta, req.id, req.class, usize::MAX);
            self.sink
                .event(TraceEventKind::Refuse, ta, req.id, req.class, usize::MAX);
        }
        self.rejected += 1;
        self.last_event_s = self.last_event_s.max(req.arrival_s);
    }

    /// Sheds queued requests of a (global) class down to `keep`, dropping
    /// the youngest first. The drops move to the `shed` ledger (distinct
    /// from fault-caused `unserved`); conservation becomes
    /// `admitted = completed + unserved + shed`. Returns how many were
    /// dropped.
    pub(crate) fn shed_queue_to(&mut self, global_class: usize, keep: usize, now: f64) -> u64 {
        let class = self.class_local[global_class];
        debug_assert!(class != usize::MAX, "shed routed to the wrong shard cell");
        let dropped = if S::ENABLED {
            let sink = &mut self.sink;
            self.queues.shed_to_depth_with(class, keep, |r| {
                if sink.is_traced(r.id) {
                    sink.event(TraceEventKind::Shed, now, r.id, global_class, usize::MAX);
                }
            })
        } else {
            self.queues.shed_to_depth(class, keep)
        };
        self.shed_per_class[class] += dropped;
        self.res.shed += dropped;
        dropped
    }

    /// Powers an instance down (scale-down). An idle instance parks
    /// immediately; a busy one drains its in-flight batch and parks at
    /// completion; a booting one has its pending power-on **aborted** by
    /// bumping the control-epoch token, which orphans the boot's restore
    /// event in the control set — the same cancellation mechanism hard
    /// failures use. Offline/failed instances cannot be parked (they are
    /// the fault ledger's business, not the autoscaler's). Parked time
    /// does not count against availability. Returns whether the park was
    /// accepted.
    pub(crate) fn park_instance(&mut self, instance: usize, now: f64) -> bool {
        if self.flag(instance, F_PARKED | F_PARK_PENDING) {
            return true; // already parked or on its way
        }
        if self.flag(instance, F_BOOTING) {
            // scale-down abort: orphan the scheduled boot restore
            self.control_epoch[instance] = self.control_epoch[instance].wrapping_add(1);
            self.clear_flag(instance, F_BOOTING);
            self.set_flag(instance, F_PARKED);
            self.trace_instance(TraceEventKind::Park, now, instance);
            return true;
        }
        if self.busy[instance] != NO_BATCH && self.flag(instance, F_UP) {
            // drain: the in-flight batch finishes, then the park lands
            // (the Park trace event fires when it does)
            self.clear_flag(instance, F_UP);
            self.set_flag(instance, F_PARK_PENDING);
            self.refresh_eligibility(instance);
            return true;
        }
        if self.flag(instance, F_UP) {
            self.clear_flag(instance, F_UP);
            self.set_flag(instance, F_PARKED);
            self.refresh_eligibility(instance);
            self.loaded[instance] = NO_CLASS;
            self.trace_instance(TraceEventKind::Park, now, instance);
            return true;
        }
        false // failed / draining / recalibrating — not park-able
    }

    /// Powers a parked instance back on (scale-up). The instance is not
    /// eligible until `ready_s` of boot + ring-lock/calibration elapse:
    /// a restore event is scheduled in the control set — the same
    /// drain/re-admit machinery recalibration uses, including requote
    /// and cold weight banks on re-entry. Returns whether a boot was
    /// started (only parked instances can boot).
    pub(crate) fn unpark_instance(&mut self, instance: usize, t: f64, ready_s: f64) -> bool {
        if !self.flag(instance, F_PARKED) {
            return false;
        }
        self.clear_flag(instance, F_PARKED);
        self.set_flag(instance, F_BOOTING);
        self.trace_instance(TraceEventKind::Boot, t, instance);
        // `ControlConfig::validate` keeps every boot, started at a window
        // edge, finite.
        #[allow(clippy::expect_used)]
        let at =
            EventTime::try_new(t + ready_s).expect("boot time must be finite and non-negative");
        self.control
            .push(at, instance as u32, self.control_epoch[instance]);
        true
    }

    /// Records an instance-level trace event (no request attached);
    /// statically dead when the sink is disabled.
    fn trace_instance(&mut self, kind: TraceEventKind, t_s: f64, instance: usize) {
        if S::ENABLED {
            self.sink.event(
                kind,
                t_s,
                NO_REQUEST,
                usize::MAX,
                self.instance_start + instance,
            );
        }
    }

    // --- observer accessors (control plane reads, never writes) ---

    /// Instances owned by this cell.
    pub(crate) fn n_instances(&self) -> usize {
        self.busy.len()
    }

    /// In service or serving: counts toward provisioned capacity.
    pub(crate) fn is_active(&self, instance: usize) -> bool {
        self.flag(instance, F_UP) || self.busy[instance] != NO_BATCH
    }

    /// Up with no batch in flight — the cheapest instance to park.
    pub(crate) fn is_idle(&self, instance: usize) -> bool {
        self.flag(instance, F_UP) && self.busy[instance] == NO_BATCH
    }

    /// Powered off by the control plane.
    pub(crate) fn is_parked(&self, instance: usize) -> bool {
        self.flag(instance, F_PARKED)
    }

    /// Mid power-on (boot + re-lock pending).
    pub(crate) fn is_booting(&self, instance: usize) -> bool {
        self.flag(instance, F_BOOTING)
    }

    /// Total queued requests.
    pub(crate) fn queue_len(&self) -> usize {
        self.queues.len()
    }

    /// Cumulative latency histogram of one (global) class — the observer
    /// snapshots these and works on deltas.
    pub(crate) fn class_hist(&self, global_class: usize) -> &LatencyHistogram {
        &self.hist_per_class[self.class_local[global_class]]
    }

    /// Cumulative counters: `(offered, admitted, rejected, completed)`.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (self.offered, self.admitted, self.rejected, self.completed)
    }

    /// Requests shed so far (all classes).
    pub(crate) fn shed_total(&self) -> u64 {
        self.res.shed
    }

    /// Total instance-seconds spent serving batches so far.
    pub(crate) fn busy_time_total(&self) -> f64 {
        self.busy_time_s.iter().sum()
    }

    /// The worst quoted top-1 accuracy across the cell's active
    /// instances (over their serviceable class pairs). `1.0` when
    /// nothing is active or serviceable — "no evidence of drift", so a
    /// strict `<` accuracy guard never fires on it. Deterministic: a
    /// pure fold over the quote table in index order.
    pub(crate) fn worst_quoted_accuracy(&self) -> f64 {
        let mut worst = 1.0f64;
        for i in 0..self.busy.len() {
            if !self.is_active(i) {
                continue;
            }
            let row = self.quote_row[i] as usize * self.n_classes;
            for c in 0..self.n_classes {
                if self.serviceable_rows[row + c] {
                    worst = worst.min(self.quote_rows[row + c].top1);
                }
            }
        }
        worst
    }

    /// Classifies every instance into the telemetry health mix. The
    /// first seven buckets partition the fleet (drain states are
    /// checked before `busy`, since a draining instance still has a
    /// batch in flight); `degraded` is an overlay.
    pub(crate) fn health_mix(&self) -> HealthMix {
        let mut mix = HealthMix::default();
        for i in 0..self.busy.len() {
            if self.health[i] != HealthState::nominal() {
                mix.degraded += 1;
            }
            if self.flag(i, F_DRAINING | F_PARK_PENDING) {
                mix.draining += 1;
            } else if self.busy[i] != NO_BATCH {
                mix.serving += 1;
            } else if self.flag(i, F_UP) {
                mix.idle += 1;
            } else if self.flag(i, F_BOOTING) {
                mix.booting += 1;
            } else if self.flag(i, F_PARKED) {
                mix.parked += 1;
            } else if self.flag(i, F_RECAL) {
                mix.recalibrating += 1;
            } else {
                mix.failed += 1;
            }
        }
        mix
    }

    /// Drains every remaining event (arrivals are done), closes the
    /// cell's books, and hands the sink back — the traced drivers
    /// collect per-cell sinks in cell-index order. The event sets'
    /// lifetime push/pop counts flush into the profile here.
    pub(crate) fn finish_with_sink(mut self) -> (CellOutcome, S) {
        self.advance_through(f64::INFINITY);
        if S::ENABLED {
            self.sink.count(
                ProfileOp::WheelPush,
                self.completions.pushes() + self.control.pushes(),
            );
            self.sink.count(
                ProfileOp::WheelPop,
                self.completions.pops() + self.control.pops(),
            );
        }
        // Close still-open offline intervals at the cell's makespan and
        // settle the resilience ledger. (Conservation under faults:
        // whatever capacity never came back leaves admitted-but-unserved
        // requests in the queues.)
        let makespan_s = self.last_event_s;
        for i in 0..self.flags.len() {
            if self.flags[i] & F_OFFLINE != 0 {
                self.offline_s += (makespan_s - self.offline_from_s[i]).max(0.0);
            }
        }
        self.res.offline_s = self.offline_s;
        self.res.unserved = self.admitted - self.completed - self.res.shed;
        self.res.below_accuracy = self.below_accuracy_per_class.iter().sum();
        let classes = self
            .classes
            .iter()
            .zip(self.hist_per_class)
            .zip(&self.on_time_per_class)
            .zip(&self.admitted_per_class)
            .zip(&self.shed_per_class)
            .zip(&self.on_accuracy_per_class)
            .zip(&self.below_accuracy_per_class)
            .map(
                |((((((&class, hist), &on_time), &admitted), &shed), &on_accuracy), &below)| {
                    ClassSlice {
                        class,
                        admitted,
                        on_time,
                        shed,
                        on_accuracy,
                        below_accuracy: below,
                        hist,
                    }
                },
            )
            .collect();
        let outcome = CellOutcome {
            offered: self.offered,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            batches: self.batches,
            weight_reloads: self.weight_reloads,
            energy_j: self.energy_j,
            last_event_s: self.last_event_s,
            instance_start: self.instance_start,
            busy_time_s: self.busy_time_s,
            per_instance_batches: self.per_instance_batches,
            classes,
            res: self.res,
        };
        (outcome, self.sink)
    }

    /// Completion event: the batch on `instance` finished at `tc`.
    fn on_completion(&mut self, instance: usize, tc: f64) {
        let handle = self.busy[instance];
        debug_assert!(handle != NO_BATCH, "completion on idle");
        self.busy[instance] = NO_BATCH;
        let class = self.inflight.class(handle);
        let (accuracy, below_accuracy) = self.inflight.accuracy(handle);
        for r in self.inflight.requests(handle) {
            let latency = tc - r.arrival_s;
            self.hist_per_class[class].record(latency);
            if tc <= r.deadline_s {
                self.on_time_per_class[class] += 1;
            }
            if below_accuracy {
                self.below_accuracy_per_class[class] += 1;
            } else {
                self.on_accuracy_per_class[class] += 1;
            }
            self.completed += 1;
            if S::ENABLED && self.sink.is_traced(r.id) {
                self.sink.event_with_accuracy(
                    TraceEventKind::Complete,
                    tc,
                    r.id,
                    self.classes[class],
                    self.instance_start + instance,
                    accuracy,
                );
            }
        }
        self.inflight.release(handle);
        self.last_event_s = self.last_event_s.max(tc);
        if self.flag(instance, F_DRAINING) {
            // deferred recalibration: the drain just finished
            self.clear_flag(instance, F_DRAINING);
            let duration_s = self.drain_s[instance];
            self.start_recalibration(instance, tc, duration_s);
        } else if self.flag(instance, F_PARK_PENDING) {
            // deferred scale-down: the drain just finished, power off
            self.clear_flag(instance, F_PARK_PENDING);
            self.set_flag(instance, F_PARKED);
            self.loaded[instance] = NO_CLASS;
            self.trace_instance(TraceEventKind::Park, tc, instance);
        } else {
            self.refresh_eligibility(instance);
        }
        self.dispatch_idle(tc);
    }

    /// Restore event: a recalibration window elapsed. Rings are
    /// re-locked at the current ambient (drift resets; dead channels and
    /// laser aging persist), weights must be reprogrammed, quotes are
    /// re-derived, and the instance re-admits work.
    fn on_restore(&mut self, instance: usize, tr: f64) {
        self.clear_flag(instance, F_RECAL | F_BOOTING);
        self.health[instance] = self.health[instance].recalibrated();
        self.requote(instance);
        if self.flag(instance, F_OFFLINE) {
            self.clear_flag(instance, F_OFFLINE);
            self.offline_s += (tr - self.offline_from_s[instance]).max(0.0);
        }
        self.last_event_s = self.last_event_s.max(tr);
        if self.flag(instance, F_PARK_PENDING) {
            // the control plane asked for a park while the repair ran:
            // come back healthy, then power straight off
            self.clear_flag(instance, F_PARK_PENDING);
            self.set_flag(instance, F_PARKED);
            self.loaded[instance] = NO_CLASS;
            self.trace_instance(TraceEventKind::Park, tr, instance);
            return;
        }
        self.set_flag(instance, F_UP);
        self.refresh_eligibility(instance);
        self.loaded[instance] = NO_CLASS;
        self.trace_instance(TraceEventKind::Readmit, tr, instance);
        self.dispatch_idle(tr);
    }

    /// Applies one fault-timeline action to `instance` at time `t`.
    fn apply_fault(&mut self, instance: usize, t: f64, action: FaultAction) {
        match action {
            FaultAction::Degrade(health) => {
                // Aging and channel loss persist through a power-off, so
                // the health update always lands; quotes are only re-derived
                // for an instance that could serve right now — a parked or
                // booting one requotes at its restore anyway.
                self.health[instance] = health;
                if !self.flag(instance, F_PARKED | F_BOOTING) {
                    self.requote(instance);
                }
            }
            FaultAction::Fail => self.fail_instance(instance, t),
            FaultAction::Recalibrate { duration_s } => {
                if self.flag(instance, F_PARKED | F_BOOTING) {
                    // powered off (or mid power-on, which already ends in
                    // a full re-lock): nothing to recalibrate
                } else if self.flag(instance, F_RECAL) {
                    // already mid-recalibration; the running window stands
                } else if self.busy[instance] != NO_BATCH {
                    // drain: finish the in-flight batch, then recalibrate
                    self.clear_flag(instance, F_UP);
                    self.set_flag(instance, F_DRAINING);
                    self.drain_s[instance] = duration_s;
                } else {
                    self.start_recalibration(instance, t, duration_s);
                }
            }
        }
    }

    /// Hard failure: aborts the in-flight batch (its requests fail over
    /// to the front of their class queue and its unserved time/energy is
    /// refunded) and takes the instance out of service until a later
    /// recalibration repairs it.
    fn fail_instance(&mut self, instance: usize, t: f64) {
        self.res.hard_failures += 1;
        self.trace_instance(TraceEventKind::Failover, t, instance);
        let handle = self.busy[instance];
        if handle != NO_BATCH {
            self.busy[instance] = NO_BATCH;
            // Invalidate the scheduled completion event.
            self.epoch[instance] = self.epoch[instance].wrapping_add(1);
            let class = self.inflight.class(handle);
            let (started_s, done_s, energy_j) = self.inflight.provenance(handle);
            let span = done_s - started_s;
            let remaining = (done_s - t).max(0.0);
            self.busy_time_s[instance] -= remaining;
            if span > 0.0 {
                self.energy_j -= energy_j * (remaining / span);
            }
            // The batch never served anyone: it no longer counts as
            // dispatched (its requests will re-dispatch in new batches).
            // Reload attempts already spent are *not* refunded.
            self.batches -= 1;
            self.per_instance_batches[instance] -= 1;
            let mut buf = std::mem::take(self.inflight.requests_mut(handle));
            self.res.failed_over += buf.len() as u64;
            if S::ENABLED {
                for r in &buf {
                    if self.sink.is_traced(r.id) {
                        self.sink.event(
                            TraceEventKind::Failover,
                            t,
                            r.id,
                            self.classes[class],
                            self.instance_start + instance,
                        );
                    }
                }
            }
            self.queues.requeue_front(class, &mut buf);
            *self.inflight.requests_mut(handle) = buf; // keep the warm capacity
            self.inflight.release(handle);
        }
        // A hard failure lands on top of any recalibration in progress:
        // the repair never finishes, so cancel the pending restore (its
        // event is discarded by the control-epoch check) and hand
        // the unelapsed window back from the recal-downtime ledger — it
        // is failure downtime now.
        if self.flag(instance, F_RECAL) {
            self.clear_flag(instance, F_RECAL);
            self.control_epoch[instance] = self.control_epoch[instance].wrapping_add(1);
            self.res.recal_downtime_s -= (self.recal_until[instance] - t).max(0.0);
        }
        // A failure also lands on top of any control-plane state: a boot
        // in progress never finishes (cancel its restore event the same
        // way), and a parked or park-pending instance is simply failed —
        // the autoscaler sees it leave the parked pool.
        if self.flag(instance, F_BOOTING) {
            self.clear_flag(instance, F_BOOTING);
            self.control_epoch[instance] = self.control_epoch[instance].wrapping_add(1);
        }
        self.clear_flag(instance, F_PARKED | F_PARK_PENDING | F_UP | F_DRAINING);
        self.refresh_eligibility(instance);
        self.loaded[instance] = NO_CLASS;
        if !self.flag(instance, F_OFFLINE) {
            self.set_flag(instance, F_OFFLINE);
            self.offline_from_s[instance] = t;
        }
    }

    /// Begins a recalibration window: the instance goes offline now and
    /// a restore event is scheduled `duration_s` later.
    fn start_recalibration(&mut self, instance: usize, t: f64, duration_s: f64) {
        self.trace_instance(TraceEventKind::RecalDrain, t, instance);
        self.clear_flag(instance, F_UP);
        self.refresh_eligibility(instance);
        self.loaded[instance] = NO_CLASS;
        self.set_flag(instance, F_RECAL);
        self.recal_until[instance] = t + duration_s;
        if !self.flag(instance, F_OFFLINE) {
            self.set_flag(instance, F_OFFLINE);
            self.offline_from_s[instance] = t;
        }
        self.res.recalibrations += 1;
        self.res.recal_downtime_s += duration_s;
        // Fault validation keeps `at_s + duration_s` finite; a drained
        // start is later only by one batch's service time, far below the
        // spacing of floats near `f64::MAX`.
        #[allow(clippy::expect_used)]
        let at = EventTime::try_new(t + duration_s)
            .expect("restore time must be finite and non-negative");
        self.control
            .push(at, instance as u32, self.control_epoch[instance]);
    }

    /// Points `instance` at the quote row of its current `(config,
    /// health)`. The row is looked up in the intern table; only a key
    /// the cell has never met is derived — one `service_quote` per
    /// class, appended as a new immutable row. States the core models
    /// cannot quote (unserviceable drift/laser, no live channels, or a
    /// downstream model failure) mark the (row, class) pair
    /// non-serviceable instead of aborting the simulation; under
    /// accuracy routing, a quote below the class's accuracy floor does
    /// the same — the pair is refused, not served below spec.
    ///
    /// Moving the instance updates the rows' user counts and the
    /// live-row list, and moves its membership bit from the old row's
    /// run to the new one's.
    fn requote(&mut self, instance: usize) {
        self.res.requotes += 1;
        if self.n_classes == 0 {
            return;
        }
        let old = self.quote_row[instance];
        let config = self.row_config[old as usize];
        let key = RowKey::new(config, &self.health[instance]);
        let row = match self.row_of_key.get(&key) {
            Some(&row) => row,
            None => {
                // Each new row is a health state some fault event set, and
                // a fault list longer than `u32::MAX` does not fit in memory.
                #[allow(clippy::expect_used)]
                let row = u32::try_from(self.row_users.len()).expect("row count fits u32");
                self.derive_row(instance);
                self.row_users.push(0);
                self.live_slot.push(0);
                self.row_config.push(config);
                self.row_of_key.insert(key, row);
                row
            }
        };
        if old == row {
            return;
        }
        self.quote_row[instance] = row;
        let words = self.eligible_bits.len();
        let (word, bit) = (instance >> 6, 1u64 << (instance & 63));
        self.row_members[old as usize * words + word] ^= bit;
        self.row_members[row as usize * words + word] ^= bit;
        self.row_users[old as usize] -= 1;
        if self.row_users[old as usize] == 0 {
            let slot = self.live_slot[old as usize] as usize;
            self.live_rows.swap_remove(slot);
            if let Some(&moved) = self.live_rows.get(slot) {
                self.live_slot[moved as usize] = slot as u32;
            }
        }
        self.row_users[row as usize] += 1;
        if self.row_users[row as usize] == 1 {
            self.live_slot[row as usize] = self.live_rows.len() as u32;
            self.live_rows.push(row);
        }
    }

    /// Appends the quote row of `instance`'s current health: one
    /// `service_quote` per class of this cell.
    fn derive_row(&mut self, instance: usize) {
        let scenario = self.scenario;
        let config = &scenario.instances[self.instance_start + instance];
        for (c, &global) in self.classes.iter().enumerate() {
            let layers = scenario.classes[global].layer_refs();
            let request = QuoteRequest::new(config, &scenario.assumptions, &layers)
                .with_health(self.health[instance])
                .with_limits(scenario.limits);
            let (q, ok) = match service_quote(&request) {
                Ok(Some(dq)) => {
                    let q = QuoteF::from_quote(dq.quote);
                    let ok = serviceable(&q, scenario.accuracy_routing, self.min_accuracy[c]);
                    (q, ok)
                }
                Ok(None) | Err(_) => (QuoteF::UNQUOTED, false),
            };
            self.quote_rows.push(q);
            self.serviceable_rows.push(ok);
        }
        // the new row's run: no instance is in it yet
        let words = self.eligible_bits.len();
        self.row_members.resize(self.row_members.len() + words, 0);
    }

    /// Whether a batch of `class` on `instance` skips the weight-load
    /// phase: only when the scenario grants whole-network residency AND
    /// the instance's banks already hold this class's weights.
    fn skips_reload(&self, instance: usize, class: usize) -> bool {
        self.scenario.resident_weights && self.loaded[instance] == class as u32
    }

    /// Service time of a batch of `n` on `instance`, accounting for the
    /// weights it already holds.
    fn service_seconds(&self, instance: usize, class: usize, n: u64) -> f64 {
        let q = &self.quote_rows[self.quote_row[instance] as usize * self.n_classes + class];
        let reload = if self.skips_reload(instance, class) {
            0.0
        } else {
            q.weight_load_s
        };
        reload + q.per_frame_s * n as f64
    }

    /// Energy of a batch of `n` on `instance` (reload-aware, like time).
    fn service_energy_j(&self, instance: usize, class: usize, n: u64) -> f64 {
        let q = &self.quote_rows[self.quote_row[instance] as usize * self.n_classes + class];
        let reload = if self.skips_reload(instance, class) {
            0.0
        } else {
            q.weight_load_j
        };
        reload + q.per_frame_j * n as f64
    }

    /// Whether `instance` may take a new batch at all: in service and
    /// not already serving one. Failed, draining, and recalibrating
    /// instances all have `F_UP` cleared. Mirrors the `eligible_bits`
    /// bitset, which placement reads instead of calling this.
    fn eligible(&self, instance: usize) -> bool {
        self.flags[instance] & F_UP != 0 && self.busy[instance] == NO_BATCH
    }

    /// The eligible instance that would complete a batch of `class`
    /// earliest, if any can serve it at all; ties keep the lowest index
    /// (the first minimum of an ascending walk). Adds the bitset words
    /// it reads to `read`.
    ///
    /// Within one row a batch's service time takes two values, with or
    /// without the weight reload, and `weight_load_s ≥ 0` makes the
    /// loaded one never slower. So each live row that can serve `class`
    /// offers at most two candidates — its first eligible instance
    /// holding `class`'s weights and its first eligible instance — and
    /// the answer is the cheapest, lowest-index candidate across rows;
    /// debug builds check it against [`Self::fastest_for_scan`]. A cell
    /// with one live row holds every instance in it, so its idle
    /// instances and holders are `eligible_bits` and `class`'s run as
    /// they stand, without the AND.
    fn fastest_for(&self, class: usize, read: &mut u64) -> Option<usize> {
        let n = (self.queues.class_len(class) as u64).min(self.scenario.max_batch) as f64;
        let resident = self.scenario.resident_weights;
        let words = self.eligible_bits.len();
        let holders = &self.class_bits[class * words..][..words];
        let one_row = self.live_rows.len() == 1;
        let mut best: Option<(f64, usize)> = None;
        let mut offer = |s: f64, i: usize| {
            let better = match best {
                None => s < f64::INFINITY,
                Some((best_s, best_i)) => s < best_s || (s == best_s && i < best_i),
            };
            if better {
                best = Some((s, i));
            }
        };
        for &row in &self.live_rows {
            let idx = row as usize * self.n_classes + class;
            if !self.serviceable_rows[idx] {
                continue;
            }
            let q = &self.quote_rows[idx];
            let members = &self.row_members[row as usize * words..][..words];
            let first = if one_row {
                first_set(self.eligible_bits.iter().copied(), 1, read)
            } else {
                let idle = members.iter().zip(&self.eligible_bits);
                first_set(idle.map(|(m, e)| m & e), 2, read)
            };
            let Some(first) = first else {
                continue;
            };
            if resident && self.loaded[first] == class as u32 {
                offer(q.per_frame_s * n, first);
                continue;
            }
            offer(q.weight_load_s + q.per_frame_s * n, first);
            if resident {
                let loaded = if one_row {
                    first_set(holders.iter().copied(), 1, read)
                } else {
                    first_set(members.iter().zip(holders).map(|(m, h)| m & h), 2, read)
                };
                if let Some(i) = loaded {
                    offer(q.per_frame_s * n, i);
                }
            }
        }
        let placed = best.map(|(_, i)| i);
        // the scans exist only where this check runs
        #[cfg(debug_assertions)]
        assert_eq!(
            placed,
            self.fastest_for_scan(class),
            "placement bitset query diverged from the instance scan"
        );
        placed
    }

    /// Word `w` of the eligible instances holding `class`'s weights
    /// whose row can serve `class`: the class run minus the members of
    /// the live rows that cannot. Every instance is a member of one
    /// live row, so this equals the class run ANDed with the union of
    /// the live rows that can serve it. Adds the words read to `read`.
    fn matchable_word(&self, class: usize, w: usize, read: &mut u64) -> u64 {
        let words = self.eligible_bits.len();
        let mut bits = self.class_bits[class * words + w];
        *read += 1;
        if bits == 0 {
            return 0;
        }
        for &row in &self.live_rows {
            if !self.serviceable_rows[row as usize * self.n_classes + class] {
                bits &= !self.row_members[row as usize * words + w];
                *read += 1;
            }
        }
        bits
    }

    /// The affinity matched arm: the deepest queued class whose weights
    /// an eligible instance able to serve it already holds, and of the
    /// instances holding a deepest class, the **highest**-index one
    /// (the last maximum of an ascending walk, `Iterator::max_by_key`'s
    /// rule). Adds the bitset words it reads to `read`; debug builds
    /// check the answer against [`Self::deepest_loaded_match_scan`].
    fn deepest_loaded_match(&self, read: &mut u64) -> Option<(usize, usize)> {
        let words = self.eligible_bits.len();
        // (depth, highest matchable word, union of the deepest classes'
        // matchable bits in that word)
        let mut best: Option<(usize, usize, u64)> = None;
        for c in 0..self.n_classes {
            let depth = self.queues.class_len(c);
            if depth == 0 || best.is_some_and(|(d, _, _)| depth < d) {
                continue;
            }
            let Some((w, bits)) = (0..words).rev().find_map(|w| {
                let bits = self.matchable_word(c, w, read);
                (bits != 0).then_some((w, bits))
            }) else {
                continue;
            };
            best = match best {
                Some((d, bw, union)) if d == depth && bw >= w => {
                    Some((d, bw, if bw == w { union | bits } else { union }))
                }
                _ => Some((depth, w, bits)),
            };
        }
        let matched = best.map(|(_, w, union)| {
            let i = (w << 6) + 63 - union.leading_zeros() as usize;
            (self.loaded[i] as usize, i)
        });
        #[cfg(debug_assertions)]
        assert_eq!(
            matched,
            self.deepest_loaded_match_scan(),
            "affinity bitset query diverged from the instance scan"
        );
        matched
    }

    /// The reference form of [`Self::fastest_for`]: walks every
    /// eligible instance and prices it.
    #[cfg(any(test, debug_assertions))]
    fn fastest_for_scan(&self, class: usize) -> Option<usize> {
        let n = (self.queues.class_len(class) as u64).min(self.scenario.max_batch) as f64;
        let mut best: Option<usize> = None;
        let mut best_s = f64::INFINITY;
        for (w, &word) in self.eligible_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = self.quote_row[i] as usize * self.n_classes + class;
                if !self.serviceable_rows[row] {
                    continue;
                }
                let q = &self.quote_rows[row];
                let reload = if self.scenario.resident_weights && self.loaded[i] == class as u32 {
                    0.0
                } else {
                    q.weight_load_s
                };
                let s = reload + q.per_frame_s * n;
                if s < best_s {
                    best_s = s;
                    best = Some(i);
                }
            }
        }
        best
    }

    /// The reference form of [`Self::deepest_loaded_match`]: walks
    /// every eligible instance; `>=` keeps the deepest backlog seen
    /// last.
    #[cfg(any(test, debug_assertions))]
    fn deepest_loaded_match_scan(&self) -> Option<(usize, usize)> {
        let mut matched: Option<(usize, usize)> = None;
        let mut matched_depth = 0usize;
        for (w, &word) in self.eligible_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let class = self.loaded[i];
                if class == NO_CLASS {
                    continue;
                }
                let class = class as usize;
                let depth = self.queues.class_len(class);
                if depth > 0
                    && self.serviceable_rows[self.quote_row[i] as usize * self.n_classes + class]
                    && depth >= matched_depth
                {
                    matched = Some((class, i));
                    matched_depth = depth;
                }
            }
        }
        matched
    }

    /// The policy's (class, instance) choice for the next dispatch.
    ///
    /// Classes are tried in the policy's preference order: the top
    /// class can be unservable right now (every instance able to run it
    /// busy, drained, or degraded past feasibility), and a single
    /// "best class" answer would wedge the dispatcher behind it while
    /// other queues starve next to eligible hardware.
    fn choose(&mut self) -> Option<(usize, usize)> {
        // The profiler's "dispatch scan" unit is one bitset word read
        // by a placement query.
        let mut read = 0u64;
        let choice = self.choose_counted(&mut read);
        if S::ENABLED {
            self.sink.count(ProfileOp::DispatchScan, read);
        }
        choice
    }

    /// [`Self::choose`], adding the bitset words read to `read`.
    fn choose_counted(&mut self, read: &mut u64) -> Option<(usize, usize)> {
        // Network affinity targets the reprogramming cost directly:
        // serve a class whose weights an eligible instance already
        // holds (the deepest such backlog); only reprogram when no
        // queued class matches any eligible instance. Without weight
        // residency there is no reload to save, so the matched arm is
        // skipped and the policy degenerates to its depth-first
        // fallback.
        if self.scenario.policy == Policy::NetworkAffinity && self.scenario.resident_weights {
            let matched = self.deepest_loaded_match(read);
            if matched.is_some() {
                return matched;
            }
        }
        // FIFO / EDF (and the affinity fallback) serve the best
        // servable class; placement is completion-earliest, which
        // opportunistically reuses loaded weights. Fast path first: one
        // query for the policy's top class, which is always servable
        // while the fleet is healthy. Only when that class has no
        // eligible instance (drained, failed, or degraded past
        // feasibility) is the full preference ranking walked.
        let top = self.queues.select_class(self.scenario.policy)?;
        if let Some(i) = self.fastest_for(top, read) {
            return Some((top, i));
        }
        let mut ranked = core::mem::take(&mut self.rank_buf);
        self.queues
            .ranked_classes(self.scenario.policy, &mut ranked);
        let choice = ranked
            .iter()
            .find_map(|&class| self.fastest_for(class, read).map(|i| (class, i)));
        self.rank_buf = ranked;
        choice
    }

    /// Keeps dispatching while work is queued and instances are idle.
    /// The `eligible_count` guard is the saturation fast path: a busy
    /// (or dead) cell pays nothing per arrival beyond the queue push.
    fn dispatch_idle(&mut self, now: f64) {
        while self.eligible_count > 0 && !self.queues.is_empty() {
            let Some((class, instance)) = self.choose() else {
                break;
            };
            debug_assert!(
                self.eligible(instance),
                "dispatch routed a batch to a busy, drained, or offline instance"
            );
            debug_assert!(
                self.serviceable_rows[self.quote_row[instance] as usize * self.n_classes + class],
                "dispatch routed a batch to an instance that cannot serve its class"
            );
            let handle = self.inflight.acquire(class);
            self.queues.pop_batch_into(
                class,
                self.scenario.max_batch,
                self.inflight.requests_mut(handle),
            );
            let n = self.inflight.requests(handle).len() as u64;
            let service_s = self.service_seconds(instance, class, n);
            let done = now + service_s;
            let energy_j = self.service_energy_j(instance, class, n);
            let accuracy =
                self.quote_rows[self.quote_row[instance] as usize * self.n_classes + class].top1;
            let below_accuracy = accuracy < self.min_accuracy[class];
            self.inflight
                .note_dispatch(handle, now, done, energy_j, accuracy, below_accuracy);
            if S::ENABLED {
                // one time quote + one energy quote priced per batch
                self.sink.count(ProfileOp::QuoteLookup, 2);
                for r in self.inflight.requests(handle) {
                    if self.sink.is_traced(r.id) {
                        self.sink.event_with_accuracy(
                            TraceEventKind::Dispatch,
                            now,
                            r.id,
                            self.classes[class],
                            self.instance_start + instance,
                            accuracy,
                        );
                    }
                }
            }
            self.energy_j += energy_j;
            self.busy_time_s[instance] += service_s;
            self.batches += 1;
            self.per_instance_batches[instance] += 1;
            if !self.skips_reload(instance, class) {
                self.weight_reloads += 1;
            }
            self.busy[instance] = handle;
            self.refresh_eligibility(instance);
            self.loaded[instance] = class as u32;
            // `now` is a finite event time and `service_s` a finite quote,
            // far below the spacing of floats near `f64::MAX`.
            #[allow(clippy::expect_used)]
            let at =
                EventTime::try_new(done).expect("completion time must be finite and non-negative");
            self.completions
                .push(at, instance as u32, self.epoch[instance]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShardPlan;
    use crate::faults::{chaos_timeline, ChaosConfig, ChaosKind, FaultEvent};
    use crate::workload::NetworkClass;
    use pcnna_core::config::PcnnaConfig;
    use pcnna_photonics::degradation::DegradationLimits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks the row bookkeeping against the instances themselves:
    /// the user counts, the live-row list (exactly the rows in use,
    /// each at its recorded slot), and every bitset run — row `r`'s run
    /// holds exactly the instances on row `r`, class `c`'s run exactly
    /// the eligible instances holding `c`'s weights.
    fn assert_row_bookkeeping(cell: &CellEngine<'_>) {
        let mut users = vec![0u32; cell.row_users.len()];
        for &r in &cell.quote_row {
            users[r as usize] += 1;
        }
        assert_eq!(users, cell.row_users);
        let mut live = cell.live_rows.clone();
        live.sort_unstable();
        let in_use: Vec<u32> = (0..users.len())
            .filter(|&r| users[r] > 0)
            .map(|r| r as u32)
            .collect();
        assert_eq!(live, in_use, "the live rows are the rows in use");
        for (slot, &r) in cell.live_rows.iter().enumerate() {
            assert_eq!(cell.live_slot[r as usize] as usize, slot, "row {r}");
        }
        let words = cell.eligible_bits.len();
        assert_eq!(cell.row_members.len(), users.len() * words);
        let mut rows = vec![0u64; cell.row_members.len()];
        let mut classes = vec![0u64; cell.class_bits.len()];
        let mut eligible = vec![0u64; words];
        for i in 0..cell.n_instances() {
            let (w, bit) = (i >> 6, 1u64 << (i & 63));
            rows[cell.quote_row[i] as usize * words + w] |= bit;
            if !cell.eligible(i) {
                continue;
            }
            eligible[w] |= bit;
            if cell.loaded[i] != NO_CLASS {
                classes[cell.loaded[i] as usize * words + w] |= bit;
            }
        }
        assert_eq!(eligible, cell.eligible_bits);
        assert_eq!(
            cell.eligible_count,
            cell.eligible_bits
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
        );
        assert_eq!(rows, cell.row_members, "row runs");
        assert_eq!(classes, cell.class_bits, "class runs");
    }

    /// Checks the intern table against the quote models: every
    /// instance's row equals a fresh `service_quote` of its current
    /// health for every class (all `QuoteF` fields, bit for bit, and
    /// serviceability), and the row bookkeeping agrees with the rows
    /// the instances actually point at.
    fn assert_rows_are_fresh(cell: &CellEngine<'_>) {
        let s = cell.scenario;
        for i in 0..cell.n_instances() {
            let config = &s.instances[cell.instance_start + i];
            let row = cell.quote_row[i] as usize * cell.n_classes;
            for (c, &global) in cell.classes.iter().enumerate() {
                let layers = s.classes[global].layer_refs();
                let request = QuoteRequest::new(config, &s.assumptions, &layers)
                    .with_health(cell.health[i])
                    .with_limits(s.limits);
                let (got, ok) = (cell.quote_rows[row + c], cell.serviceable_rows[row + c]);
                match service_quote(&request) {
                    Ok(Some(dq)) => {
                        let want = QuoteF::from_quote(dq.quote);
                        let bits = |q: QuoteF| {
                            [
                                q.weight_load_s,
                                q.per_frame_s,
                                q.weight_load_j,
                                q.per_frame_j,
                                q.top1,
                            ]
                            .map(f64::to_bits)
                        };
                        assert_eq!(bits(got), bits(want), "instance {i} class {c}");
                        let floor = s.classes[global].min_accuracy;
                        assert_eq!(ok, serviceable(&want, s.accuracy_routing, floor));
                    }
                    Ok(None) | Err(_) => assert!(!ok, "instance {i} class {c} is unquotable"),
                }
            }
        }
        assert_row_bookkeeping(cell);
    }

    fn scenario(instances: Vec<PcnnaConfig>, faults: FaultTimeline) -> FleetScenario {
        FleetScenario {
            classes: vec![
                NetworkClass::lenet5(0.010, 2.0),
                NetworkClass::alexnet(0.050, 1.0),
            ],
            instances,
            faults,
            ..FleetScenario::default()
        }
    }

    fn request(id: u64, class: usize, at_s: f64) -> Request {
        Request {
            id,
            class,
            arrival_s: at_s,
            deadline_s: at_s + 0.05,
        }
    }

    #[test]
    fn interned_rows_match_fresh_quotes_under_random_health() {
        let fast = PcnnaConfig::default().with_input_dacs(40);
        let instances: Vec<PcnnaConfig> = (0..6)
            .map(|i| {
                if i % 3 == 2 {
                    fast
                } else {
                    PcnnaConfig::default()
                }
            })
            .collect();
        let base = scenario(instances, FaultTimeline::new());
        // a floor exactly at LeNet's nominal quote: any lost bit of
        // resolution drops it below under accuracy routing
        let nominal_top1 = base.quote_table().unwrap().get(0, 0).accuracy.top1_accuracy;
        let limit = base.limits.max_ambient_excursion_k;
        let drifts = [0.0, 0.5 * limit, -0.9 * limit, 1.5 * limit, -2.0 * limit];
        let lasers = [1.0, 0.9, 0.7, 0.5, 0.3];
        for accuracy_routing in [false, true] {
            let mut s = base.clone();
            s.accuracy_routing = accuracy_routing;
            s.classes[0].min_accuracy = nominal_top1;
            let quotes = s.quote_table().unwrap();
            let spec = ShardPlan::whole_fleet(&s).cells.remove(0);
            let mut cell = CellEngine::with_sink(&s, &quotes, &spec, NullSink);
            assert_rows_are_fresh(&cell);
            let mut rng = StdRng::seed_from_u64(0x1D7E_2A11 ^ u64::from(accuracy_routing));
            for _ in 0..80 {
                let i = rng.gen_range(0..cell.n_instances());
                let mut h = cell.health[i];
                match rng.gen_range(0..4u32) {
                    0 => h.ambient_delta_k = drifts[rng.gen_range(0..drifts.len())],
                    1 => h.laser_power_factor = lasers[rng.gen_range(0..lasers.len())],
                    2 => {
                        let dacs = s.instances[i].n_input_dacs;
                        h.dead_input_channels = [0, 1, 3, dacs][rng.gen_range(0..4usize)];
                        h.dead_output_channels = rng.gen_range(0..2usize);
                    }
                    _ => h = h.recalibrated(),
                }
                cell.health[i] = h;
                cell.requote(i);
                assert_rows_are_fresh(&cell);
            }
            assert!(
                cell.row_users.len() < 80,
                "repeated states must hit the intern table"
            );
        }
    }

    #[test]
    fn heat_wave_interns_a_bounded_row_set_per_config() {
        let fast = PcnnaConfig::default().with_input_dacs(40);
        let instances: Vec<PcnnaConfig> = (0..256)
            .map(|i| {
                if i % 2 == 0 {
                    PcnnaConfig::default()
                } else {
                    fast
                }
            })
            .collect();
        let horizon_s = 0.05;
        let faults = chaos_timeline(
            ChaosKind::HeatWave,
            &instances,
            horizon_s,
            &ChaosConfig::default(),
        );
        let s = FleetScenario {
            horizon_s,
            ..scenario(instances, faults)
        };
        let quotes = s.quote_table().unwrap();
        let spec = ShardPlan::whole_fleet(&s).cells.remove(0);
        let mut cell = CellEngine::with_sink(&s, &quotes, &spec, NullSink);
        cell.advance_through(f64::INFINITY);
        assert_rows_are_fresh(&cell);
        assert!(
            cell.res.requotes >= 256 * 12,
            "every instance walks the wave"
        );
        for config in 0..2u32 {
            let rows = cell
                .row_of_key
                .keys()
                .filter(|k| k.config == config)
                .count();
            assert!(rows <= 10, "config {config} interned {rows} rows");
        }
    }

    #[test]
    fn rolling_recalibration_rehomogenizes_the_cell() {
        let n = 8;
        let instances = vec![PcnnaConfig::default(); n];
        let horizon_s = 0.05;
        let rolling = chaos_timeline(
            ChaosKind::RollingRecalibration,
            &instances,
            horizon_s,
            &ChaosConfig::default(),
        );
        let last_recal_s = rolling.events().last().unwrap().at_s;
        // every ring bank drifts past its budget at once: the whole cell
        // shares one unserviceable row until the rolling re-lock heals
        // it, one instance at a time
        let drift = 1.5 * DegradationLimits::default().max_ambient_excursion_k;
        let mut events = rolling.events().to_vec();
        events.extend((0..n).map(|i| FaultEvent {
            at_s: 0.0,
            instance: i,
            action: FaultAction::Degrade(HealthState {
                ambient_delta_k: drift,
                ..HealthState::nominal()
            }),
        }));
        let s = FleetScenario {
            horizon_s,
            policy: Policy::NetworkAffinity,
            ..scenario(instances, FaultTimeline::from_events(events))
        };
        let quotes = s.quote_table().unwrap();
        let spec = ShardPlan::whole_fleet(&s).cells.remove(0);
        let mut cell = CellEngine::with_sink(&s, &quotes, &spec, NullSink);
        assert_eq!(cell.live_rows, [0]);
        cell.advance_through(0.0);
        assert_eq!(cell.live_rows, [1], "one shared drift row");
        assert_rows_are_fresh(&cell);
        // placement must read the drift row, which serves nothing:
        // these wait for the first re-lock
        for id in 0..8 {
            cell.admit(request(id, (id % 2) as usize, 0.0));
        }
        assert_eq!(cell.queue_len(), 8);
        cell.advance_through(last_recal_s);
        assert!(cell.live_rows.len() > 1, "the last instance still drifts");
        assert_rows_are_fresh(&cell);
        cell.advance_through(horizon_s);
        assert_eq!(
            cell.live_rows,
            [0],
            "every instance is back on the nominal row"
        );
        assert_rows_are_fresh(&cell);
        // the healed cell dispatches through its one live row, which
        // debug builds check against the instance scans
        for id in 8..72 {
            cell.admit(request(id, (id % 2) as usize, horizon_s));
        }
        let (outcome, _) = cell.finish_with_sink();
        assert_eq!(outcome.completed, 72);
    }

    /// Asserts both placement queries equal their instance scans for
    /// every class, and read no more bitset words than their live-row
    /// bound; returns how many of the answers placed something.
    fn assert_queries_match_scans(cell: &CellEngine<'_>, case: usize) -> usize {
        assert_row_bookkeeping(cell);
        let words = cell.eligible_bits.len() as u64;
        let live = cell.live_rows.len() as u64;
        let mut placed = 0;
        for c in 0..cell.n_classes {
            let mut read = 0;
            let got = cell.fastest_for(c, &mut read);
            assert_eq!(got, cell.fastest_for_scan(c), "case {case} class {c}");
            // per live row: its idle instances, then its holders, each
            // an AND of two runs
            assert!(read <= live * 4 * words, "case {case}: {read} words");
            placed += usize::from(got.is_some());
        }
        let mut read = 0;
        let got = cell.deepest_loaded_match(&mut read);
        assert_eq!(got, cell.deepest_loaded_match_scan(), "case {case}");
        // per class and word: the class word, then one per live row
        let bound = cell.n_classes as u64 * words * (1 + live);
        assert!(read <= bound, "case {case}: {read} words");
        placed + usize::from(got.is_some())
    }

    #[test]
    fn row_dispatch_matches_the_scan_oracle() {
        let fast = PcnnaConfig::default().with_input_dacs(40);
        let classes = vec![
            NetworkClass::lenet5(0.010, 2.0),
            NetworkClass::alexnet(0.050, 1.0),
            NetworkClass::lenet5(0.020, 1.0),
        ];
        let probe = FleetScenario {
            classes: classes.clone(),
            ..FleetScenario::default()
        };
        let nominal_top1 = probe
            .quote_table()
            .unwrap()
            .get(0, 0)
            .accuracy
            .top1_accuracy;
        let limit = probe.limits.max_ambient_excursion_k;
        let drifts = [0.0, 0.3 * limit, -0.9 * limit, 1.5 * limit];
        let lasers = [1.0, 0.8, 0.5];
        // (resident weights, accuracy routing, zero-reload row, configs)
        let cases = [
            (true, false, false, 2),
            (true, true, true, 2),
            (false, true, false, 2),
            (true, false, true, 1),
            (false, false, true, 2),
            (true, true, false, 2),
        ];
        for (case, &(resident_weights, accuracy_routing, free_reload, configs)) in
            cases.iter().enumerate()
        {
            let mut rng = StdRng::seed_from_u64(0x0B17_5E75 + case as u64);
            let n = rng.gen_range(65..201usize);
            let instances: Vec<PcnnaConfig> = (0..n)
                .map(|_| {
                    if configs == 2 && rng.gen_range(0..3u32) == 0 {
                        fast
                    } else {
                        PcnnaConfig::default()
                    }
                })
                .collect();
            let mut s = FleetScenario {
                classes: classes.clone(),
                policy: Policy::NetworkAffinity,
                resident_weights,
                accuracy_routing,
                ..scenario(instances, FaultTimeline::new())
            };
            // a floor exactly at LeNet's nominal quote: every degraded
            // row is unserviceable for class 0 under accuracy routing
            s.classes[0].min_accuracy = nominal_top1;
            let quotes = s.quote_table().unwrap();
            let spec = ShardPlan::whole_fleet(&s).cells.remove(0);
            let mut cell = CellEngine::with_sink(&s, &quotes, &spec, NullSink);
            let classes_n = cell.n_classes;
            if free_reload {
                // a config row whose reload costs nothing: a loaded
                // instance ties an unloaded one, and the lower index
                // must win
                let row = cell.quote_row[n - 1] as usize * classes_n;
                for q in &mut cell.quote_rows[row..row + classes_n] {
                    q.weight_load_s = 0.0;
                }
            }
            let mut max_live = 1;
            let mut placed = 0;
            let mut id = 0u64;
            for _ in 0..400 {
                let i = rng.gen_range(0..n);
                match rng.gen_range(0..8u32) {
                    // degrade, mostly an idle instance
                    0..=2 => {
                        let idle: Vec<usize> = (0..n).filter(|&j| cell.eligible(j)).collect();
                        let i = if idle.is_empty() || rng.gen_range(0..4u32) == 0 {
                            i
                        } else {
                            idle[rng.gen_range(0..idle.len())]
                        };
                        let mut h = cell.health[i];
                        match rng.gen_range(0..4u32) {
                            0 => h.ambient_delta_k = drifts[rng.gen_range(0..drifts.len())],
                            1 => h.laser_power_factor = lasers[rng.gen_range(0..lasers.len())],
                            2 => h.dead_input_channels = rng.gen_range(0..3usize),
                            _ => h = h.recalibrated(),
                        }
                        cell.health[i] = h;
                        cell.requote(i);
                    }
                    // start a batch: busy, then holding some class (or none)
                    3 if cell.busy[i] == NO_BATCH => {
                        cell.busy[i] = 0;
                        cell.refresh_eligibility(i);
                        cell.loaded[i] = if rng.gen_range(0..4u32) == 0 {
                            NO_CLASS
                        } else {
                            rng.gen_range(0..classes_n as u32)
                        };
                    }
                    // finish a batch
                    3 | 4 => {
                        cell.busy[i] = NO_BATCH;
                        cell.refresh_eligibility(i);
                    }
                    // take out of service, or bring back
                    5 => {
                        if cell.flag(i, F_UP) {
                            cell.clear_flag(i, F_UP);
                            cell.refresh_eligibility(i);
                            cell.loaded[i] = NO_CLASS;
                        } else {
                            cell.set_flag(i, F_UP);
                            cell.refresh_eligibility(i);
                        }
                    }
                    // queue traffic
                    6 => {
                        let class = rng.gen_range(0..classes_n);
                        for _ in 0..rng.gen_range(1..40u32) {
                            cell.queues.push(request(id, class, 0.0));
                            id += 1;
                        }
                    }
                    _ => {
                        let class = rng.gen_range(0..classes_n);
                        cell.queues.pop_batch(class, rng.gen_range(1..40u64));
                    }
                }
                placed += assert_queries_match_scans(&cell, case);
                max_live = max_live.max(cell.live_rows.len());
            }
            assert!(max_live >= 3, "case {case}: {max_live} live rows at most");
            assert!(placed >= 400, "case {case}: only {placed} placements");
            // age every laser alike: the cell ends on one row per
            // config, and the rows it left behind — the zero-reload
            // row among them — are dead and must not be priced
            let aged = HealthState {
                laser_power_factor: lasers[1],
                ..HealthState::nominal()
            };
            for i in 0..n {
                cell.health[i] = aged;
                cell.requote(i);
                assert_queries_match_scans(&cell, case);
            }
            assert_eq!(cell.live_rows.len(), configs, "case {case}");
        }
    }
}
