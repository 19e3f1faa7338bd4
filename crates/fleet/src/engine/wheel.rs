//! The hierarchical timing wheel behind the engine's future-event sets.
//!
//! The engine schedules two kinds of timed events — batch completions
//! and recalibration restores — and needs three operations on each set:
//! insert a future event, read the earliest pending event, and pop it.
//! The original implementation used `BinaryHeap<Reverse<(EventTime,
//! usize, u32)>>`: O(log n) per operation, with the log growing with the
//! fleet size (a 10k-instance fleet keeps ~10k in-flight completions).
//!
//! [`TimingWheel`] replaces it with an **octave-bucketed hierarchical
//! wheel** (a monotone radix structure): event keys are the IEEE-754
//! bits of the event time — monotone in the time for the non-negative
//! finite times [`EventTime::try_new`] admits — and an event lives in
//! the level indexed by the *highest bit in which its key differs from
//! the wheel's floor* (the key of the last event popped). Level widths
//! therefore double level over level: octaves of time distance, finest
//! resolution nearest the cursor, exactly the spacing a discrete-event
//! simulation wants (imminent completions dense, far-future restores
//! sparse).
//!
//! Simulation time is monotone — the engine only ever schedules events
//! at or after the event it is currently processing — which is the one
//! contract the structure needs (debug-asserted in [`TimingWheel::push`]):
//!
//! * **insert** is O(1): one XOR + leading-zeros to find the level, one
//!   push onto that level's bucket (a `Vec` that keeps its capacity, so
//!   steady state allocates nothing);
//! * **pop-batch** is amortized O(1): when the front bucket empties, the
//!   lowest occupied level is drained once — every event it holds moves
//!   to a strictly lower level, so each event is touched at most 64
//!   times over its whole life — and the batch of events sharing the
//!   new floor is sorted once and then popped off the back;
//! * **cancellation** is O(1) by *epoch token*: events carry the
//!   instance's dispatch epoch at enqueue; a hard failure bumps the
//!   epoch, and the orphaned event is recognized and skipped when it
//!   surfaces, never searched for (the same lazy-invalidation contract
//!   the heaps had).
//!
//! Pop order is **exactly** the heap's order — ascending
//! `(time, instance, epoch)` — which `wheel_pops_in_heap_order` in
//! `crates/fleet/tests` pins down under proptest event streams; that
//! equivalence is what lets the engine swap the structure without
//! changing a single simulation result.

/// An `f64` simulation time validated for use as an event key.
///
/// Construction rejects NaN, negative, and infinite times **at
/// enqueue** — the earlier design let any `f64` reach `partial_cmp`
/// deep inside the heap, where a NaN would silently wreck the ordering
/// of everything around it. A bad event time is a bug at its producer,
/// so it is surfaced at the boundary instead ([`EventTime::try_new`]
/// returns `None`, and the engine `expect`s on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventTime(f64);

impl EventTime {
    /// Validates `t` as an event time: finite and non-negative.
    ///
    /// Returns `None` otherwise — NaN and negative times must never
    /// enter an event set (a NaN key has no total order; negative times
    /// would travel backwards past the wheel's floor). A negative zero
    /// is normalized to `+0.0` so the key bits stay monotone.
    #[must_use]
    pub fn try_new(t: f64) -> Option<EventTime> {
        // `-0.0 + 0.0 == +0.0` under IEEE-754 default rounding; every
        // other admissible value is unchanged.
        (t.is_finite() && t >= 0.0).then_some(EventTime(t + 0.0))
    }

    /// The time, seconds.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// The IEEE-754 bits — monotone in the time for the non-negative
    /// finite range `try_new` admits, so integer comparisons order
    /// events exactly as `f64::total_cmp` would.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0.to_bits()
    }
}

impl Eq for EventTime {}
impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One scheduled event: when, which instance, and the dispatch-epoch
/// token that cancels it lazily (a stale epoch means the event was
/// orphaned by a hard failure and must be skipped when popped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelEvent {
    /// Event time.
    pub at: EventTime,
    /// Engine-local instance index.
    pub instance: u32,
    /// Epoch token captured at enqueue.
    pub epoch: u32,
}

impl WheelEvent {
    /// The total-order key: ascending `(time, instance, epoch)`, the
    /// exact order the replaced `BinaryHeap<Reverse<…>>` popped in.
    fn key(self) -> (u64, u32, u32) {
        (self.at.bits(), self.instance, self.epoch)
    }
}

/// Number of levels: level 0 holds events at the floor itself; level
/// `k ≥ 1` holds events whose key differs from the floor first at bit
/// `k − 1`. 64 key bits ⇒ 65 levels.
const LEVELS: usize = 65;

/// Octave-bucketed hierarchical timing wheel (see the module docs).
#[derive(Debug)]
pub struct TimingWheel {
    /// Per-level buckets. Level 0 is kept sorted **descending** by key
    /// so the earliest event pops off the back in O(1); higher levels
    /// are unsorted. Buckets keep their capacity across drains, so a
    /// warmed-up wheel allocates nothing.
    buckets: Vec<Vec<WheelEvent>>,
    /// Cached minimum event per level (levels ≥ 1), maintained on push
    /// and reset on drain — this is what makes `peek` O(1) when the
    /// front bucket is empty.
    min_ev: Vec<Option<WheelEvent>>,
    /// Bitmask of non-empty levels (`u128`: 65 bits needed).
    occupied: u128,
    /// Key bits of the last event popped — the wheel's cursor. All
    /// pushes must be at or after this time (simulation monotonicity).
    floor_bits: u64,
    len: usize,
    /// Lifetime insertion count — two plain increments feeding the
    /// telemetry profile; kept unconditionally because they are noise
    /// next to the bucket work they count.
    pushes: u64,
    /// Lifetime pop count.
    pops: u64,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl TimingWheel {
    /// An empty wheel with its floor at t = 0.
    #[must_use]
    pub fn new() -> Self {
        TimingWheel {
            buckets: (0..LEVELS).map(|_| Vec::new()).collect(),
            min_ev: vec![None; LEVELS],
            occupied: 0,
            floor_bits: 0,
            len: 0,
            pushes: 0,
            pops: 0,
        }
    }

    /// Lifetime number of events pushed.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Lifetime number of events popped.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The level of a key relative to the current floor: the position
    /// of the highest differing bit (0 when equal). One XOR and one
    /// `leading_zeros` — the O(1) at the heart of the structure.
    fn level_of(&self, bits: u64) -> usize {
        let d = bits ^ self.floor_bits;
        if d == 0 {
            0
        } else {
            64 - d.leading_zeros() as usize
        }
    }

    /// Schedules an event. O(1); allocation-free once the level's bucket
    /// is warm.
    ///
    /// The time must be at or after the last popped event's time (the
    /// engine's simulation clock is monotone, so this holds by
    /// construction; debug builds assert it).
    pub fn push(&mut self, at: EventTime, instance: u32, epoch: u32) {
        debug_assert!(
            at.bits() >= self.floor_bits,
            "timing wheel requires monotone inserts: {} is before the \
             last popped event at bits {:#x}",
            at.get(),
            self.floor_bits,
        );
        let ev = WheelEvent {
            at,
            instance,
            epoch,
        };
        let lvl = self.level_of(at.bits());
        if lvl == 0 {
            // Same time bits as the floor: keep the front batch sorted
            // (descending, popped off the back) so an event scheduled at
            // the exact current instant still pops in key order.
            let pos = self.buckets[0].partition_point(|e| e.key() > ev.key());
            self.buckets[0].insert(pos, ev);
        } else {
            self.buckets[lvl].push(ev);
            if self.min_ev[lvl].is_none_or(|m| ev.key() < m.key()) {
                self.min_ev[lvl] = Some(ev);
            }
        }
        self.occupied |= 1u128 << lvl;
        self.len += 1;
        self.pushes += 1;
    }

    /// The earliest pending event, without removing it. O(1).
    pub fn peek(&mut self) -> Option<WheelEvent> {
        if self.len == 0 {
            return None;
        }
        if let Some(ev) = self.buckets[0].last() {
            return Some(*ev);
        }
        // The lowest occupied level holds the global minimum (the radix
        // invariant: levels order disjoint key ranges ascending).
        let lvl = self.occupied.trailing_zeros() as usize;
        self.min_ev[lvl]
    }

    /// Pops the earliest pending event. Amortized O(1): an event is
    /// redistributed to a strictly lower level at most 64 times over
    /// its life.
    pub fn pop(&mut self) -> Option<WheelEvent> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            self.advance();
        }
        // `len > 0`, and `advance` moves the earliest level's batch to
        // the front bucket.
        #[allow(clippy::expect_used)]
        let ev = self.buckets[0].pop().expect("advance fills the front");
        self.len -= 1;
        self.pops += 1;
        if self.buckets[0].is_empty() {
            self.occupied &= !1u128;
        }
        Some(ev)
    }

    /// Drains **every** pending event at the earliest pending timestamp
    /// into `out`, appended in exact pop order (ascending
    /// `(time, instance, epoch)` key). Returns the number drained.
    ///
    /// This is the batched form of [`TimingWheel::pop`]: the front
    /// bucket holds precisely the events whose time bits equal the
    /// wheel's floor, so one call surfaces the whole same-instant
    /// cohort with a single `advance` instead of one radix walk per
    /// event. Calling `pop_front_batch` then `pop` interleaves safely —
    /// both observe the same floor — and events pushed *while the
    /// caller processes the batch* (at or after the batch's timestamp,
    /// per the wheel's monotonicity contract) simply surface in a later
    /// call, exactly as they would under one-at-a-time pops of the
    /// already-drained cohort.
    pub fn pop_front_batch(&mut self, out: &mut Vec<WheelEvent>) -> usize {
        if self.len == 0 {
            return 0;
        }
        if self.buckets[0].is_empty() {
            self.advance();
        }
        let n = self.buckets[0].len();
        // Sorted descending, popped off the back ⇒ ascending is reverse.
        out.extend(self.buckets[0].drain(..).rev());
        self.len -= n;
        self.pops += n as u64;
        self.occupied &= !1u128;
        n
    }

    /// Advances the floor to the earliest pending event and drains its
    /// level: the batch sharing the new floor's time bits lands in the
    /// front bucket (sorted once, popped off the back); everything else
    /// falls to a strictly lower level.
    fn advance(&mut self) {
        let lvl = self.occupied.trailing_zeros() as usize;
        debug_assert!(lvl > 0 && lvl < LEVELS, "advance on an empty wheel");
        // `push` sets a level's `occupied` bit and its `min_ev` together.
        #[allow(clippy::expect_used)]
        let target = self.min_ev[lvl].expect("occupied level caches its min");
        self.floor_bits = target.at.bits();
        let mut moved = std::mem::take(&mut self.buckets[lvl]);
        self.occupied &= !(1u128 << lvl);
        self.min_ev[lvl] = None;
        for ev in moved.drain(..) {
            let l = self.level_of(ev.at.bits());
            debug_assert!(l < lvl, "redistribution must descend");
            self.buckets[l].push(ev);
            if l > 0 && self.min_ev[l].is_none_or(|m| ev.key() < m.key()) {
                self.min_ev[l] = Some(ev);
            }
            self.occupied |= 1u128 << l;
        }
        self.buckets[lvl] = moved; // keep the warm capacity
        self.buckets[0].sort_unstable_by_key(|ev| std::cmp::Reverse(ev.key()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(ev) = w.pop() {
            out.push(ev.at.get());
        }
        out
    }

    #[test]
    fn event_time_rejects_nan_negative_and_infinite() {
        // Regression: these used to flow straight into the heap, where
        // a NaN key breaks `partial_cmp`-based ordering around it.
        assert!(EventTime::try_new(f64::NAN).is_none());
        assert!(EventTime::try_new(-1.0).is_none());
        let neg_zero = EventTime::try_new(-0.0).expect("-0.0 is a valid zero");
        assert_eq!(
            neg_zero.bits(),
            0,
            "-0.0 must normalize to +0.0 (monotone key bits)"
        );
        assert!(EventTime::try_new(f64::INFINITY).is_none());
        assert!(EventTime::try_new(f64::NEG_INFINITY).is_none());
        assert_eq!(EventTime::try_new(0.25).map(EventTime::get), Some(0.25));
    }

    #[test]
    fn event_time_orders_totally() {
        let mut ts: Vec<EventTime> = [3.0, 0.0, 2.5, 1e-9, 2.5]
            .iter()
            .map(|&t| EventTime::try_new(t).unwrap())
            .collect();
        ts.sort();
        let sorted: Vec<f64> = ts.iter().map(|t| t.get()).collect();
        assert_eq!(sorted, vec![0.0, 1e-9, 2.5, 2.5, 3.0]);
    }

    #[test]
    fn pops_ascend_over_scattered_times() {
        let mut w = TimingWheel::new();
        let times = [5.0, 0.125, 3.75, 1e-6, 2.0, 0.125, 8.0, 1e-3];
        for (i, &t) in times.iter().enumerate() {
            w.push(EventTime::try_new(t).unwrap(), i as u32, 0);
        }
        assert_eq!(w.len(), times.len());
        let mut sorted = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(drain(&mut w), sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_in_instance_order() {
        let mut w = TimingWheel::new();
        for i in [7u32, 2, 9, 0] {
            w.push(EventTime::try_new(1.5).unwrap(), i, 0);
        }
        let mut order = Vec::new();
        while let Some(ev) = w.pop() {
            order.push(ev.instance);
        }
        assert_eq!(order, vec![0, 2, 7, 9]);
    }

    #[test]
    fn interleaved_monotone_inserts_keep_order() {
        // The engine's pattern: pop an event at t, schedule new events
        // at t + service — including events earlier than other pending
        // ones, and events at the exact popped instant.
        let mut w = TimingWheel::new();
        w.push(EventTime::try_new(10.0).unwrap(), 0, 0);
        w.push(EventTime::try_new(1.0).unwrap(), 1, 0);
        let first = w.pop().unwrap();
        assert_eq!(first.at.get(), 1.0);
        // now = 1.0; schedule below the pending 10.0 and at now itself
        w.push(EventTime::try_new(3.0).unwrap(), 2, 0);
        w.push(EventTime::try_new(1.0).unwrap(), 3, 0);
        w.push(EventTime::try_new(2.0).unwrap(), 4, 0);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|e| e.instance).collect();
        assert_eq!(order, vec![3, 4, 2, 0]);
    }

    #[test]
    fn peek_matches_pop_and_len_tracks() {
        let mut w = TimingWheel::new();
        for (i, t) in [0.5, 0.25, 4.0, 0.25].into_iter().enumerate() {
            w.push(EventTime::try_new(t).unwrap(), i as u32, 7);
        }
        let mut n = w.len();
        while let Some(p) = w.peek() {
            let got = w.pop().unwrap();
            assert_eq!(p, got, "peek must agree with the next pop");
            n -= 1;
            assert_eq!(w.len(), n);
        }
        assert_eq!(n, 0);
        assert_eq!(w.peek(), None);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn pop_front_batch_drains_exactly_the_same_instant_cohort() {
        let mut w = TimingWheel::new();
        for (i, t) in [2.0, 1.0, 1.0, 3.0, 1.0].into_iter().enumerate() {
            w.push(EventTime::try_new(t).unwrap(), i as u32, 0);
        }
        let mut batch = Vec::new();
        assert_eq!(w.pop_front_batch(&mut batch), 3);
        let got: Vec<(f64, u32)> = batch.iter().map(|e| (e.at.get(), e.instance)).collect();
        assert_eq!(got, vec![(1.0, 1), (1.0, 2), (1.0, 4)]);
        assert_eq!(w.len(), 2);
        // interleaves with single pops — same floor, same order
        assert_eq!(w.pop().unwrap().at.get(), 2.0);
        batch.clear();
        assert_eq!(w.pop_front_batch(&mut batch), 1);
        assert_eq!(batch[0].at.get(), 3.0);
        assert!(w.is_empty());
        assert_eq!(w.pop_front_batch(&mut batch), 0);
    }

    #[test]
    fn pop_front_batch_matches_sequential_pops() {
        let mk = || {
            let mut w = TimingWheel::new();
            let times = [5.0, 0.125, 0.125, 3.75, 0.125, 2.0, 5.0, 1e-3];
            for (i, &t) in times.iter().enumerate() {
                w.push(EventTime::try_new(t).unwrap(), i as u32, i as u32);
            }
            w
        };
        let mut singles = Vec::new();
        let mut a = mk();
        while let Some(ev) = a.pop() {
            singles.push(ev);
        }
        let mut batched = Vec::new();
        let mut b = mk();
        while b.pop_front_batch(&mut batched) > 0 {}
        assert_eq!(batched, singles);
        assert_eq!(b.pops(), a.pops());
    }

    #[test]
    fn warm_wheel_reuses_bucket_capacity() {
        // Steady-state allocation-freedom: after one fill/drain cycle,
        // the buckets hold their capacity for the next cycle.
        let mut w = TimingWheel::new();
        for round in 0..3 {
            let base = round as f64 * 100.0;
            for i in 0..64u32 {
                w.push(
                    EventTime::try_new(base + f64::from(i) * 0.01).unwrap(),
                    i,
                    0,
                );
            }
            let popped = drain(&mut w).len();
            assert_eq!(popped, 64);
        }
    }
}
