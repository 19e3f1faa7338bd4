//! The binary heap behind the engine's future-event sets.
//!
//! The engine schedules two kinds of timed events — batch completions
//! and recalibration restores — and needs three operations on each set:
//! insert a future event, read the earliest pending event, and pop it
//! (singly, or as the whole cohort sharing the earliest instant).
//!
//! [`TimingWheel`] is `std`'s [`BinaryHeap`] over the integer key
//! `Reverse<(time bits, instance, epoch)>`: the IEEE-754 bits of a
//! non-negative finite time order exactly as the time does, so the heap
//! compares three integers and never touches a float. The name is kept
//! from the octave-bucketed radix wheel this heap replaced. That wheel
//! promised O(1) inserts, but on raw f64 key bits its events cascaded
//! through many of its 65 levels and every front refill re-sorted; and
//! a cell holds at most one completion per instance, a depth at which
//! the heap's O(log n) sift is shorter than the wheel's cascades
//! (measured in PERF.md, "Binary-heap event sets"). Hierarchical
//! timing wheels pay off for many timers on an integer tick range,
//! which an engine cell is not.
//!
//! * **insert** and **pop** are O(log n) sifts over a `Vec` that keeps
//!   its capacity, so a warmed-up set allocates nothing;
//! * **peek** is O(1) and borrows the set immutably;
//! * **cancellation** is O(1) by *epoch token*: events carry the
//!   instance's dispatch epoch at enqueue; a hard failure bumps the
//!   epoch, and the orphaned event is recognized and skipped when it
//!   surfaces, never searched for.
//!
//! Pop order is ascending `(time, instance, epoch)`, which
//! `wheel_pops_in_heap_order` in `crates/fleet/tests` pins down under
//! proptest event streams. Simulation time is monotone — the engine
//! only ever schedules events at or after the event it is currently
//! processing — and debug builds assert it in [`TimingWheel::push`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// enter an event set (a NaN key has no total order; a negative
    /// time's bits would order after every positive time). A negative
    /// zero is normalized to `+0.0` so the key bits stay monotone.
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
    /// The event keyed as the heap stores it.
    fn from_key((bits, instance, epoch): (u64, u32, u32)) -> WheelEvent {
        WheelEvent {
            at: EventTime(f64::from_bits(bits)),
            instance,
            epoch,
        }
    }
}

/// The engine's future-event set: a min-heap on `(time bits, instance,
/// epoch)` (see the module docs).
#[derive(Debug, Default)]
pub struct TimingWheel {
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Time bits of the last event popped. All pushes must be at or
    /// after this time (simulation monotonicity, debug-asserted).
    floor_bits: u64,
    /// Lifetime insertion count — two plain increments feeding the
    /// telemetry profile; kept unconditionally because they are noise
    /// next to the sifts they count.
    pushes: u64,
    /// Lifetime pop count.
    pops: u64,
}

impl TimingWheel {
    /// An empty event set with its floor at t = 0.
    #[must_use]
    pub fn new() -> Self {
        TimingWheel::default()
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
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event. O(log n); allocation-free once the heap's
    /// buffer is warm.
    ///
    /// The time must be at or after the last popped event's time (the
    /// engine's simulation clock is monotone, so this holds by
    /// construction; debug builds assert it).
    pub fn push(&mut self, at: EventTime, instance: u32, epoch: u32) {
        debug_assert!(
            at.bits() >= self.floor_bits,
            "event set requires monotone inserts: {} is before the \
             last popped event at bits {:#x}",
            at.get(),
            self.floor_bits,
        );
        self.heap.push(Reverse((at.bits(), instance, epoch)));
        self.pushes += 1;
    }

    /// The earliest pending event, without removing it. O(1).
    #[must_use]
    pub fn peek(&self) -> Option<WheelEvent> {
        self.heap.peek().map(|&Reverse(k)| WheelEvent::from_key(k))
    }

    /// Pops the earliest pending event. O(log n).
    pub fn pop(&mut self) -> Option<WheelEvent> {
        let Reverse(k) = self.heap.pop()?;
        self.floor_bits = k.0;
        self.pops += 1;
        Some(WheelEvent::from_key(k))
    }

    /// Drains **every** pending event at the earliest pending timestamp
    /// into `out`, appended in exact pop order (ascending
    /// `(time, instance, epoch)` key). Returns the number drained.
    ///
    /// This is the batched form of [`TimingWheel::pop`], and interleaves
    /// with it freely. Events pushed *while the caller processes the
    /// batch* (at or after the batch's timestamp, per the monotonicity
    /// contract) surface in a later call, exactly as they would under
    /// one-at-a-time pops of the already-drained cohort.
    pub fn pop_front_batch(&mut self, out: &mut Vec<WheelEvent>) -> usize {
        let Some(&Reverse((bits, ..))) = self.heap.peek() else {
            return 0;
        };
        let before = out.len();
        while let Some(&Reverse(k)) = self.heap.peek() {
            if k.0 != bits {
                break;
            }
            self.heap.pop();
            out.push(WheelEvent::from_key(k));
        }
        let n = out.len() - before;
        self.floor_bits = bits;
        self.pops += n as u64;
        n
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
        // the heap holds its capacity for the next cycle.
        let mut w = TimingWheel::new();
        let mut warm = 0;
        for round in 0..3 {
            let base = round as f64 * 100.0;
            for i in 0..64u32 {
                w.push(
                    EventTime::try_new(base + f64::from(i) * 0.01).unwrap(),
                    i,
                    0,
                );
            }
            if round == 0 {
                warm = w.heap.capacity();
            }
            let popped = drain(&mut w).len();
            assert_eq!(popped, 64);
            assert_eq!(w.heap.capacity(), warm, "round {round} reallocated");
        }
    }
}
