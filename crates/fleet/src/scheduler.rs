//! Batching admission schedulers.
//!
//! PCNNA has one physical MRR weight bank, so a batch must share one
//! network: its layer weights are programmed once per batch and every frame
//! in the batch streams through them (the amortization
//! `pcnna_core::execution::ExecutionModel::run_batched` prices). Requests
//! therefore queue per class, and a policy's job is to pick **which class**
//! an idle instance serves next; the batch is then up to `max_batch`
//! requests popped from that class's queue in arrival order.
//!
//! Under the sharded engine each shard cell owns one [`ClassQueues`]
//! over its *own* classes (indices are cell-local): a policy ranks the
//! classes inside one shard, which is also why shard-count never changes
//! results — the classes a policy may weigh against each other are fixed
//! by the partition, not by who executes it.

use crate::workload::Request;
use std::collections::VecDeque;

/// Which class an idle instance serves next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Serve the class whose head request arrived first (global FIFO over
    /// heads; batching still amortizes within the chosen class).
    Fifo,
    /// Serve the class whose head request has the earliest SLO deadline.
    EarliestDeadlineFirst,
    /// Amortize MRR weight reprogramming: prefer dispatching a class onto
    /// an idle instance that already holds that class's weights (no reload
    /// phase at all), falling back to the deepest queue when no idle
    /// instance matches. Queue-depth selection below breaks ties toward
    /// the oldest head request so no class starves forever under equal
    /// load.
    NetworkAffinity,
}

/// Per-class FIFO queues with O(1) admission and O(classes) selection.
#[derive(Debug, Clone, Default)]
pub struct ClassQueues {
    queues: Vec<VecDeque<Request>>,
    len: usize,
}

impl ClassQueues {
    /// Empty queues for `classes` classes.
    #[must_use]
    pub fn new(classes: usize) -> Self {
        ClassQueues {
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }

    /// Total queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests of one class.
    #[must_use]
    pub fn class_len(&self, class: usize) -> usize {
        self.queues[class].len()
    }

    /// Admits a request (requests arrive in time order, so per-class queues
    /// stay sorted by arrival — and, as each class has one fixed SLO, by
    /// deadline too).
    pub fn push(&mut self, req: Request) {
        self.queues[req.class].push_back(req);
        self.len += 1;
    }

    /// The policy's choice of class for the next batch, if any —
    /// a single allocation-free scan (the dispatch fast path; agrees
    /// with `ranked_classes`' first entry).
    #[must_use]
    pub fn select_class(&self, policy: Policy) -> Option<usize> {
        let heads = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.front().map(|r| (i, r)));
        match policy {
            Policy::Fifo => heads
                .min_by(|(_, a), (_, b)| a.arrival_s.total_cmp(&b.arrival_s))
                .map(|(i, _)| i),
            Policy::EarliestDeadlineFirst => heads
                .min_by(|(_, a), (_, b)| a.deadline_s.total_cmp(&b.deadline_s))
                .map(|(i, _)| i),
            Policy::NetworkAffinity => heads
                .min_by(|(ia, a), (ib, b)| {
                    let depth = self.queues[*ib].len().cmp(&self.queues[*ia].len());
                    // prefer deeper queues; among equals, the older head
                    depth.then(a.arrival_s.total_cmp(&b.arrival_s))
                })
                .map(|(i, _)| i),
        }
    }

    /// Fills `out` with every non-empty class, ordered by the policy's
    /// preference (best first). The health-aware engine walks this
    /// ranking: the top class may have no eligible instance left (all
    /// of them drained, failed, or unable to serve that network), in
    /// which case the next class gets its chance — a single "best"
    /// class would deadlock behind degraded hardware. `out` is a
    /// caller-owned buffer so the dispatch hot loop reuses one
    /// allocation.
    pub fn ranked_classes(&self, policy: Policy, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.queues
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.front().map(|_| i)),
        );
        // `out` lists only classes whose queue has a front.
        #[allow(clippy::expect_used)]
        let head = |i: usize| self.queues[i].front().expect("non-empty by construction");
        match policy {
            Policy::Fifo => {
                out.sort_by(|&a, &b| head(a).arrival_s.total_cmp(&head(b).arrival_s));
            }
            Policy::EarliestDeadlineFirst => {
                out.sort_by(|&a, &b| head(a).deadline_s.total_cmp(&head(b).deadline_s));
            }
            Policy::NetworkAffinity => {
                // deeper queues first; among equals, the older head
                out.sort_by(|&a, &b| {
                    self.queues[b]
                        .len()
                        .cmp(&self.queues[a].len())
                        .then(head(a).arrival_s.total_cmp(&head(b).arrival_s))
                });
            }
        }
    }

    /// Pops up to `max_batch` requests of `class`, in arrival order.
    pub fn pop_batch(&mut self, class: usize, max_batch: u64) -> Vec<Request> {
        let mut out = Vec::new();
        self.pop_batch_into(class, max_batch, &mut out);
        out
    }

    /// Pops up to `max_batch` requests of `class` into `out` (cleared
    /// first), in arrival order. The engine's hot loop feeds this a warm
    /// arena buffer, so steady-state dispatch allocates nothing.
    pub fn pop_batch_into(&mut self, class: usize, max_batch: u64, out: &mut Vec<Request>) {
        let q = &mut self.queues[class];
        let take = (max_batch as usize).min(q.len());
        self.len -= take;
        out.clear();
        // Slice copies instead of the deque's per-element iterator:
        // requests are `Copy`, so the front of the ring is at most two
        // memcpys, and the drain (whose drop just advances the head for
        // a prefix range) never walks elements.
        let (front, back) = q.as_slices();
        if take <= front.len() {
            out.extend_from_slice(&front[..take]);
        } else {
            out.extend_from_slice(front);
            out.extend_from_slice(&back[..take - front.len()]);
        }
        q.drain(..take);
    }

    /// Sheds the youngest queued requests of `class` until at most `keep`
    /// remain, returning how many were dropped. Load-shedding path: the
    /// oldest requests (closest to dispatch, most service already
    /// invested in waiting) are kept; the newest — which would wait the
    /// longest and miss their SLO anyway under overload — are cut from
    /// the back. O(dropped).
    pub fn shed_to_depth(&mut self, class: usize, keep: usize) -> u64 {
        self.shed_to_depth_with(class, keep, |_| {})
    }

    /// [`shed_to_depth`](Self::shed_to_depth) that also visits every
    /// dropped request (oldest dropped first) before it is cut — the
    /// telemetry layer's shed hook. The closure must not touch the
    /// queues; it only observes the victims.
    pub fn shed_to_depth_with(
        &mut self,
        class: usize,
        keep: usize,
        mut on_drop: impl FnMut(&Request),
    ) -> u64 {
        let q = &mut self.queues[class];
        let drop = q.len().saturating_sub(keep);
        for r in q.iter().skip(q.len() - drop) {
            on_drop(r);
        }
        q.truncate(q.len() - drop);
        self.len -= drop;
        drop as u64
    }

    /// Returns an aborted batch's requests (given in arrival order) to
    /// the **front** of their class queue, draining `reqs`. Failover
    /// path: the requests were already admitted once, so they re-enter
    /// ahead of younger arrivals and admission capacity is not
    /// re-checked — nothing is dropped or duplicated.
    pub fn requeue_front(&mut self, class: usize, reqs: &mut Vec<Request>) {
        self.len += reqs.len();
        for r in reqs.drain(..).rev() {
            self.queues[class].push_front(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, class: usize, arrival: f64, slo: f64) -> Request {
        Request {
            id,
            class,
            arrival_s: arrival,
            deadline_s: arrival + slo,
        }
    }

    fn queues() -> ClassQueues {
        let mut q = ClassQueues::new(2);
        // class 0: tight SLO, arrives later; class 1: loose SLO, arrives
        // first and is deeper.
        q.push(req(0, 1, 0.0, 1.0));
        q.push(req(1, 1, 0.1, 1.0));
        q.push(req(2, 1, 0.2, 1.0));
        q.push(req(3, 0, 0.3, 0.05));
        q
    }

    #[test]
    fn fifo_picks_oldest_head() {
        assert_eq!(queues().select_class(Policy::Fifo), Some(1));
    }

    #[test]
    fn edf_picks_tightest_deadline() {
        // class 0's head deadline is 0.35 vs class 1's 1.0.
        assert_eq!(
            queues().select_class(Policy::EarliestDeadlineFirst),
            Some(0)
        );
    }

    #[test]
    fn affinity_picks_deepest_queue() {
        assert_eq!(queues().select_class(Policy::NetworkAffinity), Some(1));
    }

    #[test]
    fn affinity_tie_breaks_to_older_head() {
        let mut q = ClassQueues::new(2);
        q.push(req(0, 1, 0.0, 1.0));
        q.push(req(1, 0, 0.5, 1.0));
        assert_eq!(q.select_class(Policy::NetworkAffinity), Some(1));
    }

    #[test]
    fn pop_batch_respects_cap_and_order() {
        let mut q = queues();
        let batch = q.pop_batch(1, 2);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.class_len(1), 1);
    }

    #[test]
    fn ranked_classes_order_matches_select() {
        let q = queues();
        let mut ranked = Vec::new();
        for p in [
            Policy::Fifo,
            Policy::EarliestDeadlineFirst,
            Policy::NetworkAffinity,
        ] {
            q.ranked_classes(p, &mut ranked);
            assert_eq!(ranked.len(), 2, "{p:?}");
            assert_eq!(ranked.first().copied(), q.select_class(p), "{p:?}");
            // every non-empty class appears exactly once
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1], "{p:?}");
        }
    }

    #[test]
    fn requeue_front_preserves_arrival_order() {
        let mut q = queues();
        let mut batch = q.pop_batch(1, 2); // ids 0, 1
        assert_eq!(q.class_len(1), 1); // id 2 still queued
        q.requeue_front(1, &mut batch);
        assert!(batch.is_empty(), "requeue drains the buffer");
        assert_eq!(q.class_len(1), 3);
        assert_eq!(q.len(), 4);
        let again = q.pop_batch(1, 3);
        assert_eq!(
            again.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "failed-over requests go back ahead of younger arrivals"
        );
    }

    #[test]
    fn shed_to_depth_drops_youngest_from_the_back() {
        let mut q = queues(); // class 1 holds ids 0,1,2 in arrival order
        assert_eq!(q.shed_to_depth(1, 1), 2);
        assert_eq!(q.class_len(1), 1);
        assert_eq!(q.len(), 2);
        let kept = q.pop_batch(1, 8);
        assert_eq!(kept.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0]);
        // shedding to a depth at or above the current one drops nothing
        assert_eq!(q.shed_to_depth(0, 10), 0);
        assert_eq!(q.class_len(0), 1);
    }

    #[test]
    fn empty_queues_select_none() {
        let q = ClassQueues::new(3);
        for p in [
            Policy::Fifo,
            Policy::EarliestDeadlineFirst,
            Policy::NetworkAffinity,
        ] {
            assert_eq!(q.select_class(p), None);
        }
    }
}
