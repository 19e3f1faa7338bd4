//! Incremental Pareto frontier with dominance pruning.
//!
//! The frontier holds (candidate, point) pairs such that **no kept point
//! weakly dominates another**. [`ParetoFrontier::insert`] (with its
//! crate-internal twin `insert_with`, which builds the entry only on
//! admission) is the only way in: a newcomer that is weakly dominated by
//! any resident (including an exact duplicate) is rejected as a no-op;
//! otherwise every resident the newcomer dominates is evicted and the
//! newcomer is appended. Insertion order is therefore deterministic given
//! a deterministic evaluation stream, which is what makes seeded searches
//! reproduce bit-identical frontiers.

use crate::objectives::DesignPoint;
use crate::space::Candidate;

/// A non-dominated design and its evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierEntry {
    /// The design.
    pub candidate: Candidate,
    /// Its evaluated objectives.
    pub point: DesignPoint,
}

/// The set of mutually non-dominated designs seen so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFrontier {
    entries: Vec<FrontierEntry>,
}

impl ParetoFrontier {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Self {
        ParetoFrontier::default()
    }

    /// Offers a design to the frontier. Returns `true` if it was admitted
    /// (possibly evicting residents it dominates), `false` if an existing
    /// entry weakly dominates it — in which case the frontier is unchanged.
    pub fn insert(&mut self, candidate: Candidate, point: DesignPoint) -> bool {
        self.insert_with(point, |point| FrontierEntry { candidate, point })
    }

    /// [`insert`](Self::insert) for a point whose entry is costly to
    /// build: `entry` runs only if `point` is admitted, and must keep its
    /// objectives. The searches use it to assemble and fingerprint only
    /// the designs they keep, with one offer per point.
    pub(crate) fn insert_with(
        &mut self,
        point: DesignPoint,
        entry: impl FnOnce(DesignPoint) -> FrontierEntry,
    ) -> bool {
        if !point.is_finite() {
            return false;
        }
        if self
            .entries
            .iter()
            .any(|e| e.point.weakly_dominates(&point))
        {
            return false;
        }
        self.entries.retain(|e| !point.dominates(&e.point));
        self.entries.push(entry(point));
        true
    }

    /// The frontier entries in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[FrontierEntry] {
        &self.entries
    }

    /// Number of non-dominated designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the frontier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries sorted by ascending latency (ties broken by fingerprint so
    /// the order is total and reproducible).
    #[must_use]
    pub fn sorted_by_latency(&self) -> Vec<&FrontierEntry> {
        let mut out: Vec<&FrontierEntry> = self.entries.iter().collect();
        out.sort_by(|a, b| {
            a.point
                .latency_s
                .total_cmp(&b.point.latency_s)
                .then(a.point.fingerprint.cmp(&b.point.fingerprint))
        });
        out
    }

    /// Folds another frontier in (used to combine per-shard searches).
    pub fn merge(&mut self, other: &ParetoFrontier) {
        for e in &other.entries {
            self.insert(e.candidate, e.point);
        }
    }

    /// Checks the defining invariant: no entry weakly dominates another.
    /// (Exercised by the property tests; cheap enough to assert in
    /// debugging sessions.)
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        for (i, a) in self.entries.iter().enumerate() {
            for (j, b) in self.entries.iter().enumerate() {
                if i != j && a.point.weakly_dominates(&b.point) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(fp: u64, objs: [f64; 4]) -> DesignPoint {
        DesignPoint {
            fingerprint: fp,
            latency_s: objs[0],
            energy_j: objs[1],
            area_mm2: objs[2],
            snr_headroom_db: -objs[3],
            usable_channels: 1,
            spectral_passes: 1,
            spectrally_bound: false,
            throughput_fps: 0.0,
        }
    }

    fn cand() -> Candidate {
        Candidate::paper_default()
    }

    #[test]
    fn dominated_insert_is_a_noop() {
        let mut f = ParetoFrontier::new();
        assert!(f.insert(cand(), point(1, [1.0, 1.0, 1.0, 1.0])));
        let before = f.clone();
        assert!(!f.insert(cand(), point(2, [2.0, 2.0, 2.0, 2.0])));
        assert_eq!(f, before, "dominated insert must not change the frontier");
        // exact duplicate is weakly dominated → also a no-op
        assert!(!f.insert(cand(), point(3, [1.0, 1.0, 1.0, 1.0])));
        assert_eq!(f, before);
    }

    #[test]
    fn dominating_insert_evicts_residents() {
        let mut f = ParetoFrontier::new();
        f.insert(cand(), point(1, [2.0, 2.0, 2.0, 2.0]));
        f.insert(cand(), point(2, [3.0, 1.0, 3.0, 3.0]));
        assert_eq!(f.len(), 2);
        // dominates #1 but not #2
        assert!(f.insert(cand(), point(3, [1.0, 2.0, 1.0, 1.0])));
        assert_eq!(f.len(), 2);
        assert!(f.entries().iter().all(|e| e.point.fingerprint != 1));
        assert!(f.invariant_holds());
    }

    #[test]
    fn incomparable_points_accumulate() {
        let mut f = ParetoFrontier::new();
        for i in 0..5u64 {
            let x = i as f64;
            assert!(f.insert(cand(), point(i, [x, 4.0 - x, 1.0, 1.0])));
        }
        assert_eq!(f.len(), 5);
        assert!(f.invariant_holds());
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let mut f = ParetoFrontier::new();
        assert!(!f.insert(cand(), point(1, [f64::NAN, 1.0, 1.0, 1.0])));
        assert!(!f.insert(cand(), point(2, [f64::INFINITY, 1.0, 1.0, 1.0])));
        assert!(f.is_empty());
    }

    #[test]
    fn sorted_by_latency_is_total_and_stable() {
        let mut f = ParetoFrontier::new();
        f.insert(cand(), point(2, [2.0, 1.0, 1.0, 1.0]));
        f.insert(cand(), point(1, [1.0, 2.0, 1.0, 1.0]));
        let sorted = f.sorted_by_latency();
        assert_eq!(sorted[0].point.fingerprint, 1);
        assert_eq!(sorted[1].point.fingerprint, 2);
    }

    #[test]
    fn merge_keeps_only_nondominated() {
        let mut a = ParetoFrontier::new();
        a.insert(cand(), point(1, [1.0, 3.0, 1.0, 1.0]));
        let mut b = ParetoFrontier::new();
        b.insert(cand(), point(2, [1.0, 1.0, 1.0, 1.0]));
        a.merge(&b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].point.fingerprint, 2);
    }
}
