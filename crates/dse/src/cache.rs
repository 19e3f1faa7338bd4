//! Memoized candidate evaluation keyed by config fingerprint.
//!
//! Evaluating a candidate walks the analytical, feasibility, power, and
//! photonic-link models. A caller that prices candidates one at a time
//! and may repeat them memoizes the verdicts here, keyed by
//! [`Candidate::fingerprint`]. (The searches need no memo: they dedup by
//! canonical knob choice and read tabled parts, see [`crate::search`].)
//! A cached verdict is returned **bit identical** — [`DesignPoint`] is
//! `Copy` and is stored exactly as the evaluator produced it — and
//! infeasible candidates are cached too (as `None`), so a design is never
//! re-evaluated no matter how often it is offered.

use crate::objectives::{DesignPoint, Evaluator};
use crate::space::Candidate;
use std::collections::HashMap;

/// Fingerprint-keyed evaluation memo. `None` records an infeasible design.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    map: HashMap<u64, Option<DesignPoint>>,
    hits: u64,
    misses: u64,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Evaluates through the cache: a repeat fingerprint returns the
    /// stored verdict without touching the models.
    pub fn evaluate(
        &mut self,
        evaluator: &Evaluator,
        candidate: &Candidate,
    ) -> Option<DesignPoint> {
        let key = candidate.fingerprint();
        if let Some(cached) = self.map.get(&key) {
            self.hits += 1;
            return *cached;
        }
        self.misses += 1;
        let fresh = evaluator.evaluate(candidate);
        self.map.insert(key, fresh);
        fresh
    }

    /// The stored verdict for a fingerprint, if any (outer `None` = never
    /// evaluated; inner `None` = evaluated and infeasible).
    #[must_use]
    pub fn get(&self, fingerprint: u64) -> Option<Option<DesignPoint>> {
        self.map.get(&fingerprint).copied()
    }

    /// Whether a fingerprint has a stored verdict.
    #[must_use]
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.map.contains_key(&fingerprint)
    }

    /// Stores an externally computed verdict (for example one priced on
    /// another thread).
    pub fn insert(&mut self, fingerprint: u64, verdict: Option<DesignPoint>) {
        self.map.insert(fingerprint, verdict);
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (fresh evaluations) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct fingerprints stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_evaluation_hits_and_is_bit_identical() {
        let ev = Evaluator::alexnet();
        let mut cache = EvalCache::new();
        let c = Candidate::paper_default();
        let first = cache.evaluate(&ev, &c).expect("feasible");
        let second = cache.evaluate(&ev, &c).expect("feasible");
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn infeasible_verdicts_are_cached_too() {
        let ev = Evaluator::alexnet();
        let mut cache = EvalCache::new();
        let mut config = pcnna_core::PcnnaConfig::default();
        config.sram.capacity_bits = 64; // nothing fits
        let c = Candidate {
            config,
            ..Candidate::paper_default()
        };
        assert!(cache.evaluate(&ev, &c).is_none());
        assert!(cache.evaluate(&ev, &c).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.get(c.fingerprint()), Some(None));
    }
}
