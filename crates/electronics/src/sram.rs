//! On-chip SRAM cache.
//!
//! "Buffered inputs are cached in the SRAM memory \[15\], which has a 128kb
//! capacity that can store 8 thousand 16bit values. The access time for the
//! memory is 7ns and it has a footprint of 0.443mm²" (§V-B). Besides the
//! timing model, [`CacheSim`] tracks which receptive-field words are
//! resident so the scheduler's stride-reuse claims can be validated against
//! actual hit/miss counts.

use crate::time::SimTime;
use crate::{ElectronicError, Result};
use std::collections::HashSet;
use std::collections::VecDeque;

/// Timing/area/power model of the cache macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramModel {
    /// Capacity in bits.
    pub capacity_bits: u64,
    /// Word width in bits.
    pub word_bits: u32,
    /// Access time per word.
    pub access_time: SimTime,
    /// Footprint, mm².
    pub area_mm2: f64,
    /// Dynamic power per MHz of access rate, watts (the cited macro is
    /// 25 µW/MHz).
    pub power_per_mhz_w: f64,
}

impl Default for SramModel {
    /// The paper's reference \[15\]: 128 kb, 16-bit words, 7 ns access,
    /// 0.443 mm², 25 µW/MHz.
    fn default() -> Self {
        SramModel {
            capacity_bits: 128 * 1024,
            word_bits: 16,
            access_time: SimTime::from_ns(7),
            area_mm2: 0.443,
            power_per_mhz_w: 25e-6,
        }
    }
}

impl SramModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for zero capacity or
    /// word width.
    pub fn validate(&self) -> Result<()> {
        if self.capacity_bits == 0 || self.word_bits == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "SRAM capacity and word width must be nonzero".to_owned(),
            });
        }
        Ok(())
    }

    /// Number of words the macro stores — the paper's "8 thousand 16bit
    /// values".
    #[must_use]
    pub fn capacity_words(&self) -> u64 {
        self.capacity_bits / u64::from(self.word_bits)
    }

    /// Whether a working set of `n` words fits.
    #[must_use]
    pub fn fits(&self, n: u64) -> bool {
        n <= self.capacity_words()
    }

    /// Average power at a given access rate (accesses/second), watts.
    #[must_use]
    pub fn power_w(&self, accesses_per_sec: f64) -> f64 {
        self.power_per_mhz_w * (accesses_per_sec / 1e6)
    }
}

/// Hit/miss statistics of a [`CacheSim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that found their word resident.
    pub hits: u64,
    /// Accesses that had to fill from the next level.
    pub misses: u64,
    /// Words evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (1 for no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A FIFO-replacement word cache over abstract addresses.
///
/// PCNNA's access pattern is a sliding window, for which FIFO replacement is
/// near-optimal (words leave the receptive field in the order they entered);
/// a full LRU would only complicate the model without changing the counts.
#[derive(Debug, Clone)]
pub struct CacheSim {
    capacity_words: usize,
    resident: HashSet<u64>,
    order: VecDeque<u64>,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a cache holding `capacity_words` words.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for zero capacity.
    pub fn new(capacity_words: usize) -> Result<Self> {
        if capacity_words == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "cache capacity must be nonzero".to_owned(),
            });
        }
        Ok(CacheSim {
            capacity_words,
            resident: HashSet::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        })
    }

    /// Creates a cache sized to an [`SramModel`].
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] if the model holds zero
    /// words.
    pub fn for_model(model: &SramModel) -> Result<Self> {
        CacheSim::new(model.capacity_words() as usize)
    }

    /// Capacity in words.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity_words
    }

    /// Current resident word count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses one word; returns `true` on a hit. Misses fill the word,
    /// evicting FIFO if full.
    pub fn access(&mut self, addr: u64) -> bool {
        if self.resident.contains(&addr) {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.resident.len() == self.capacity_words {
            if let Some(victim) = self.order.pop_front() {
                self.resident.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.resident.insert(addr);
        self.order.push_back(addr);
        false
    }

    /// Accesses a slice of words, returning the number of misses.
    pub fn access_all(&mut self, addrs: &[u64]) -> u64 {
        addrs.iter().filter(|&&a| !self.access(a)).count() as u64
    }

    /// Clears residency (layer switch) but keeps statistics.
    pub fn flush(&mut self) {
        self.resident.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_8k_words() {
        let m = SramModel::default();
        assert_eq!(m.capacity_words(), 8192);
        assert!(m.fits(8000));
        assert!(!m.fits(9000));
    }

    #[test]
    fn power_matches_25uw_per_mhz() {
        let m = SramModel::default();
        assert!((m.power_w(1e6) - 25e-6).abs() < 1e-18);
        assert!((m.power_w(100e6) - 2.5e-3).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(SramModel {
            capacity_bits: 0,
            ..SramModel::default()
        }
        .validate()
        .is_err());
        assert!(SramModel::default().validate().is_ok());
        assert!(CacheSim::new(0).is_err());
    }

    #[test]
    fn cold_cache_misses_then_hits() {
        let mut c = CacheSim::new(4).unwrap();
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1));
        assert!(c.access(2));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut c = CacheSim::new(2).unwrap();
        c.access(1);
        c.access(2);
        c.access(3); // evicts 1
        assert!(!c.access(1)); // 1 gone (this evicts 2)
        assert!(c.access(3)); // 3 still resident
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn sliding_window_mostly_hits() {
        // 3-wide window sliding over 100 addresses with stride 1: after the
        // first fill, each step misses exactly the 1 new address.
        let mut c = CacheSim::new(8).unwrap();
        let mut misses = 0;
        for start in 0..97u64 {
            let window = [start, start + 1, start + 2];
            misses += c.access_all(&window);
        }
        assert_eq!(misses, 99); // 3 cold + 96 new
        assert!(c.stats().hit_rate() > 0.6);
    }

    #[test]
    fn flush_clears_residency_keeps_stats() {
        let mut c = CacheSim::new(4).unwrap();
        c.access(1);
        c.flush();
        assert!(c.is_empty());
        assert!(!c.access(1));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn hit_rate_empty_is_one() {
        let c = CacheSim::new(4).unwrap();
        assert_eq!(c.stats().hit_rate(), 1.0);
        assert_eq!(c.capacity(), 4);
    }
}
