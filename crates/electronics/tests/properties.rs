//! Property-based tests of the electronic substrate's timing and
//! bookkeeping invariants.

use proptest::prelude::*;

use pcnna_electronics::adc::{AdcArray, AdcModel};
use pcnna_electronics::dac::{DacArray, DacModel};
use pcnna_electronics::sram::CacheSim;
use pcnna_electronics::time::SimTime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simtime_addition_is_commutative_and_monotone(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let ta = SimTime::from_ps(a);
        let tb = SimTime::from_ps(b);
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert!(ta + tb >= ta);
        prop_assert_eq!((ta + tb).saturating_sub(tb), ta);
    }

    #[test]
    fn dac_array_batch_time_monotone(n1 in 0u64..10_000, n2 in 0u64..10_000, dacs in 1usize..64) {
        let arr = DacArray::new(DacModel::default(), dacs).unwrap();
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(arr.convert_time(lo) <= arr.convert_time(hi));
        // more DACs never slower
        let arr2 = DacArray::new(DacModel::default(), dacs + 1).unwrap();
        prop_assert!(arr2.convert_time(hi) <= arr.convert_time(hi));
    }

    #[test]
    fn dac_conversions_per_dac_covers_batch(n in 0u64..100_000, dacs in 1usize..64) {
        let arr = DacArray::new(DacModel::default(), dacs).unwrap();
        let per = arr.conversions_per_dac(n);
        prop_assert!(per * dacs as u64 >= n);
        prop_assert!(per.saturating_sub(1) * dacs as u64 <= n.max(1) - u64::from(n > 0));
    }

    #[test]
    fn adc_array_scales_like_dac_array(n in 0u64..10_000, adcs in 1usize..64) {
        let arr = AdcArray::new(AdcModel::default(), adcs).unwrap();
        prop_assert!(arr.conversions_per_adc(n) * adcs as u64 >= n);
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(addrs in prop::collection::vec(0u64..64, 1..300)) {
        let mut cache = CacheSim::new(16).unwrap();
        for &a in &addrs {
            cache.access(a);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, addrs.len() as u64);
        prop_assert!(cache.len() <= cache.capacity());
        // misses at least the number of distinct addresses seen... no:
        // at least the number of distinct addresses MINUS re-fills; but
        // always at least min(distinct, capacity) cold misses is not tight
        // either under thrashing. Safe bound: misses ≥ 1 (first access).
        prop_assert!(stats.misses >= 1);
    }

    #[test]
    fn cache_within_capacity_never_evicts(addrs in prop::collection::vec(0u64..8, 1..100)) {
        let mut cache = CacheSim::new(8).unwrap();
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.stats().evictions, 0);
        // each distinct address misses exactly once
        let distinct: std::collections::HashSet<u64> = addrs.iter().copied().collect();
        prop_assert_eq!(cache.stats().misses, distinct.len() as u64);
    }
}
