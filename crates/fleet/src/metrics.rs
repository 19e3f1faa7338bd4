//! Serving figures of merit: latency percentiles, throughput, SLO
//! attainment, utilization, and energy per request.
//!
//! Quantiles come from [`LatencyHistogram`], a fixed-size log-binned
//! streaming histogram (HDR-style): recording is O(1) with no allocation,
//! memory is constant in the number of requests, and every reported
//! quantile is within the documented ~1% relative error of the exact
//! order statistic. [`LatencySummary::from_samples`] keeps the exact
//! sort-based path for small samples and for certifying the histogram in
//! tests.

/// Sub-bucket resolution bits of [`LatencyHistogram`]: 2⁷ = 128 linear
/// sub-buckets per octave, so a bin spans at most `1/128 ≈ 0.78%` of its
/// value — the quantile error bound below.
const SUB_BITS: u32 = 7;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Smallest binned exponent: values below `2^-34 s` (≈ 58 ps) land in the
/// first bin. Far below any simulated service time.
const MIN_EXP: i32 = -34;
/// One past the largest binned exponent: values at or above `2^6 = 64 s`
/// land in the last bin. Far above any simulated latency.
const MAX_EXP: i32 = 6;
/// Bucket index of the first binned value (`2^MIN_EXP`'s biased-exponent
/// bucket), subtracted so indices start at 0.
const INDEX_BASE: u64 = ((1023 + MIN_EXP as i64) as u64) << SUB_BITS;

/// A streaming log-binned latency histogram (HDR-style).
///
/// Values are binned by exponent plus the top 7 mantissa bits,
/// giving a relative bin width of at most 1/128 ≈ 0.78%; quantiles report
/// a bin's midpoint, so the relative quantile error is ≤ **1%** (about
/// 0.4% typical). Count, sum, min, and max are tracked exactly, so mean
/// and extremes carry no binning error at all.
///
/// The bin array is a fixed [`LatencyHistogram::BIN_COUNT`] slots
/// (~40 KiB) regardless of how many samples are recorded — recording is
/// O(1), allocation-free, and a 10×-longer run costs zero extra memory.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Number of bins: one per (octave, sub-bucket) pair across the
    /// covered range — constant, whatever the sample count.
    pub const BIN_COUNT: usize = (MAX_EXP - MIN_EXP) as usize * SUB_BUCKETS;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            bins: vec![0; Self::BIN_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bin index of a positive finite value (clamped to the covered
    /// range). Exponent and top mantissa bits, straight off the IEEE-754
    /// representation — no transcendental call on the record path.
    #[inline]
    fn index_of(v: f64) -> usize {
        let bucket = v.to_bits() >> (52 - SUB_BITS);
        bucket
            .saturating_sub(INDEX_BASE)
            .min(Self::BIN_COUNT as u64 - 1) as usize
    }

    /// Records one sample, seconds. O(1), allocation-free. Samples must
    /// be finite and non-negative (the engine's latencies always are);
    /// zero lands in the smallest bin.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.bins[Self::index_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Folds `other` into `self` (bin-wise; exact fields combine exactly).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The windowed delta between this histogram and an `earlier`
    /// snapshot of the *same* histogram: bin counts and totals subtract
    /// exactly, so `earlier.merge(&delta)` reproduces the current bins
    /// and count bit-for-bit (the merge-consistency contract the
    /// regression test certifies).
    ///
    /// A snapshot is just a [`Clone`] — the bin array is a fixed-size
    /// `Vec<u64>`, so snapshotting is one memcpy and the delta is one
    /// pass of subtractions. `min`/`max` of the window are not recoverable
    /// from two cumulative snapshots; the delta reports the covering bin
    /// edges of its own nonzero range instead, which keeps quantiles
    /// within the histogram's documented ~1% relative error.
    #[must_use]
    pub fn delta_since(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        debug_assert!(
            self.count >= earlier.count,
            "delta_since: earlier snapshot is newer than self"
        );
        let mut out = LatencyHistogram::new();
        let mut first = None;
        let mut last = None;
        for (i, (a, b)) in self.bins.iter().zip(&earlier.bins).enumerate() {
            debug_assert!(a >= b, "delta_since: bin {i} shrank");
            let d = a.saturating_sub(*b);
            out.bins[i] = d;
            if d > 0 {
                if first.is_none() {
                    first = Some(i);
                }
                last = Some(i);
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = if out.count > 0 {
            self.sum - earlier.sum
        } else {
            0.0
        };
        if let (Some(lo), Some(hi)) = (first, last) {
            // Bin-edge bounds on the window's true extremes: the smallest
            // delta sample is ≥ lower(lo) and the largest ≤ lower(hi+1).
            out.min = Self::bin_lower(lo);
            out.max = Self::bin_lower(hi + 1);
        }
        out
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The live bin-array length — always [`Self::BIN_COUNT`], however
    /// many samples were recorded (the memory-flatness guarantee the
    /// regression tests assert).
    #[must_use]
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Exact minimum (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count > 0 {
            self.min
        } else {
            0.0
        }
    }

    /// Exact maximum (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count > 0 {
            self.max
        } else {
            0.0
        }
    }

    /// The lower edge of global bin `i`.
    fn bin_lower(i: usize) -> f64 {
        let exp = MIN_EXP + (i / SUB_BUCKETS) as i32;
        let sub = (i % SUB_BUCKETS) as f64;
        (exp as f64).exp2() * (1.0 + sub / SUB_BUCKETS as f64)
    }

    /// The nearest-rank `q`-quantile (0 < q ≤ 1), reported as the
    /// containing bin's midpoint and clamped to the exact `[min, max]`.
    /// Within the documented ~1% relative error of the sorted-sample
    /// quantile. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Same nearest-rank convention as `LatencySummary::from_samples`.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lower = Self::bin_lower(i);
                let upper = Self::bin_lower(i + 1);
                return (0.5 * (lower + upper)).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Order statistics of a latency sample, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// 99.9th percentile.
    pub p999_s: f64,
    /// Mean.
    pub mean_s: f64,
    /// Minimum.
    pub min_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes a sample (sorts `samples` in place). Returns the default
    /// all-zero summary for an empty sample.
    #[must_use]
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| {
            // nearest-rank percentile
            let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[idx - 1]
        };
        LatencySummary {
            p50_s: pick(0.50),
            p95_s: pick(0.95),
            p99_s: pick(0.99),
            p999_s: pick(0.999),
            mean_s: samples.iter().sum::<f64>() / samples.len() as f64,
            min_s: samples[0],
            max_s: samples[samples.len() - 1],
        }
    }

    /// Summarizes a streaming histogram: quantiles within the histogram's
    /// ~1% relative error bound; mean/min/max exact. Returns the default
    /// all-zero summary for an empty histogram (same NaN-free degradation
    /// as the empty-sample path).
    #[must_use]
    pub fn from_histogram(hist: &LatencyHistogram) -> Self {
        if hist.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_s: hist.quantile(0.50),
            p95_s: hist.quantile(0.95),
            p99_s: hist.quantile(0.99),
            p999_s: hist.quantile(0.999),
            mean_s: hist.mean(),
            min_s: hist.min(),
            max_s: hist.max(),
        }
    }
}

/// Per-class slice of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class name.
    pub name: String,
    /// Requests of this class admitted.
    pub admitted: u64,
    /// Requests of this class completed.
    pub completed: u64,
    /// Requests of this class deliberately dropped from the queue by the
    /// control plane (load shedding) after admission.
    pub shed: u64,
    /// Requests of this class admitted but never served and not shed —
    /// stranded at end of run (fault-caused or backlog). Per class,
    /// `admitted = completed + unserved + shed`.
    pub unserved: u64,
    /// Fraction of completed requests that met their SLO deadline.
    pub slo_attainment: f64,
    /// Completions quoted at or above the class's
    /// [`min_accuracy`](crate::workload::NetworkClass::min_accuracy)
    /// floor. Per class, `on_accuracy + below_accuracy = completed` —
    /// the accuracy ledger partitions completions exactly as the SLO
    /// ledger does.
    pub on_accuracy: u64,
    /// Completions quoted **below** the class's accuracy floor — served
    /// anyway because accuracy routing was off (or no compliant
    /// instance existed when routing chose). Distinct from late: a
    /// request can be on time yet below accuracy, or both.
    pub below_accuracy: u64,
    /// Fraction of completed requests served at or above the class's
    /// accuracy floor (`on_accuracy / completed`; 0 when none
    /// completed, the same convention as `slo_attainment`).
    pub accuracy_attainment: f64,
    /// Latency order statistics.
    pub latency: LatencySummary,
    /// The class's full latency histogram. Exact under merge: the
    /// histogram of a sharded run equals the bin-wise sum of its parts,
    /// so downstream consumers (the telemetry timeline, offline
    /// analysis) can re-window or re-quantile without re-running.
    pub histogram: LatencyHistogram,
}

/// Resilience accounting for a run with a fault timeline. All-zero
/// (with availability 1.0) for a pristine run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceStats {
    /// Fault-timeline events applied.
    pub fault_events: u64,
    /// Hard failures ([`FaultAction::Fail`](crate::faults::FaultAction)).
    pub hard_failures: u64,
    /// Recalibration windows actually taken.
    pub recalibrations: u64,
    /// Instance-seconds spent in recalibration windows.
    pub recal_downtime_s: f64,
    /// Total instance-seconds offline (failures + recalibrations).
    pub offline_s: f64,
    /// Mean fraction of instance-time the fleet was in service:
    /// `1 − offline / (makespan · instances)`.
    pub availability: f64,
    /// Requests failed over: aborted with their batch on a hard
    /// failure and requeued (served later by another instance —
    /// conservation holds).
    pub failed_over: u64,
    /// Quote re-derivations triggered by health changes.
    pub requotes: u64,
    /// Admitted requests deliberately dropped from the queue by the
    /// control plane (load shedding). Distinct from `unserved`: shed
    /// requests were sacrificed by policy, not stranded by faults.
    pub shed: u64,
    /// Admitted requests left unserved because no instance could take
    /// them before the run ended (every survivor drained; conservation:
    /// `admitted = completed + unserved + shed`).
    pub unserved: u64,
    /// Completions served below their class's accuracy floor (summed
    /// over classes; see [`ClassReport::below_accuracy`]). Zero under
    /// accuracy routing unless a floor was violated mid-flight.
    pub below_accuracy: u64,
}

impl Default for ResilienceStats {
    fn default() -> Self {
        ResilienceStats {
            fault_events: 0,
            hard_failures: 0,
            recalibrations: 0,
            recal_downtime_s: 0.0,
            offline_s: 0.0,
            availability: 1.0,
            failed_over: 0,
            requotes: 0,
            shed: 0,
            unserved: 0,
            below_accuracy: 0,
        }
    }
}

impl ResilienceStats {
    /// Folds `other`'s **additive ledgers** into `self`: event counts,
    /// downtime/offline seconds, failover/requote/unserved counts. The
    /// shard merge calls this once per cell, in cell order.
    ///
    /// `availability` is deliberately **not** merged — it is a ratio
    /// against the fleet-wide makespan and instance count, which no
    /// single shard knows; the caller recomputes it from the merged
    /// `offline_s` (`1 − offline / (makespan · instances)`). Until
    /// then `self.availability` keeps its prior value.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.fault_events += other.fault_events;
        self.hard_failures += other.hard_failures;
        self.recalibrations += other.recalibrations;
        self.recal_downtime_s += other.recal_downtime_s;
        self.offline_s += other.offline_s;
        self.failed_over += other.failed_over;
        self.requotes += other.requotes;
        self.shed += other.shed;
        self.unserved += other.unserved;
        self.below_accuracy += other.below_accuracy;
    }
}

/// The result of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Requests generated by the arrival process within the horizon.
    pub offered: u64,
    /// Requests admitted to the queue (offered − rejected).
    pub admitted: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches that had to reprogram the instance's MRR weight bank (the
    /// instance held a different network's weights).
    pub weight_reloads: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch: f64,
    /// Wall-clock span of the simulation: last completion (or last
    /// arrival), seconds.
    pub makespan_s: f64,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// Mean fraction of the makespan instances spent serving batches.
    pub utilization: f64,
    /// Batches served by each instance (placement visibility for
    /// heterogeneous fleets).
    pub per_instance_batches: Vec<u64>,
    /// Fraction of completed requests that met their SLO deadline.
    pub slo_attainment: f64,
    /// Total service energy, joules (weight reprogramming + per-frame).
    pub energy_j: f64,
    /// Energy per completed request, joules.
    pub energy_per_request_j: f64,
    /// Fraction of completed requests served at or above their class's
    /// accuracy floor (`Σ on_accuracy / completed`; 0 when nothing
    /// completed, the `slo_attainment` convention). Whenever every
    /// floor is 0 this is 1.0 for any non-empty run — the pre-accuracy
    /// scenarios report full attainment.
    pub accuracy_attainment: f64,
    /// Latency order statistics over all completed requests.
    pub latency: LatencySummary,
    /// Per-class breakdown.
    pub per_class: Vec<ClassReport>,
    /// Resilience accounting (all-zero, availability 1.0, when the
    /// scenario carried no fault timeline).
    pub resilience: ResilienceStats,
}

impl FleetReport {
    /// Renders a compact human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "offered {}  admitted {}  rejected {}  completed {}  \
             batches {} (mean {:.1}, {} weight reloads)\n",
            self.offered,
            self.admitted,
            self.rejected,
            self.completed,
            self.batches,
            self.mean_batch,
            self.weight_reloads
        ));
        out.push_str(&format!(
            "throughput {:.0} req/s  utilization {:.1}%  SLO attainment {:.2}%  \
             energy/request {:.3} mJ\n",
            self.throughput_rps,
            100.0 * self.utilization,
            100.0 * self.slo_attainment,
            1e3 * self.energy_per_request_j
        ));
        out.push_str(&format!(
            "latency  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  p999 {:.3} ms  \
             max {:.3} ms\n",
            1e3 * self.latency.p50_s,
            1e3 * self.latency.p95_s,
            1e3 * self.latency.p99_s,
            1e3 * self.latency.p999_s,
            1e3 * self.latency.max_s
        ));
        let r = &self.resilience;
        if r.fault_events > 0 || r.unserved > 0 || r.shed > 0 || r.below_accuracy > 0 {
            out.push_str(&format!(
                "faults {} (hard {}, recals {})  availability {:.2}%  \
                 failed-over {}  shed {}  unserved {}  below-accuracy {}  \
                 recal downtime {:.3} ms\n",
                r.fault_events,
                r.hard_failures,
                r.recalibrations,
                100.0 * r.availability,
                r.failed_over,
                r.shed,
                r.unserved,
                r.below_accuracy,
                1e3 * r.recal_downtime_s
            ));
        }
        if self.per_class.iter().any(|c| c.below_accuracy > 0)
            || (self.accuracy_attainment < 1.0 && self.completed > 0)
        {
            out.push_str(&format!(
                "accuracy attainment {:.2}%  below-accuracy {}\n",
                100.0 * self.accuracy_attainment,
                self.per_class.iter().map(|c| c.below_accuracy).sum::<u64>()
            ));
        }
        for c in &self.per_class {
            out.push_str(&format!(
                "  {:<12} admitted {:<8} completed {:<8} shed {:<6} \
                 unserved {:<6} SLO {:.2}%  acc {:.2}%  p50 {:.3} ms  p99 {:.3} ms\n",
                c.name,
                c.admitted,
                c.completed,
                c.shed,
                c.unserved,
                100.0 * c.slo_attainment,
                100.0 * c.accuracy_attainment,
                1e3 * c.latency.p50_s,
                1e3 * c.latency.p99_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let mut s: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let l = LatencySummary::from_samples(&mut s);
        assert_eq!(l.p50_s, 500.0);
        assert_eq!(l.p95_s, 950.0);
        assert_eq!(l.p99_s, 990.0);
        assert_eq!(l.p999_s, 999.0);
        assert_eq!(l.min_s, 1.0);
        assert_eq!(l.max_s, 1000.0);
        assert!((l.mean_s - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = vec![0.4, 0.1, 9.0, 0.2, 0.3, 0.25, 1.0];
        let l = LatencySummary::from_samples(&mut s);
        assert!(l.min_s <= l.p50_s);
        assert!(l.p50_s <= l.p95_s);
        assert!(l.p95_s <= l.p99_s);
        assert!(l.p99_s <= l.p999_s);
        assert!(l.p999_s <= l.max_s);
    }

    #[test]
    fn empty_sample_is_zeroed() {
        let l = LatencySummary::from_samples(&mut []);
        assert_eq!(l, LatencySummary::default());
        // and every field of the default is finite (renderable as-is)
        for v in [
            l.p50_s, l.p95_s, l.p99_s, l.p999_s, l.mean_s, l.min_s, l.max_s,
        ] {
            assert!(v.is_finite());
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn histogram_merge_of_parts_equals_whole() {
        // Split one sample set across four part-histograms, merge them,
        // and compare against recording the whole set into one — and
        // against the exact sort-based reference. Bins, counts, min,
        // and max are integers/exact fields, so the merge must agree
        // exactly; every reported quantile (a pure function of those)
        // must be *identical*, not merely close.
        let samples: Vec<f64> = (0..2_000)
            .map(|i| 1e-4 * (1.0 + (i as f64 * 0.37).sin().abs()) + i as f64 * 1e-7)
            .collect();
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = LatencyHistogram::new();
        for part_idx in 0..4 {
            let mut part = LatencyHistogram::new();
            for (i, &s) in samples.iter().enumerate() {
                if i % 4 == part_idx {
                    part.record(s);
                }
            }
            merged.merge(&part);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        // mean uses an f64 sum whose grouping differs; exact-value
        // agreement is within rounding only
        assert!((merged.mean() - whole.mean()).abs() <= 1e-12 * whole.mean().abs().max(1.0));
        // and both agree with the exact sort-based reference within the
        // histogram's documented 1% bound
        let mut sorted = samples.clone();
        let exact = LatencySummary::from_samples(&mut sorted);
        let approx = LatencySummary::from_histogram(&merged);
        for (a, e) in [
            (approx.p50_s, exact.p50_s),
            (approx.p95_s, exact.p95_s),
            (approx.p99_s, exact.p99_s),
            (approx.p999_s, exact.p999_s),
        ] {
            assert!((a - e).abs() <= 0.01 * e, "merged {a} vs exact {e}");
        }
        assert_eq!(approx.min_s, exact.min_s);
        assert_eq!(approx.max_s, exact.max_s);
    }

    #[test]
    fn resilience_merge_of_parts_equals_whole() {
        let whole = ResilienceStats {
            fault_events: 10,
            hard_failures: 3,
            recalibrations: 4,
            recal_downtime_s: 0.25,
            offline_s: 1.5,
            availability: 1.0,
            failed_over: 96,
            requotes: 12,
            shed: 9,
            unserved: 7,
            below_accuracy: 8,
        };
        // split the ledgers into two parts and merge them back
        let a = ResilienceStats {
            fault_events: 6,
            hard_failures: 1,
            recalibrations: 3,
            recal_downtime_s: 0.125,
            offline_s: 0.75,
            availability: 1.0,
            failed_over: 40,
            requotes: 5,
            shed: 3,
            unserved: 2,
            below_accuracy: 3,
        };
        let b = ResilienceStats {
            fault_events: 4,
            hard_failures: 2,
            recalibrations: 1,
            recal_downtime_s: 0.125,
            offline_s: 0.75,
            availability: 0.5, // must NOT leak into the merge target
            failed_over: 56,
            requotes: 7,
            shed: 6,
            unserved: 5,
            below_accuracy: 5,
        };
        let mut merged = ResilienceStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.fault_events, whole.fault_events);
        assert_eq!(merged.hard_failures, whole.hard_failures);
        assert_eq!(merged.recalibrations, whole.recalibrations);
        assert_eq!(merged.recal_downtime_s, whole.recal_downtime_s);
        assert_eq!(merged.offline_s, whole.offline_s);
        assert_eq!(merged.failed_over, whole.failed_over);
        assert_eq!(merged.requotes, whole.requotes);
        assert_eq!(merged.shed, whole.shed);
        assert_eq!(merged.unserved, whole.unserved);
        assert_eq!(merged.below_accuracy, whole.below_accuracy);
        // availability untouched by merge (recomputed by the caller)
        assert_eq!(merged.availability, 1.0);
    }

    #[test]
    fn histogram_delta_since_is_merge_consistent() {
        // Record a first batch, snapshot, record a second batch, and take
        // the delta. The delta's bins and count must reproduce exactly
        // what merging it back onto the snapshot yields — the windowed
        // snapshot/delta contract the control-plane observer relies on.
        let mut hist = LatencyHistogram::new();
        for i in 0..1_500 {
            hist.record(1e-4 * (1.0 + (i as f64 * 0.61).sin().abs()));
        }
        let snapshot = hist.clone();
        let mut window_only = LatencyHistogram::new();
        for i in 0..700 {
            let v = 2.5e-3 * (1.0 + (i as f64 * 0.17).cos().abs());
            hist.record(v);
            window_only.record(v);
        }
        let delta = hist.delta_since(&snapshot);
        assert_eq!(delta.count(), 700);
        // merge-consistency: snapshot ⊕ delta == current, exactly
        let mut rebuilt = snapshot.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt.count(), hist.count());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(rebuilt.quantile(q), hist.quantile(q), "q={q}");
        }
        // the delta's quantiles match a histogram recorded only over the
        // window, exactly: identical bins, and min/max bin edges bracket
        // the true extremes within one bin (≤1% relative)
        for q in [0.5, 0.99] {
            let d = delta.quantile(q);
            let w = window_only.quantile(q);
            assert!((d - w).abs() <= 0.01 * w, "delta {d} vs window {w}");
        }
        assert!(delta.min() <= window_only.min());
        assert!(delta.max() >= window_only.max());
        assert!(delta.min() >= window_only.min() * (1.0 - 0.01));
        assert!(delta.max() <= window_only.max() * (1.0 + 0.01));
        // empty delta degrades like an empty histogram
        let none = hist.delta_since(&hist.clone());
        assert!(none.is_empty());
        assert_eq!(none.quantile(0.99), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = vec![0.042];
        let l = LatencySummary::from_samples(&mut s);
        assert_eq!(l.p50_s, 0.042);
        assert_eq!(l.p999_s, 0.042);
        assert_eq!(l.max_s, 0.042);
    }
}
