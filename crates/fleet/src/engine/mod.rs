//! The discrete-event fleet engine, sharded.
//!
//! The engine is split into four layers:
//!
//! * [`core`](self) *(private module)* — the event loop itself:
//!   per-class bounded admission queues, greedy completion-earliest
//!   placement, memoized `Copy` quotes, zero steady-state allocation,
//!   and the full degradation/failover protocol (degrade ⇒ requote,
//!   hard failure ⇒ abort + front-of-queue failover + time/energy
//!   refund, recalibration ⇒ drain/offline/re-lock). Refactored from
//!   the old closed loop into a resumable *cell* so the same code
//!   serves both execution shapes below.
//! * [`wheel`] — the future-event sets: `std`'s binary heap on the
//!   integer key `(time bits, instance, epoch)`, cancellation by epoch
//!   token. It replaced an octave-bucketed radix wheel whose O(1)
//!   never paid off at a cell's depth (at most one completion per
//!   instance): its f64-bit keys cascaded through many levels, where
//!   the heap sifts O(log n) integer keys. Pop order is the same, so
//!   the swap changed no simulation result.
//! * [`shard`] — the scale-out layer: a deterministic [`ShardPlan`]
//!   partitions classes and instances into up to
//!   [`ShardPlan::MAX_CELLS`] (1024) independent cells, and the one
//!   arrival driver every run uses routes the exact whole-fleet stream
//!   to them in windows, on the calling thread or on threads that
//!   claim cells window by window, with the control loop as an optional
//!   window hook. Same seed ⇒ bit-identical report at every shard and
//!   thread count.
//! * `merge` *(private module)* — folds per-cell outcomes into one
//!   [`FleetReport`] in canonical (cell-index, class-index) order,
//!   which is what makes the merged report independent of scheduling.
//!
//! [`FleetScenario::simulate`] runs the whole fleet as **one** cell —
//! the pre-shard engine, event for event — and remains the reference
//! semantics (global placement, global admission bound).
//! [`FleetScenario::simulate_sharded`] trades global placement for
//! within-run parallelism and O(cell)-sized dispatch scans; on a
//! single-class (or single-instance) scenario the two coincide exactly.
//!
//! ## Dispatch (per cell)
//!
//! Dispatch is greedy: when an instance frees up (or a request arrives
//! to an idle fleet), the scheduling policy picks a class, a batch of up
//! to `max_batch` same-class requests is popped, and the batch runs on
//! the idle instance that would *complete it earliest* (fastest-available
//! placement under heterogeneity). A batch's cost is the quote's affine
//! model — `weight_load + n · per_frame` — with one scenario-controlled
//! exception: under [`FleetScenario::resident_weights`] an instance that
//! just served a network keeps its weights programmed, so a same-network
//! follow-up batch skips the `weight_load` phase (see the field's doc for
//! the hardware assumption this encodes).

pub(crate) mod core;
pub(crate) mod merge;
pub mod shard;
pub mod wheel;

pub use shard::ShardPlan;
pub use wheel::{EventTime, TimingWheel};

use crate::faults::FaultTimeline;
use crate::metrics::FleetReport;
use crate::par::spare_thread;
use crate::scheduler::Policy;
use crate::telemetry::NullSink;
use crate::workload::{ArrivalProcess, NetworkClass};
use crate::{FleetError, Result};
use pcnna_core::config::PcnnaConfig;
use pcnna_core::power::PowerAssumptions;
use pcnna_core::serving::{service_quote, QuoteRequest, ServiceQuote};
use pcnna_photonics::degradation::DegradationLimits;

use self::shard::NoHook;

/// A complete serving experiment description.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// The served networks with SLOs and traffic weights.
    pub classes: Vec<NetworkClass>,
    /// Request arrival process.
    pub arrival: ArrivalProcess,
    /// Batching admission policy.
    pub policy: Policy,
    /// One config per accelerator instance (heterogeneous fleets allowed).
    pub instances: Vec<PcnnaConfig>,
    /// Power assumptions used for the energy quotes.
    pub assumptions: PowerAssumptions,
    /// Largest batch a single dispatch may carry.
    pub max_batch: u64,
    /// Admission bound: arrivals beyond this queue depth are rejected.
    /// (The sharded engine slices this bound across its cells in
    /// proportion to traffic weight.)
    pub queue_capacity: usize,
    /// Weight-residency assumption. The paper's design has **one**
    /// physical MRR bank that is serially reprogrammed per layer per
    /// batch — under that reading (`false`) every batch pays the full
    /// `weight_load` phase and network affinity degenerates to depth-first
    /// service. `true` (the default) models a deployment extension where
    /// each instance provisions enough banks to keep one whole network's
    /// weights resident, so a same-network follow-up batch skips the
    /// reprogramming phase — the amortization the affinity policy targets.
    pub resident_weights: bool,
    /// Arrivals are generated for this long, seconds.
    pub horizon_s: f64,
    /// RNG seed (arrivals + class sampling).
    pub seed: u64,
    /// Timed hardware fault schedule (empty = pristine hardware).
    pub faults: FaultTimeline,
    /// Serviceability envelope used when requoting degraded instances.
    pub limits: DegradationLimits,
    /// Accuracy-aware dispatch. When `true`, an instance whose quoted
    /// top-1 accuracy has drifted below a class's
    /// [`NetworkClass::min_accuracy`] is treated as unserviceable *for
    /// that class*: dispatch routes the class's batches to instances
    /// that still meet the floor, and if none remain the requests are
    /// counted unserved (refusing beats serving garbage). When `false`
    /// (the default) accuracy is still quoted and *accounted* —
    /// completions below the floor land in the served-below-accuracy
    /// ledger — but routing ignores it, which is the pre-accuracy
    /// behavior bit for bit.
    pub accuracy_routing: bool,
}

impl Default for FleetScenario {
    fn default() -> Self {
        FleetScenario {
            classes: vec![NetworkClass::alexnet(0.050, 1.0)],
            arrival: ArrivalProcess::Poisson { rate_rps: 1000.0 },
            policy: Policy::Fifo,
            instances: vec![PcnnaConfig::default()],
            assumptions: PowerAssumptions::default(),
            max_batch: 32,
            queue_capacity: 10_000,
            resident_weights: true,
            horizon_s: 1.0,
            seed: 0,
            faults: FaultTimeline::new(),
            limits: DegradationLimits::default(),
            accuracy_routing: false,
        }
    }
}

/// The most classes a scenario may serve: 64× the 16 classes of the
/// largest in-repo workload (the mega-fleet legs).
pub const MAX_CLASSES: usize = 1024;

/// The most requests a scenario may expect, `horizon_s` × the arrival
/// process's peak rate: 50× the 2M of the largest in-repo workload (the
/// full-mode 1k-instance mega leg, 10M req/s for 0.2 s). A run's
/// arrivals, and so its wall time, are bounded with it.
pub const MAX_EXPECTED_REQUESTS: f64 = 1e8;

/// The rules a scenario file and an API-built [`FleetScenario`] share,
/// written once for both validators. `classes` yields each class's
/// `(name, slo_s, weight, min_accuracy)`. The reason names the field.
pub(crate) fn validate_common<'c>(
    classes: impl ExactSizeIterator<Item = (&'c str, f64, f64, f64)>,
    arrival: &ArrivalProcess,
    max_batch: u64,
    queue_capacity: usize,
    horizon_s: f64,
    limits: &DegradationLimits,
) -> Result<()> {
    let fail = |reason: String| Err(FleetError::InvalidScenario { reason });
    let n = classes.len();
    if n == 0 || n > MAX_CLASSES {
        return fail(format!(
            "classes: {n} classes, need 1 to MAX_CLASSES ({MAX_CLASSES})"
        ));
    }
    for (i, (name, slo_s, weight, min_accuracy)) in classes.enumerate() {
        for (field, v) in [("slo_s", slo_s), ("weight", weight)] {
            if !(v > 0.0) || !v.is_finite() {
                return fail(format!(
                    "classes[{i}] ({name}) {field} must be finite and positive, got {v}"
                ));
            }
        }
        if !(0.0..=1.0).contains(&min_accuracy) {
            return fail(format!(
                "classes[{i}] ({name}) min_accuracy must be in [0, 1], got {min_accuracy}"
            ));
        }
    }
    if max_batch == 0 {
        return fail("max_batch must be at least 1".to_owned());
    }
    if queue_capacity == 0 {
        return fail("queue_capacity must be at least 1 (0 rejects everything)".to_owned());
    }
    if !(horizon_s > 0.0) || !horizon_s.is_finite() {
        return fail(format!(
            "horizon_s must be finite and positive, got {horizon_s}"
        ));
    }
    if let Err(reason) = arrival.validate() {
        return fail(format!("arrival {reason}"));
    }
    let expected = horizon_s * arrival.peak_rate_rps();
    if expected > MAX_EXPECTED_REQUESTS {
        return fail(format!(
            "horizon_s × arrival peak rate expects {expected:e} requests, past \
             MAX_EXPECTED_REQUESTS ({MAX_EXPECTED_REQUESTS:e})"
        ));
    }
    let excursion = limits.max_ambient_excursion_k;
    if !(excursion >= 0.0) || !excursion.is_finite() {
        return fail(format!(
            "limits.max_ambient_excursion_k must be finite and non-negative, got {excursion}"
        ));
    }
    if !(0.0..=1.0).contains(&limits.min_laser_power_factor) {
        return fail(format!(
            "limits.min_laser_power_factor must be in [0, 1], got {}",
            limits.min_laser_power_factor
        ));
    }
    Ok(())
}

impl FleetScenario {
    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] naming the field: the
    /// shared rules of a scenario file (class count, SLOs, weights and
    /// accuracy floors, batch and queue bounds, horizon, arrival rates,
    /// [`MAX_EXPECTED_REQUESTS`], limits), no instances, a class with no
    /// layers, or a bad fault timeline.
    pub fn validate(&self) -> Result<()> {
        let classes = self.classes.iter();
        validate_common(
            classes.map(|c| (c.name.as_str(), c.slo_s, c.weight, c.min_accuracy)),
            &self.arrival,
            self.max_batch,
            self.queue_capacity,
            self.horizon_s,
            &self.limits,
        )?;
        let fail = |reason: String| Err(FleetError::InvalidScenario { reason });
        if self.instances.is_empty() {
            return fail("need at least one accelerator instance".to_owned());
        }
        if let Some((i, c)) = self
            .classes
            .iter()
            .enumerate()
            .find(|(_, c)| c.layers.is_empty())
        {
            // An empty stack quotes to zero time and energy — every
            // request would "complete" instantly and poison the stats.
            return fail(format!("classes[{i}] ({}) has no conv layers", c.name));
        }
        if let Err(reason) = self.faults.validate(self.instances.len()) {
            return fail(reason);
        }
        Ok(())
    }

    /// Memoizes the `instances × classes` quote table.
    ///
    /// Identical configs share one quoted row: a homogeneous
    /// 10k-instance fleet pays the same setup cost as a 1-instance one
    /// (the analytical model runs once per *distinct* config, not per
    /// instance — the difference between milliseconds and whole seconds
    /// of setup at datacenter scale).
    ///
    /// # Errors
    ///
    /// Propagates config/resource failures from the core models, and
    /// returns [`FleetError::UnquotableConfig`] naming the config and
    /// class when nominal hardware has no quote.
    pub fn quote_table(&self) -> Result<QuoteTable> {
        let mut rows: Vec<Vec<ServiceQuote>> = Vec::new();
        let mut row_of: Vec<u32> = Vec::with_capacity(self.instances.len());
        // First-seen index per distinct config. Linear scan: real fleets
        // carry a handful of config variants, so this stays O(instances).
        let mut distinct: Vec<usize> = Vec::new();
        for (i, config) in self.instances.iter().enumerate() {
            if let Some(pos) = distinct.iter().position(|&j| self.instances[j] == *config) {
                row_of.push(pos as u32);
            } else {
                config.validate()?;
                let mut row = Vec::with_capacity(self.classes.len());
                for (c, class) in self.classes.iter().enumerate() {
                    let layers = class.layer_refs();
                    let request = QuoteRequest::new(config, &self.assumptions, &layers);
                    let quote = service_quote(&request)?.ok_or(FleetError::UnquotableConfig {
                        config: i,
                        class: c,
                    })?;
                    row.push(quote.quote);
                }
                row_of.push(distinct.len() as u32);
                distinct.push(i);
                rows.push(row);
            }
        }
        Ok(QuoteTable { rows, row_of })
    }

    /// Runs the simulation to completion (arrivals stop at the horizon; the
    /// queue then drains, so every admitted request completes).
    ///
    /// This is the whole-fleet reference engine: one cell owning every
    /// class and instance — global placement, global admission bound.
    /// The cell runs on the calling thread; on a host with two cores a
    /// second thread draws the arrival stream, the same stream request
    /// for request (`engine::shard`, "One driver"). For within-run
    /// parallelism and large fleets see
    /// [`simulate_sharded`](Self::simulate_sharded).
    ///
    /// # Errors
    ///
    /// Returns scenario-validation or core quoting failures.
    pub fn simulate(&self) -> Result<FleetReport> {
        self.validate()?;
        let quotes = self.quote_table()?;
        let whole = ShardPlan::whole_fleet(self);
        let producer = spare_thread(usize::MAX, whole.n_cells());
        let (outcomes, _, _) = self.drive(&quotes, &whole, 1, producer, |_| NullSink, NoHook)?;
        Ok(merge::assemble(self, &outcomes))
    }
}

/// Memoized per-(instance, class) service quotes.
///
/// Stored struct-of-arrays style: one quote row per **distinct** config
/// plus a per-instance row index, so a homogeneous 100k-instance fleet
/// carries one row, not 100k copies — the memory term that used to
/// dominate planet-scale scenarios.
#[derive(Debug, Clone)]
pub struct QuoteTable {
    /// One row (quotes for every class, in class order) per distinct
    /// config, in first-seen instance order.
    rows: Vec<Vec<ServiceQuote>>,
    /// Row index of each instance's quotes.
    row_of: Vec<u32>,
}

impl QuoteTable {
    /// The quote for `class` on `instance`.
    #[must_use]
    pub fn get(&self, instance: usize, class: usize) -> ServiceQuote {
        self.rows[self.row_of[instance] as usize][class]
    }

    /// Number of distinct quote rows (one per distinct config).
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The distinct-row index holding `instance`'s quotes.
    #[must_use]
    pub fn row_index(&self, instance: usize) -> usize {
        self.row_of[instance] as usize
    }

    /// One distinct row: the quotes for every class, in class order.
    #[must_use]
    pub fn row(&self, row: usize) -> &[ServiceQuote] {
        &self.rows[row]
    }

    /// The fleet's fastest marginal service time, seconds — the
    /// cross-shard lookahead floor the threaded driver derives its
    /// window from. `f64::INFINITY` on an empty table.
    #[must_use]
    pub fn min_per_frame_s(&self) -> f64 {
        self.rows
            .iter()
            .flatten()
            .map(|q| q.per_frame.as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LatencySummary, ResilienceStats};
    use pcnna_photonics::degradation::HealthState;

    fn small_scenario() -> FleetScenario {
        FleetScenario {
            classes: vec![
                NetworkClass::alexnet(0.050, 1.0),
                NetworkClass::lenet5(0.010, 2.0),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: 3000.0 },
            policy: Policy::Fifo,
            instances: vec![PcnnaConfig::default(); 2],
            horizon_s: 0.25,
            seed: 9,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn every_admitted_request_completes() {
        let r = small_scenario().simulate().unwrap();
        assert!(r.offered > 0);
        assert_eq!(r.offered, r.admitted + r.rejected);
        assert_eq!(r.admitted, r.completed);
    }

    #[test]
    fn report_is_internally_consistent() {
        let r = small_scenario().simulate().unwrap();
        assert!(r.throughput_rps > 0.0);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.latency.p50_s <= r.latency.p99_s);
        assert!(r.energy_per_request_j > 0.0);
        let class_total: u64 = r.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(class_total, r.completed);
        assert!((0.0..=1.0).contains(&r.slo_attainment));
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let r = FleetScenario {
            arrival: ArrivalProcess::Poisson {
                rate_rps: 100_000.0,
            },
            queue_capacity: 64,
            horizon_s: 0.05,
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert!(r.rejected > 0, "overload should shed load");
        assert_eq!(r.offered, r.admitted + r.rejected);
        assert_eq!(r.admitted, r.completed);
    }

    #[test]
    fn heterogeneous_fleet_prefers_faster_instance() {
        // One instance with 10 DACs, one with 40 (≈4× faster input path):
        // completion-earliest placement must route more batches to the
        // faster instance (index 1) whenever both are idle. A single class
        // keeps weight residency symmetric, so only hardware speed decides
        // (with mixed classes a slow-but-loaded instance can legitimately
        // beat a fast one that would have to reprogram).
        let fast = PcnnaConfig::default().with_input_dacs(40);
        let r = FleetScenario {
            classes: vec![NetworkClass::alexnet(0.050, 1.0)],
            arrival: ArrivalProcess::Poisson { rate_rps: 3_000.0 },
            instances: vec![PcnnaConfig::default(), fast],
            horizon_s: 0.25,
            seed: 9,
            ..FleetScenario::default()
        }
        .simulate()
        .unwrap();
        assert_eq!(r.admitted, r.completed);
        assert_eq!(r.per_instance_batches.len(), 2);
        assert!(
            r.per_instance_batches[1] > r.per_instance_batches[0],
            "fast instance served {} batches vs slow {}",
            r.per_instance_batches[1],
            r.per_instance_batches[0]
        );
    }

    #[test]
    fn single_bank_mode_reloads_every_batch() {
        // resident_weights = false is the paper-faithful single-bank
        // reading: every batch pays the reprogramming phase, so reloads
        // equal batches and residency can't be exploited.
        let resident = small_scenario().simulate().unwrap();
        let single_bank = FleetScenario {
            resident_weights: false,
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert_eq!(single_bank.weight_reloads, single_bank.batches);
        assert!(resident.weight_reloads < resident.batches);
        // paying more reloads can't make the fleet faster
        assert!(single_bank.latency.mean_s >= resident.latency.mean_s);
    }

    #[test]
    fn all_policies_serve_everything() {
        for policy in [
            Policy::Fifo,
            Policy::EarliestDeadlineFirst,
            Policy::NetworkAffinity,
        ] {
            let r = FleetScenario {
                policy,
                ..small_scenario()
            }
            .simulate()
            .unwrap();
            assert_eq!(r.admitted, r.completed, "{policy:?}");
        }
    }

    #[test]
    fn all_arrival_processes_run() {
        for arrival in [
            ArrivalProcess::Poisson { rate_rps: 2000.0 },
            ArrivalProcess::Mmpp {
                low_rps: 200.0,
                high_rps: 6000.0,
                dwell_low_s: 0.05,
                dwell_high_s: 0.02,
            },
            ArrivalProcess::Diurnal {
                base_rps: 200.0,
                peak_rps: 5000.0,
                period_s: 0.2,
            },
        ] {
            let r = FleetScenario {
                arrival,
                ..small_scenario()
            }
            .simulate()
            .unwrap();
            assert!(r.completed > 0, "{arrival:?}");
            assert_eq!(r.admitted, r.completed, "{arrival:?}");
        }
    }

    #[test]
    fn zero_arrival_run_reports_finite_zeros() {
        // Regression: a legal scenario can produce no arrivals at all
        // (here: mean inter-arrival 1000 s against a 1 ms horizon). Every
        // report statistic must come out zero/finite — no NaN from 0/0
        // makespans or empty latency samples — and rendering must work.
        let r = FleetScenario {
            arrival: ArrivalProcess::Poisson { rate_rps: 0.001 },
            horizon_s: 0.001,
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert_eq!(r.offered, 0);
        assert_eq!(r.completed, 0);
        for (label, v) in [
            ("makespan", r.makespan_s),
            ("throughput", r.throughput_rps),
            ("utilization", r.utilization),
            ("mean_batch", r.mean_batch),
            ("slo", r.slo_attainment),
            ("energy/req", r.energy_per_request_j),
            ("p50", r.latency.p50_s),
            ("p999", r.latency.p999_s),
            ("mean", r.latency.mean_s),
            ("max", r.latency.max_s),
        ] {
            assert!(v.is_finite(), "{label} is not finite: {v}");
            assert_eq!(v, 0.0, "{label} should be zero on an empty run");
        }
        assert_eq!(r.latency, LatencySummary::default());
        for c in &r.per_class {
            assert_eq!(c.completed, 0);
            assert!(c.slo_attainment.is_finite());
            assert!(c.latency.mean_s.is_finite());
        }
        let rendered = r.render();
        assert!(
            !rendered.contains("NaN") && !rendered.contains("inf"),
            "render leaked a non-finite value:\n{rendered}"
        );
    }

    #[test]
    fn validation_rejects_degenerate_scenarios() {
        let ok = small_scenario();
        assert!(ok.validate().is_ok());
        assert!(FleetScenario {
            classes: vec![],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(FleetScenario {
            instances: vec![],
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(FleetScenario {
            max_batch: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(FleetScenario {
            horizon_s: 0.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(FleetScenario {
            queue_capacity: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        let empty_class = NetworkClass::new("empty", &[], 0.01, 1.0);
        assert!(FleetScenario {
            classes: vec![empty_class],
            ..ok.clone()
        }
        .validate()
        .is_err());
        // (case, the field its reason must name, the edit that breaks it)
        type Edit = fn(&mut FleetScenario);
        let cases: [(&str, &str, Edit); 7] = [
            ("infinite weight", "weight", |s| {
                s.classes[0].weight = f64::INFINITY
            }),
            ("infinite slo", "slo_s", |s| {
                s.classes[0].slo_s = f64::INFINITY
            }),
            ("infinite excursion", "max_ambient_excursion_k", |s| {
                s.limits.max_ambient_excursion_k = f64::INFINITY;
            }),
            ("nan laser floor", "min_laser_power_factor", |s| {
                s.limits.min_laser_power_factor = f64::NAN;
            }),
            ("too many classes", "classes", |s| {
                s.classes = vec![s.classes[0].clone(); MAX_CLASSES + 1];
            }),
            ("too long", "horizon_s", |s| {
                s.horizon_s = 1.01 * MAX_EXPECTED_REQUESTS / s.arrival.peak_rate_rps();
            }),
            ("too fast", "arrival", |s| {
                s.arrival = ArrivalProcess::Poisson {
                    rate_rps: 1.01 * MAX_EXPECTED_REQUESTS / s.horizon_s,
                };
            }),
        ];
        for (label, field, edit) in cases {
            let mut s = ok.clone();
            edit(&mut s);
            match s.validate() {
                Err(FleetError::InvalidScenario { reason }) => {
                    assert!(
                        reason.contains(field),
                        "{label}: {reason:?} must name {field}"
                    );
                }
                other => panic!("{label} must be rejected, got {other:?}"),
            }
        }
        // each cap admits its own value
        let mut at_caps = ok;
        at_caps.classes = vec![at_caps.classes[0].clone(); MAX_CLASSES];
        at_caps.horizon_s = MAX_EXPECTED_REQUESTS / at_caps.arrival.peak_rate_rps();
        assert!(at_caps.validate().is_ok());
    }

    #[test]
    fn pristine_runs_report_default_resilience() {
        let r = small_scenario().simulate().unwrap();
        assert_eq!(r.resilience, ResilienceStats::default());
        assert_eq!(r.resilience.availability, 1.0);
    }

    #[test]
    fn unquotable_config_error_names_the_config_and_class() {
        let e = FleetError::UnquotableConfig {
            config: 3,
            class: 1,
        };
        assert_eq!(
            e.to_string(),
            "instance config 3 has no nominal quote for class 1"
        );
    }

    #[test]
    fn quote_table_dedupes_identical_configs() {
        // A homogeneous fleet must quote one row and share it — same
        // table, whatever the fleet size.
        let small = small_scenario();
        let big = FleetScenario {
            instances: vec![PcnnaConfig::default(); 64],
            ..small.clone()
        };
        let qs = small.quote_table().unwrap();
        let qb = big.quote_table().unwrap();
        for c in 0..small.classes.len() {
            assert_eq!(qs.get(0, c), qb.get(0, c));
            assert_eq!(qb.get(0, c), qb.get(63, c));
        }
        // heterogeneous fleets still quote per distinct config
        let fast = PcnnaConfig::default().with_input_dacs(40);
        let hetero = FleetScenario {
            instances: vec![PcnnaConfig::default(), fast, PcnnaConfig::default()],
            ..small
        };
        let qh = hetero.quote_table().unwrap();
        assert_eq!(qh.get(0, 0), qh.get(2, 0));
        assert_ne!(qh.get(0, 0), qh.get(1, 0));
        assert!(qh.min_per_frame_s() > 0.0);
        assert!(qh.min_per_frame_s().is_finite());
    }

    #[test]
    fn degraded_channels_slow_serving_but_lose_nothing() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        let healthy = small_scenario().simulate().unwrap();
        let r = FleetScenario {
            faults: FaultTimeline::from_events(vec![
                FaultEvent {
                    at_s: 0.0,
                    instance: 0,
                    action: FaultAction::Degrade(HealthState {
                        dead_input_channels: 7,
                        ..HealthState::nominal()
                    }),
                },
                FaultEvent {
                    at_s: 0.0,
                    instance: 1,
                    action: FaultAction::Degrade(HealthState {
                        dead_input_channels: 7,
                        ..HealthState::nominal()
                    }),
                },
            ]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert_eq!(
            r.admitted, r.completed,
            "degradation must not drop requests"
        );
        assert_eq!(r.resilience.fault_events, 2);
        assert!(r.resilience.requotes >= 2);
        assert_eq!(r.resilience.unserved, 0);
        assert!(
            r.latency.mean_s > healthy.latency.mean_s,
            "serving on 3 of 10 DACs must be slower ({} vs {})",
            r.latency.mean_s,
            healthy.latency.mean_s
        );
    }

    #[test]
    fn failed_instance_takes_no_batches_and_work_fails_over() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        let r = FleetScenario {
            faults: FaultTimeline::from_events(vec![FaultEvent {
                at_s: 0.1,
                instance: 0,
                action: FaultAction::Fail,
            }]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        // conservation: the survivor absorbs everything
        assert_eq!(r.offered, r.admitted + r.rejected);
        assert_eq!(r.admitted, r.completed);
        assert_eq!(r.resilience.hard_failures, 1);
        assert!(r.resilience.availability < 1.0);
        // instance 0 served the pre-fault window only; instance 1 the rest
        assert!(
            r.per_instance_batches[1] > r.per_instance_batches[0],
            "survivor {} vs failed {}",
            r.per_instance_batches[1],
            r.per_instance_batches[0]
        );
    }

    #[test]
    fn losing_every_instance_leaves_unserved_requests() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        let events = (0..2)
            .map(|i| FaultEvent {
                at_s: 0.05,
                instance: i,
                action: FaultAction::Fail,
            })
            .collect();
        let r = FleetScenario {
            faults: FaultTimeline::from_events(events),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert!(r.resilience.unserved > 0, "no capacity left ⇒ unserved");
        assert_eq!(r.admitted, r.completed + r.resilience.unserved);
        assert_eq!(r.resilience.hard_failures, 2);
        let rendered = r.render();
        assert!(
            !rendered.contains("NaN") && !rendered.contains("inf"),
            "render leaked a non-finite value:\n{rendered}"
        );
    }

    #[test]
    fn recalibration_drains_and_readmits() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        let r = FleetScenario {
            instances: vec![PcnnaConfig::default()],
            faults: FaultTimeline::from_events(vec![FaultEvent {
                at_s: 0.1,
                instance: 0,
                action: FaultAction::Recalibrate { duration_s: 0.02 },
            }]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert_eq!(r.admitted, r.completed, "drain + re-admit must serve all");
        assert_eq!(r.resilience.recalibrations, 1);
        assert!(r.resilience.recal_downtime_s >= 0.02);
        assert!(r.resilience.availability < 1.0);
        assert_eq!(r.resilience.unserved, 0);
    }

    #[test]
    fn unserviceable_drift_parks_instance_until_recalibrated() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        let over_budget = HealthState {
            ambient_delta_k: 1.0, // far past the 0.2 K default budget
            ..HealthState::nominal()
        };
        let r = FleetScenario {
            faults: FaultTimeline::from_events(vec![
                FaultEvent {
                    at_s: 0.05,
                    instance: 0,
                    action: FaultAction::Degrade(over_budget),
                },
                FaultEvent {
                    at_s: 0.15,
                    instance: 0,
                    action: FaultAction::Recalibrate { duration_s: 0.01 },
                },
            ]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        // everything still completes: the healthy peer carries the load
        // while instance 0 is out, and instance 0 returns re-locked
        assert_eq!(r.admitted, r.completed);
        assert_eq!(r.resilience.recalibrations, 1);
        assert!(r.per_instance_batches[0] > 0, "re-admitted after re-lock");
    }

    #[test]
    fn hard_failure_cancels_an_in_progress_recalibration() {
        use crate::faults::{FaultAction, FaultEvent, FaultTimeline};
        // Regression: a Fail landing inside a recalibration window used
        // to be undone by the window's restore event — the dead
        // instance came back with no repair. The restore must be
        // cancelled: with no healthy peer, requests go unserved.
        let r = FleetScenario {
            instances: vec![PcnnaConfig::default()],
            faults: FaultTimeline::from_events(vec![
                FaultEvent {
                    at_s: 0.05,
                    instance: 0,
                    action: FaultAction::Recalibrate { duration_s: 0.04 },
                },
                FaultEvent {
                    at_s: 0.07,
                    instance: 0,
                    action: FaultAction::Fail,
                },
            ]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert!(
            r.resilience.unserved > 0,
            "the cancelled repair must not resurrect the failed instance"
        );
        assert_eq!(r.admitted, r.completed + r.resilience.unserved);
        // the unelapsed recal window (0.09 − 0.07 = 0.02 s) is refunded
        // from the recalibration ledger — it is failure downtime now
        assert!(
            (r.resilience.recal_downtime_s - 0.02).abs() < 1e-12,
            "recal downtime {} should be the elapsed window only",
            r.resilience.recal_downtime_s
        );
        // a recalibration scheduled *after* the failure still repairs
        let repaired = FleetScenario {
            instances: vec![PcnnaConfig::default()],
            faults: FaultTimeline::from_events(vec![
                FaultEvent {
                    at_s: 0.05,
                    instance: 0,
                    action: FaultAction::Recalibrate { duration_s: 0.04 },
                },
                FaultEvent {
                    at_s: 0.07,
                    instance: 0,
                    action: FaultAction::Fail,
                },
                FaultEvent {
                    at_s: 0.10,
                    instance: 0,
                    action: FaultAction::Recalibrate { duration_s: 0.01 },
                },
            ]),
            ..small_scenario()
        }
        .simulate()
        .unwrap();
        assert_eq!(repaired.resilience.unserved, 0, "repair re-admits");
        assert_eq!(repaired.admitted, repaired.completed);
    }

    #[test]
    fn chaos_runs_reproduce_from_their_seed() {
        use crate::faults::{chaos_timeline, ChaosConfig, ChaosKind};
        let base = small_scenario();
        for kind in ChaosKind::ALL {
            let faults = chaos_timeline(
                kind,
                &base.instances,
                base.horizon_s,
                &ChaosConfig::default(),
            );
            let scenario = FleetScenario {
                faults,
                ..base.clone()
            };
            let a = scenario.simulate().unwrap();
            let b = scenario.simulate().unwrap();
            assert_eq!(a, b, "{kind:?} must be seed-deterministic");
            assert_eq!(a.offered, a.admitted + a.rejected, "{kind:?}");
            assert_eq!(a.admitted, a.completed + a.resilience.unserved, "{kind:?}");
        }
    }

    #[test]
    fn affinity_reprograms_less_than_fifo_under_mixed_load() {
        // More classes than instances with a standing backlog: FIFO must
        // serve the oldest head even when no idle instance holds that
        // network's weights (reprogramming almost every batch), while
        // network affinity keeps instances on the network they already
        // hold. Fewer reloads should also buy throughput, not cost it.
        let base = FleetScenario {
            classes: (0..4).map(|_| NetworkClass::alexnet(0.100, 1.0)).collect(),
            arrival: ArrivalProcess::Poisson { rate_rps: 25_000.0 },
            instances: vec![PcnnaConfig::default(); 2],
            horizon_s: 0.25,
            queue_capacity: 5_000,
            seed: 13,
            ..FleetScenario::default()
        };
        let fifo = FleetScenario {
            policy: Policy::Fifo,
            ..base.clone()
        }
        .simulate()
        .unwrap();
        let affinity = FleetScenario {
            policy: Policy::NetworkAffinity,
            ..base
        }
        .simulate()
        .unwrap();
        assert!(
            affinity.weight_reloads < fifo.weight_reloads / 2,
            "affinity reloads {} vs fifo {}",
            affinity.weight_reloads,
            fifo.weight_reloads
        );
        assert!(
            affinity.throughput_rps >= 0.95 * fifo.throughput_rps,
            "affinity thpt {:.0} vs fifo {:.0}",
            affinity.throughput_rps,
            fifo.throughput_rps
        );
    }

    #[test]
    fn single_class_sharded_run_equals_simulate_exactly() {
        // With one class the shard plan degenerates to one cell, and the
        // sharded engine must coincide with the whole-fleet reference —
        // bit for bit, at any shard/thread count.
        let s = FleetScenario {
            classes: vec![NetworkClass::lenet5(0.010, 1.0)],
            arrival: ArrivalProcess::Poisson { rate_rps: 4000.0 },
            instances: vec![PcnnaConfig::default(); 3],
            horizon_s: 0.1,
            seed: 21,
            ..FleetScenario::default()
        };
        assert_eq!(s.shard_plan().n_cells(), 1);
        let reference = s.simulate().unwrap();
        for (shards, threads) in [(1, 1), (4, 2), (8, 8)] {
            let sharded = s.simulate_sharded(shards, threads).unwrap();
            assert_eq!(reference, sharded, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn shard_plan_partitions_classes_and_instances() {
        let s = FleetScenario {
            classes: (0..6)
                .map(|i| NetworkClass::lenet5(0.010, 1.0 + i as f64))
                .collect(),
            instances: vec![PcnnaConfig::default(); 10],
            ..FleetScenario::default()
        };
        let plan = s.shard_plan();
        assert_eq!(plan.n_cells(), 6);
        // every class in exactly one cell, every instance in exactly one range
        let mut seen_classes = [false; 6];
        let mut covered = 0usize;
        for cell in 0..plan.n_cells() {
            for &c in plan.cell_classes(cell) {
                assert!(!seen_classes[c], "class {c} owned twice");
                seen_classes[c] = true;
                assert_eq!(plan.cell_of_class(c), cell);
            }
            let range = plan.cell_instances(cell);
            assert_eq!(range.start, covered, "ranges must be contiguous");
            assert!(!range.is_empty(), "every cell needs an instance");
            covered = range.end;
        }
        assert!(seen_classes.iter().all(|&seen| seen));
        assert_eq!(covered, 10);
        // the plan is a pure function of the scenario
        let again = s.shard_plan();
        assert_eq!(plan.n_cells(), again.n_cells());
        for cell in 0..plan.n_cells() {
            assert_eq!(plan.cell_classes(cell), again.cell_classes(cell));
            assert_eq!(plan.cell_instances(cell), again.cell_instances(cell));
        }
    }

    #[test]
    fn sharded_report_is_bit_identical_across_shards_and_threads() {
        let s = FleetScenario {
            classes: vec![
                NetworkClass::alexnet(0.050, 1.0),
                NetworkClass::lenet5(0.010, 2.0),
                NetworkClass::lenet5(0.020, 1.5),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: 6000.0 },
            instances: vec![PcnnaConfig::default(); 5],
            horizon_s: 0.2,
            seed: 33,
            ..FleetScenario::default()
        };
        let oracle = s.simulate_sharded(1, 1).unwrap();
        assert!(oracle.completed > 0);
        for shards in [2, 4, 8] {
            for threads in [1, 2, 8] {
                let r = s.simulate_sharded(shards, threads).unwrap();
                assert_eq!(oracle, r, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_conservation_holds() {
        let s = FleetScenario {
            classes: vec![
                NetworkClass::alexnet(0.050, 1.0),
                NetworkClass::lenet5(0.010, 2.0),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: 8000.0 },
            instances: vec![PcnnaConfig::default(); 4],
            horizon_s: 0.1,
            seed: 5,
            ..FleetScenario::default()
        };
        let r = s.simulate_sharded(4, 4).unwrap();
        assert_eq!(r.offered, r.admitted + r.rejected);
        assert_eq!(r.admitted, r.completed);
        let per_class: u64 = r.per_class.iter().map(|c| c.completed).sum();
        assert_eq!(per_class, r.completed);
        let batches: u64 = r.per_instance_batches.iter().sum();
        assert_eq!(batches, r.batches);
        // the sharded stream is the same stream: offered must equal the
        // whole-fleet engine's offered count (placement differs; the
        // arrival process does not)
        assert_eq!(r.offered, s.simulate().unwrap().offered);
    }
}
