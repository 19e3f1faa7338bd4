//! Folding shard-cell outcomes back into one [`FleetReport`].
//!
//! Determinism is the whole design here. Each cell accumulates its own
//! counters, f64 ledgers, and log-binned latency histograms in its own
//! event order; [`assemble`] then folds them in **canonical order** —
//! cells by cell index, classes by global class index — regardless of
//! which worker thread ran which cell or in what real-time order they
//! finished. Integer counters are exact sums; histogram bins merge
//! exactly ([`LatencyHistogram::merge`]); and every floating-point
//! reduction (energy, busy time, offline time) happens in the same
//! fixed order every run. That is why the merged report is **bit
//! identical** across every shard and thread count: the only thing a
//! worker count changes is who executes a cell, never what the cell
//! computes nor the order its numbers are folded in.
//!
//! Ratios (utilization, availability, SLO attainment, …) are
//! recomputed once from the merged ledgers against the fleet-wide
//! makespan, with the same zero-arrival NaN-hardening the single-cell
//! report path has always had.

use super::core::CellOutcome;
use super::FleetScenario;
use crate::metrics::{ClassReport, FleetReport, LatencyHistogram, LatencySummary};

/// Folds per-cell outcomes (in cell-index order) into the fleet report.
pub(crate) fn assemble(scenario: &FleetScenario, outcomes: &[CellOutcome]) -> FleetReport {
    let n_instances = scenario.instances.len();
    let n_classes = scenario.classes.len();

    // Additive ledgers, folded in cell order.
    let mut offered = 0u64;
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut completed = 0u64;
    let mut batches = 0u64;
    let mut weight_reloads = 0u64;
    let mut energy_j = 0.0f64;
    let mut makespan_s = 0.0f64;
    let mut busy_time_s = 0.0f64;
    let mut per_instance_batches = vec![0u64; n_instances];
    let mut res = crate::metrics::ResilienceStats::default();
    // Per-class slices land at their global class index; every class is
    // owned by exactly one cell, so no slot is written twice.
    let mut class_slots: Vec<Option<&super::core::ClassSlice>> = vec![None; n_classes];

    for out in outcomes {
        offered += out.offered;
        admitted += out.admitted;
        rejected += out.rejected;
        completed += out.completed;
        batches += out.batches;
        weight_reloads += out.weight_reloads;
        energy_j += out.energy_j;
        makespan_s = makespan_s.max(out.last_event_s);
        busy_time_s += out.busy_time_s.iter().sum::<f64>();
        for (k, &b) in out.per_instance_batches.iter().enumerate() {
            per_instance_batches[out.instance_start + k] = b;
        }
        res.merge(&out.res);
        for slice in &out.classes {
            debug_assert!(class_slots[slice.class].is_none(), "class owned twice");
            class_slots[slice.class] = Some(slice);
        }
    }

    // Availability is a ratio, not a ledger: recompute it against the
    // merged makespan (the same formula and edge rule — empty runs are
    // fully available — as the pre-shard report path).
    res.availability = if makespan_s > 0.0 && n_instances > 0 {
        (1.0 - res.offline_s / (makespan_s * n_instances as f64)).clamp(0.0, 1.0)
    } else {
        1.0
    };
    // `shed` folded additively above; what remains admitted but neither
    // completed nor shed is stranded (conservation:
    // `admitted = completed + unserved + shed`).
    res.unserved = admitted - completed - res.shed;

    // Per-class reports and the all-classes histogram, folded in global
    // class order — the identical order the single-cell engine uses.
    let mut all = LatencyHistogram::new();
    let mut on_time_total = 0u64;
    let mut on_accuracy_total = 0u64;
    let mut per_class = Vec::with_capacity(n_classes);
    for (c, class) in scenario.classes.iter().enumerate() {
        // The shard plan assigns every class to exactly one cell.
        #[allow(clippy::expect_used)]
        let slice = class_slots[c].expect("every class is owned by exactly one cell");
        all.merge(&slice.hist);
        on_time_total += slice.on_time;
        on_accuracy_total += slice.on_accuracy;
        let class_completed = slice.hist.count();
        per_class.push(ClassReport {
            name: class.name.clone(),
            admitted: slice.admitted,
            completed: class_completed,
            shed: slice.shed,
            unserved: slice.admitted - class_completed - slice.shed,
            slo_attainment: if class_completed > 0 {
                slice.on_time as f64 / class_completed as f64
            } else {
                0.0
            },
            on_accuracy: slice.on_accuracy,
            below_accuracy: slice.below_accuracy,
            accuracy_attainment: if class_completed > 0 {
                slice.on_accuracy as f64 / class_completed as f64
            } else {
                0.0
            },
            latency: LatencySummary::from_histogram(&slice.hist),
            histogram: slice.hist.clone(),
        });
    }

    let safe_ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    FleetReport {
        offered,
        admitted,
        rejected,
        completed,
        batches,
        weight_reloads,
        mean_batch: if batches > 0 {
            completed as f64 / batches as f64
        } else {
            0.0
        },
        makespan_s,
        throughput_rps: safe_ratio(completed as f64, makespan_s),
        utilization: safe_ratio(busy_time_s, makespan_s * n_instances as f64),
        per_instance_batches,
        slo_attainment: if completed > 0 {
            on_time_total as f64 / completed as f64
        } else {
            0.0
        },
        accuracy_attainment: if completed > 0 {
            on_accuracy_total as f64 / completed as f64
        } else {
            0.0
        },
        energy_j,
        energy_per_request_j: if completed > 0 {
            energy_j / completed as f64
        } else {
            0.0
        },
        latency: LatencySummary::from_histogram(&all),
        per_class,
        resilience: res,
    }
}
