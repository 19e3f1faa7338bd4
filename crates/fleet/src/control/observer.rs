//! The control loop's eyes: per-window metric deltas.
//!
//! The engine accumulates *cumulative* counters and latency histograms;
//! a controller needs *windowed* signals — what happened since the last
//! control decision, not since the beginning of time. A crate-private
//! observer snapshots the cumulative state at each window boundary and hands the
//! policy a [`WindowObservation`] of exact counter deltas plus window
//! quantiles from [`LatencyHistogram::delta_since`] (bin-exact
//! subtraction, quantiles within the histogram's ~1% bound).

use crate::engine::core::CellEngine;
use crate::engine::FleetScenario;
use crate::metrics::LatencyHistogram;
use crate::telemetry::TraceSink;

/// Everything the control policy sees about one elapsed window.
///
/// Counters are exact deltas of the engine's cumulative ledgers;
/// quantiles come from the histogram delta (≤1% relative error);
/// instance counts are the state *at the window boundary*, after every
/// event at or before it was processed.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Window ordinal, starting at 0.
    pub index: u64,
    /// Window start, seconds.
    pub t0_s: f64,
    /// Window end (the control decision instant), seconds.
    pub t1_s: f64,
    /// Requests offered this window.
    pub arrivals: u64,
    /// Requests admitted to the queues this window.
    pub admitted: u64,
    /// Requests rejected this window (queue-full plus throttled).
    pub rejected: u64,
    /// Of the rejected, how many the admission controller turned away.
    pub throttled: u64,
    /// Requests completed this window.
    pub completed: u64,
    /// Requests shed from the queues this window.
    pub shed: u64,
    /// Observed arrival rate over the window, req/s.
    pub arrival_rate_rps: f64,
    /// Queue depth at the window boundary.
    pub queue_depth: usize,
    /// Median latency of requests completed this window, seconds
    /// (0 when none completed).
    pub p50_s: f64,
    /// 99th-percentile latency of requests completed this window,
    /// seconds (0 when none completed).
    pub p99_s: f64,
    /// Serving time booked this window over the active instances'
    /// window time. Batch service is booked at dispatch, so this is an
    /// attribution-level signal, not an exact duty cycle.
    pub utilization: f64,
    /// Instances in service (or serving) at the boundary.
    pub active: usize,
    /// Instances mid power-on at the boundary.
    pub booting: usize,
    /// Instances parked by the control plane at the boundary.
    pub parked: usize,
    /// Worst (lowest) quoted top-1 accuracy across the active fleet's
    /// serviceable (instance, class) pairs at the boundary; `1.0` when
    /// nothing is active (no evidence of drift). This is the signal the
    /// policies' `accuracy_guard` watches.
    pub worst_quoted_accuracy: f64,
}

/// Snapshots cumulative engine state and emits per-window deltas.
pub(crate) struct Observer {
    n_classes: usize,
    index: u64,
    t_prev: f64,
    offered: u64,
    admitted: u64,
    rejected: u64,
    throttled: u64,
    completed: u64,
    shed: u64,
    busy_time_s: f64,
    hist: LatencyHistogram,
}

impl Observer {
    pub(crate) fn new(scenario: &FleetScenario) -> Observer {
        Observer {
            n_classes: scenario.classes.len(),
            index: 0,
            t_prev: 0.0,
            offered: 0,
            admitted: 0,
            rejected: 0,
            throttled: 0,
            completed: 0,
            shed: 0,
            busy_time_s: 0.0,
            hist: LatencyHistogram::new(),
        }
    }

    /// Reads the engine at window boundary `t1` and advances the
    /// snapshot. `throttled_cum` is the driver's cumulative count of
    /// admission-control refusals (the engine folds them into
    /// `rejected`; the observer separates them back out).
    pub(crate) fn observe<S: TraceSink>(
        &mut self,
        cell: &CellEngine<'_, S>,
        t1: f64,
        throttled_cum: u64,
    ) -> WindowObservation {
        let (offered, admitted, rejected, completed) = cell.counters();
        let shed = cell.shed_total();
        let mut cur = LatencyHistogram::new();
        for c in 0..self.n_classes {
            cur.merge(cell.class_hist(c));
        }
        let delta = cur.delta_since(&self.hist);
        let busy = cell.busy_time_total();
        let window_s = t1 - self.t_prev;
        let n = cell.n_instances();
        let active = (0..n).filter(|&i| cell.is_active(i)).count();
        let booting = (0..n).filter(|&i| cell.is_booting(i)).count();
        let parked = (0..n).filter(|&i| cell.is_parked(i)).count();
        let obs = WindowObservation {
            index: self.index,
            t0_s: self.t_prev,
            t1_s: t1,
            arrivals: offered - self.offered,
            admitted: admitted - self.admitted,
            rejected: rejected - self.rejected,
            throttled: throttled_cum - self.throttled,
            completed: completed - self.completed,
            shed: shed - self.shed,
            arrival_rate_rps: if window_s > 0.0 {
                (offered - self.offered) as f64 / window_s
            } else {
                0.0
            },
            queue_depth: cell.queue_len(),
            p50_s: delta.quantile(0.50),
            p99_s: delta.quantile(0.99),
            utilization: if window_s > 0.0 && active > 0 {
                ((busy - self.busy_time_s) / (window_s * active as f64)).max(0.0)
            } else {
                0.0
            },
            active,
            booting,
            parked,
            worst_quoted_accuracy: cell.worst_quoted_accuracy(),
        };
        self.index += 1;
        self.t_prev = t1;
        self.offered = offered;
        self.admitted = admitted;
        self.rejected = rejected;
        self.throttled = throttled_cum;
        self.completed = completed;
        self.shed = shed;
        self.busy_time_s = busy;
        self.hist = cur;
        obs
    }
}
