//! Closed-loop fleet control: autoscaling, admission control, and load
//! shedding over the discrete-event engine.
//!
//! Every other entry point in this crate is open-loop — instance
//! counts are fixed for the whole horizon and the queues admit
//! whatever fits. This module closes the loop: the simulation is
//! driven in fixed **control windows**, and at each boundary an
//! [`observer`] turns cumulative engine state into windowed
//! deltas, a [`policy::ControlPolicy`] plans, and a
//! crate-private actuator applies the plan — parking and booting
//! instances (with a realistic boot + ring-lock/calibration cost that
//! reuses the recalibration restore machinery, including requote and
//! cold weight banks), throttling admission per class, and shedding
//! queued low-priority work when the tail drifts toward the SLO.
//!
//! Control owns no arrival loop: it is the window hook of the engine's
//! one arrival driver (`engine::shard`, "One driver"). It parks the
//! instances beyond the initial provision before the first arrival,
//! rules on every arrival (quotas, closed classes), and at every window
//! edge runs observe → plan → shed → actuate and records the window.
//!
//! ## Consistency model
//!
//! The hook runs over the **whole-fleet single cell** — the same plan
//! `simulate()` uses — so the controller observes exact fleet-global
//! state at every window boundary. This is the shards = 1 oracle
//! semantics: under a sharded execution a controller would see
//! merge-window-granular aggregates instead, and the crate pins the
//! oracle rather than defining a weaker sharded feedback contract.
//! Determinism contract: same scenario + same seed + same policy ⇒
//! bit-identical [`ControlledReport`], and a [`Hold`](policy::Hold)
//! policy at full initial provision reproduces
//! [`FleetScenario::simulate`] bit for bit, fault timelines included
//! (the extra window-boundary event pumping is a no-op — events fire at
//! the same times in the same order either way).
//!
//! ## Power model
//!
//! The engine's `energy_j` is *service* energy (weight reprogramming +
//! per-frame). A real PCNNA instance also burns a static floor while
//! powered — laser bias, thermal tuning, lock loops — which is exactly
//! what autoscaling saves. [`ControlConfig::idle_power_w`] prices that
//! floor per powered instance-second (parked instances pay nothing;
//! booting and failed-but-unparked ones pay in full), and
//! [`PowerMetrics`] reports the figure of merit the control bench
//! gates on: **SLO-attainment-per-watt**, goodput (on-time completions
//! over *offered* traffic, so shedding is not free) divided by mean
//! drawn power.

pub mod observer;
pub mod policy;

pub(crate) mod actuator;

use crate::engine::core::CellEngine;
use crate::engine::shard::WindowHook;
use crate::engine::{merge, FleetScenario, QuoteTable, ShardPlan};
use crate::metrics::{FleetReport, LatencyHistogram};
use crate::par::spare_thread;
use crate::telemetry::{
    ControlTelemetry, FleetTrace, NullSink, TimeSeries, TraceConfig, TraceSink, TracingSink,
    WindowSample,
};
use crate::workload::Request;
use crate::{FleetError, Result};
use actuator::Actuator;
use observer::Observer;
use policy::{Admission, ControlPolicy, FleetView};

/// Parameters of the closed control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlConfig {
    /// Control window length, seconds: the loop observes and acts at
    /// every multiple of this.
    pub window_s: f64,
    /// Boot + ring-lock/calibration time a scale-up pays before the
    /// instance serves again, seconds.
    pub boot_s: f64,
    /// Scale-down floor: the controller never parks below this many
    /// provisioned instances.
    pub min_active: usize,
    /// Instances powered at t = 0 (clamped to the fleet size; the
    /// default `usize::MAX` starts fully provisioned).
    pub initial_active: usize,
    /// Most instances scaled in either direction per window.
    pub max_step: usize,
    /// Static power drawn per powered instance, watts — laser bias,
    /// thermal tuning, and lock loops that burn whether or not frames
    /// flow. This is the coefficient autoscaling optimizes against.
    pub idle_power_w: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            window_s: 0.005,
            boot_s: 0.004,
            min_active: 1,
            initial_active: usize::MAX,
            max_step: 4,
            idle_power_w: 2.0,
        }
    }
}

/// The most control windows one run may take, `horizon_s / window_s`:
/// 50× the 200 of the largest in-repo caller (the full-mode `control`
/// and `trace` bins, 0.4 s in 2 ms windows). Every window costs an
/// observation and a plan, so a run's wall time is bounded with it, and
/// the window edge `t += window_s` always advances.
pub const MAX_CONTROL_WINDOWS: f64 = 1e4;

impl ControlConfig {
    /// Validates the control parameters for a run of `horizon_s`
    /// seconds.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidScenario`] naming the
    /// `control.config` key: a non-positive or non-finite window, more
    /// than [`MAX_CONTROL_WINDOWS`] windows in the horizon, a negative
    /// or non-finite boot time or idle power, a boot that would end past
    /// the largest finite time, a zero floor, or a zero step.
    pub fn validate(&self, horizon_s: f64) -> Result<()> {
        let fail = |reason: String| Err(FleetError::InvalidScenario { reason });
        if !(self.window_s > 0.0) || !self.window_s.is_finite() {
            return fail(format!(
                "control.config.window_s must be finite and positive, got {}",
                self.window_s
            ));
        }
        let windows = horizon_s / self.window_s;
        if windows > MAX_CONTROL_WINDOWS {
            return fail(format!(
                "control.config.window_s {:e} splits horizon_s {horizon_s} into {windows:e} \
                 windows, past MAX_CONTROL_WINDOWS ({MAX_CONTROL_WINDOWS:e})",
                self.window_s
            ));
        }
        if !(self.boot_s >= 0.0) || !self.boot_s.is_finite() {
            return fail(format!(
                "control.config.boot_s must be finite and non-negative, got {}",
                self.boot_s
            ));
        }
        // A boot starts at a window edge, at most `horizon_s + window_s`.
        if !(horizon_s + self.window_s + self.boot_s).is_finite() {
            return fail(format!(
                "control.config.boot_s {:e} after horizon_s {horizon_s:e} ends past the \
                 largest finite time",
                self.boot_s
            ));
        }
        if self.min_active == 0 {
            return fail("control.config.min_active must be at least 1".to_owned());
        }
        if self.max_step == 0 {
            return fail("control.config.max_step must be at least 1".to_owned());
        }
        if !(self.idle_power_w >= 0.0) || !self.idle_power_w.is_finite() {
            return fail(format!(
                "control.config.idle_power_w must be finite and non-negative, got {}",
                self.idle_power_w
            ));
        }
        Ok(())
    }
}

/// Energy-aware serving quality of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerMetrics {
    /// Total powered instance-seconds (booting and failed-but-powered
    /// included; parked excluded).
    pub powered_instance_s: f64,
    /// Mean drawn power over the makespan, watts: service energy plus
    /// `idle_power_w` × powered time.
    pub mean_power_w: f64,
    /// On-time completions over **offered** traffic — shedding and
    /// throttling count against goodput, so a controller cannot buy
    /// watts by refusing everyone.
    pub goodput: f64,
    /// The control figure of merit: `goodput / mean_power_w`, 1/W.
    pub slo_per_watt: f64,
}

/// Computes [`PowerMetrics`] for a run that kept `powered_instance_s`
/// instance-seconds powered (for an uncontrolled run that is
/// `makespan × fleet size` — see [`uncontrolled_power_metrics`]).
#[must_use]
pub fn power_metrics(
    report: &FleetReport,
    powered_instance_s: f64,
    idle_power_w: f64,
) -> PowerMetrics {
    let on_time = (report.slo_attainment * report.completed as f64).round();
    let goodput = if report.offered > 0 {
        on_time / report.offered as f64
    } else {
        0.0
    };
    let mean_power_w = if report.makespan_s > 0.0 {
        (report.energy_j + idle_power_w * powered_instance_s) / report.makespan_s
    } else {
        0.0
    };
    PowerMetrics {
        powered_instance_s,
        mean_power_w,
        goodput,
        slo_per_watt: if mean_power_w > 0.0 {
            goodput / mean_power_w
        } else {
            0.0
        },
    }
}

/// [`power_metrics`] for an open-loop run, where every instance stays
/// powered for the whole makespan.
#[must_use]
pub fn uncontrolled_power_metrics(
    report: &FleetReport,
    n_instances: usize,
    idle_power_w: f64,
) -> PowerMetrics {
    power_metrics(report, report.makespan_s * n_instances as f64, idle_power_w)
}

/// One control window's footprint in the report trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTrace {
    /// Window end, seconds.
    pub t_s: f64,
    /// Instances in service at the boundary.
    pub active: usize,
    /// Instances mid power-on at the boundary.
    pub booting: usize,
    /// Instances parked at the boundary.
    pub parked: usize,
    /// Queue depth at the boundary.
    pub queue_depth: usize,
    /// Requests offered this window.
    pub arrivals: u64,
    /// Requests shed this window.
    pub shed: u64,
    /// Requests throttled at the door this window.
    pub throttled: u64,
    /// Window p99 latency, seconds.
    pub p99_s: f64,
    /// The policy's provisioning target after this window.
    pub target_active: usize,
}

/// The result of one closed-loop run: the ordinary [`FleetReport`]
/// plus the control plane's own ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledReport {
    /// The merged fleet report (identical semantics to `simulate()`).
    pub report: FleetReport,
    /// Name of the policy that drove the run.
    pub policy: String,
    /// Control windows executed.
    pub windows: u64,
    /// Instances booted by the controller.
    pub scale_ups: u64,
    /// Instances parked by the controller.
    pub scale_downs: u64,
    /// Requests refused at the door by admission control (a subset of
    /// `report.rejected`).
    pub throttled: u64,
    /// The energy-aware quality figures.
    pub power: PowerMetrics,
    /// Per-window trace (active/booting/parked, queue, p99, target).
    pub trace: Vec<WindowTrace>,
}

impl FleetScenario {
    /// Runs the scenario under closed-loop control: the arrival stream
    /// is fed in [`ControlConfig::window_s`] windows, and at every
    /// boundary the observer → policy → actuator loop may scale,
    /// throttle, or shed. Arrivals stop at the horizon; the remaining
    /// queue then drains under the final control state.
    ///
    /// Same scenario + seed + policy state ⇒ bit-identical report (the
    /// control loop adds no randomness).
    ///
    /// The cells and the policy run on the calling thread; on a host
    /// with two cores a second thread draws the arrival stream, the same
    /// stream request for request (`engine::shard`, "One driver"). A
    /// panic in the policy reaches the caller with that thread joined.
    ///
    /// # Errors
    ///
    /// Returns scenario/config validation failures (a config with more
    /// than [`MAX_CONTROL_WINDOWS`] windows in the horizon among them),
    /// checked before the first window, or core quoting failures.
    pub fn simulate_controlled(
        &self,
        cfg: &ControlConfig,
        policy: &mut dyn ControlPolicy,
    ) -> Result<ControlledReport> {
        let (report, _, _) = self.drive_controlled(cfg, policy, |_| NullSink, None)?;
        Ok(report)
    }

    /// [`simulate_controlled`](Self::simulate_controlled) with the
    /// telemetry layer recording: returns the ordinary controlled
    /// report plus a [`ControlTelemetry`] — the sampled request trace
    /// (whole-fleet single cell, so traces compare across reruns of the
    /// same seed) and a per-window [`TimeSeries`] of queue depth,
    /// utilization, health mix, per-class p50/p99, powered
    /// instance-seconds, and the controller's decisions.
    ///
    /// # Errors
    ///
    /// As [`simulate_controlled`](Self::simulate_controlled).
    pub fn simulate_controlled_traced(
        &self,
        cfg: &ControlConfig,
        policy: &mut dyn ControlPolicy,
        tcfg: &TraceConfig,
    ) -> Result<(ControlledReport, ControlTelemetry)> {
        let n_classes = self.classes.len();
        let (report, sinks, timeline) = self.drive_controlled(
            cfg,
            policy,
            |cell| TracingSink::new(cell, n_classes, tcfg),
            Some(tcfg.timeline_capacity),
        )?;
        let mut trace = FleetTrace::from_sinks(sinks);
        // one cell ledger plus one slot per class folded at assembly
        trace.profile.merge_folds = 1 + n_classes as u64;
        // given a capacity, `drive_controlled` always returns a series
        let timeline = timeline.unwrap_or_else(|| TimeSeries::new(tcfg.timeline_capacity));
        Ok((report, ControlTelemetry { trace, timeline }))
    }

    /// The two controlled entries' common part: validate, quote, and drive
    /// the whole-fleet cell with the [`ControlHook`] (`Some` capacity records).
    fn drive_controlled<S: TraceSink + Send>(
        &self,
        cfg: &ControlConfig,
        policy: &mut dyn ControlPolicy,
        make_sink: impl FnMut(usize) -> S,
        timeline_capacity: Option<usize>,
    ) -> Result<(ControlledReport, Vec<S>, Option<TimeSeries>)> {
        self.validate()?;
        cfg.validate(self.horizon_s)?;
        let quotes = self.quote_table()?;
        let n_classes = self.classes.len();
        let hook = ControlHook {
            cfg,
            view: derive_view(self, &quotes, cfg),
            policy,
            actuator: Actuator::new(self.instances.len(), cfg),
            observer: Observer::new(self),
            admission: vec![Admission::Open; n_classes],
            window_admitted: vec![0; n_classes],
            throttled: 0,
            trace: Vec::new(),
            timeline: timeline_capacity.map(TimeSeries::new),
            hist_snaps: vec![LatencyHistogram::new(); n_classes],
            powered_prev: 0.0,
        };
        let whole = ShardPlan::whole_fleet(self);
        let producer = spare_thread(usize::MAX, whole.n_cells());
        let (outcomes, sinks, hook) = self.drive(&quotes, &whole, 1, producer, make_sink, hook)?;
        let report = merge::assemble(self, &outcomes);
        let (scale_ups, scale_downs) = (hook.actuator.scale_ups, hook.actuator.scale_downs);
        let powered_s = hook.actuator.close(report.makespan_s);
        let controlled = ControlledReport {
            policy: hook.policy.name().to_owned(),
            windows: hook.trace.len() as u64,
            scale_ups,
            scale_downs,
            throttled: hook.throttled,
            power: power_metrics(&report, powered_s, cfg.idle_power_w),
            report,
            trace: hook.trace,
        };
        Ok((controlled, sinks, hook.timeline))
    }
}

/// The closed loop as the driver's window hook on the whole-fleet cell.
struct ControlHook<'r> {
    cfg: &'r ControlConfig,
    policy: &'r mut dyn ControlPolicy,
    view: FleetView,
    actuator: Actuator,
    observer: Observer,
    admission: Vec<Admission>,
    /// Requests admitted per class in the current window.
    window_admitted: Vec<u64>,
    throttled: u64,
    trace: Vec<WindowTrace>,
    /// The recorder (`None` when off); its deltas start at the last edge.
    timeline: Option<TimeSeries>,
    hist_snaps: Vec<LatencyHistogram>,
    powered_prev: f64,
}

impl WindowHook for ControlHook<'_> {
    fn window_s(&self) -> f64 {
        self.cfg.window_s
    }

    fn start<S: TraceSink>(&mut self, cells: &mut [CellEngine<'_, S>]) {
        self.actuator.park_unpowered(&mut cells[0]);
    }

    #[inline(always)]
    fn admits(&mut self, req: &Request) -> bool {
        let admitted = &mut self.window_admitted[req.class];
        let open = match self.admission[req.class] {
            Admission::Open => true,
            Admission::Quota(q) => *admitted < q,
            Admission::Closed => false,
        };
        *admitted += u64::from(open);
        self.throttled += u64::from(!open);
        open
    }

    fn edge<S: TraceSink>(&mut self, cells: &mut [CellEngine<'_, S>], t_s: f64) {
        debug_assert_eq!(cells.len(), 1, "control runs the whole-fleet cell");
        let cell = &mut cells[0];
        self.actuator.reconcile(cell, t_s);
        let obs = self.observer.observe(cell, t_s, self.throttled);
        let action = self.policy.plan(&obs, &self.view);
        debug_assert_eq!(action.admission.len(), self.window_admitted.len());
        debug_assert_eq!(action.shed_to.len(), self.window_admitted.len());
        let shed_now: u64 = (action.shed_to.iter().enumerate())
            .filter_map(|(class, keep)| keep.map(|keep| cell.shed_queue_to(class, keep, t_s)))
            .sum();
        self.admission.clone_from(&action.admission);
        self.window_admitted.fill(0);
        self.actuator.apply(cell, action.target_active, t_s);
        if let Some(series) = self.timeline.as_mut() {
            let powered_now = self.actuator.powered_through(t_s);
            let n_classes = self.hist_snaps.len();
            let mut class_p50_s = Vec::with_capacity(n_classes);
            let mut class_p99_s = Vec::with_capacity(n_classes);
            for (c, snap) in self.hist_snaps.iter_mut().enumerate() {
                let cur = cell.class_hist(c).clone();
                let delta = cur.delta_since(snap);
                class_p50_s.push(delta.quantile(0.50));
                class_p99_s.push(delta.quantile(0.99));
                *snap = cur;
            }
            let (classes_closed, classes_quota, shed_classes) = action.decision_counts();
            series.push(WindowSample {
                index: obs.index,
                t_s,
                queue_depth: obs.queue_depth,
                utilization: obs.utilization,
                arrivals: obs.arrivals,
                completed: obs.completed,
                shed: shed_now,
                throttled: obs.throttled,
                health: cell.health_mix(),
                class_p50_s,
                class_p99_s,
                powered_s: powered_now - self.powered_prev,
                target_active: action.target_active,
                classes_closed,
                classes_quota,
                shed_classes,
            });
            self.powered_prev = powered_now;
        }
        self.trace.push(WindowTrace {
            t_s,
            active: obs.active,
            booting: obs.booting,
            parked: obs.parked,
            queue_depth: obs.queue_depth,
            arrivals: obs.arrivals,
            // sheds land only at boundaries, right after the
            // observation — this window's row carries its own
            shed: shed_now,
            throttled: obs.throttled,
            p99_s: obs.p99_s,
            target_active: action.target_active,
        });
    }
}

/// Derives the static [`FleetView`] a policy plans against.
fn derive_view(scenario: &FleetScenario, quotes: &QuoteTable, cfg: &ControlConfig) -> FleetView {
    let n = scenario.instances.len();
    let n_classes = scenario.classes.len();
    // Class-weighted mean per-frame time, averaged over instances: the
    // marginal (batched, residency-amortized) cost of one request.
    let mut weighted_frame_s = 0.0;
    let mut weight_sum = 0.0;
    for (c, class) in scenario.classes.iter().enumerate() {
        let mean_frame: f64 = (0..n)
            .map(|i| quotes.get(i, c).per_frame.as_secs_f64())
            .sum::<f64>()
            / n as f64;
        weighted_frame_s += class.weight * mean_frame;
        weight_sum += class.weight;
    }
    let frame_s = if weight_sum > 0.0 {
        weighted_frame_s / weight_sum
    } else {
        0.0
    };
    let class_slo_s: Vec<f64> = scenario.classes.iter().map(|c| c.slo_s).collect();
    let tightest_slo_s = class_slo_s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut shed_priority: Vec<usize> = (0..n_classes).collect();
    // loosest SLO first; ties keep index order (sort is stable)
    shed_priority.sort_by(|&a, &b| class_slo_s[b].total_cmp(&class_slo_s[a]));
    FleetView {
        n_instances: n,
        min_active: cfg.min_active.min(n),
        n_classes,
        capacity_rps_per_instance: if frame_s > 0.0 { 1.0 / frame_s } else { 0.0 },
        boot_s: cfg.boot_s,
        window_s: cfg.window_s,
        tightest_slo_s,
        class_slo_s,
        shed_priority,
    }
}

#[cfg(test)]
mod tests {
    use super::policy::{ControlAction, Hold, PredictivePolicy, ReactivePolicy};
    use super::*;
    use crate::scheduler::Policy;
    use crate::workload::{ArrivalProcess, NetworkClass};
    use pcnna_core::config::PcnnaConfig;

    fn diurnal_scenario() -> FleetScenario {
        FleetScenario {
            classes: vec![
                NetworkClass::alexnet(0.004, 1.0),
                NetworkClass::lenet5(0.001, 3.0),
            ],
            arrival: ArrivalProcess::Diurnal {
                base_rps: 4_000.0,
                peak_rps: 40_000.0,
                period_s: 0.1,
            },
            policy: Policy::NetworkAffinity,
            instances: vec![PcnnaConfig::default(); 6],
            horizon_s: 0.1,
            queue_capacity: 100_000,
            seed: 7,
            ..FleetScenario::default()
        }
    }

    fn cfg() -> ControlConfig {
        ControlConfig {
            window_s: 0.002,
            boot_s: 0.002,
            ..ControlConfig::default()
        }
    }

    #[test]
    fn hold_at_full_provision_reproduces_simulate_exactly() {
        // The pass-through invariant: a controller that never acts is
        // not allowed to change a single bit of the report — window
        // boundaries only pump events that would fire anyway.
        let s = diurnal_scenario();
        let open_loop = s.simulate().unwrap();
        let controlled = s.simulate_controlled(&cfg(), &mut Hold).unwrap();
        assert_eq!(controlled.report, open_loop);
        assert_eq!(controlled.scale_ups, 0);
        assert_eq!(controlled.scale_downs, 0);
        assert_eq!(controlled.throttled, 0);
        assert_eq!(controlled.report.resilience.shed, 0);
        // full fleet powered for the whole makespan
        let expect = open_loop.makespan_s * s.instances.len() as f64;
        assert!((controlled.power.powered_instance_s - expect).abs() < 1e-9);
    }

    #[test]
    fn controlled_run_is_deterministic() {
        let s = diurnal_scenario();
        let a = s
            .simulate_controlled(&cfg(), &mut ReactivePolicy::new())
            .unwrap();
        let b = s
            .simulate_controlled(&cfg(), &mut ReactivePolicy::new())
            .unwrap();
        assert_eq!(a, b, "same seed + same policy must be bit-identical");
        assert!(a.windows > 10);
    }

    #[test]
    fn conservation_holds_under_control() {
        let s = diurnal_scenario();
        for (name, r) in [
            (
                "reactive",
                s.simulate_controlled(&cfg(), &mut ReactivePolicy::new())
                    .unwrap(),
            ),
            (
                "predictive",
                s.simulate_controlled(&cfg(), &mut PredictivePolicy::new())
                    .unwrap(),
            ),
        ] {
            let rep = &r.report;
            assert_eq!(rep.offered, rep.admitted + rep.rejected, "{name}");
            assert_eq!(
                rep.admitted,
                rep.completed + rep.resilience.unserved + rep.resilience.shed,
                "{name}"
            );
            let class_admitted: u64 = rep.per_class.iter().map(|c| c.admitted).sum();
            assert_eq!(class_admitted, rep.admitted, "{name}");
            for c in &rep.per_class {
                assert_eq!(
                    c.admitted,
                    c.completed + c.unserved + c.shed,
                    "{name}/{}",
                    c.name
                );
            }
            assert!(r.throttled <= rep.rejected, "{name}");
        }
    }

    #[test]
    fn autoscaling_saves_power_on_diurnal_traffic() {
        // The point of the subsystem: under a 10:1 diurnal swing the
        // controller must park trough capacity, spending meaningfully
        // fewer powered instance-seconds than the open-loop fleet while
        // still serving nearly everything — improving SLO-per-watt.
        let s = diurnal_scenario();
        let open = s.simulate().unwrap();
        let base = uncontrolled_power_metrics(&open, s.instances.len(), cfg().idle_power_w);
        let r = s
            .simulate_controlled(&cfg(), &mut ReactivePolicy::new())
            .unwrap();
        assert!(r.scale_downs > 0, "trough capacity must park");
        assert!(
            r.power.powered_instance_s < 0.95 * base.powered_instance_s,
            "controlled {} vs open-loop {} powered instance-seconds",
            r.power.powered_instance_s,
            base.powered_instance_s
        );
        assert!(
            r.power.slo_per_watt > base.slo_per_watt,
            "controlled {} must beat open-loop {} SLO/W",
            r.power.slo_per_watt,
            base.slo_per_watt
        );
    }

    #[test]
    fn scale_down_abort_boots_cleanly() {
        // A scripted policy that oscillates hard: demand max fleet on
        // even windows, min on odd ones — every boot that hasn't
        // finished when the park lands must be epoch-cancelled, and the
        // books must still balance.
        struct Flapper;
        impl ControlPolicy for Flapper {
            fn name(&self) -> &str {
                "flapper"
            }
            fn plan(
                &mut self,
                obs: &observer::WindowObservation,
                view: &FleetView,
            ) -> ControlAction {
                ControlAction {
                    target_active: if obs.index.is_multiple_of(2) {
                        view.n_instances
                    } else {
                        view.min_active
                    },
                    ..ControlAction::hold(obs, view)
                }
            }
        }
        let s = diurnal_scenario();
        // boot longer than a window so parks land mid-boot
        let slow_boot = ControlConfig {
            boot_s: 0.005,
            ..cfg()
        };
        let r = s.simulate_controlled(&slow_boot, &mut Flapper).unwrap();
        assert!(r.scale_ups > 2 && r.scale_downs > 2, "flapping must flap");
        let rep = &r.report;
        assert_eq!(rep.offered, rep.admitted + rep.rejected);
        assert_eq!(
            rep.admitted,
            rep.completed + rep.resilience.unserved + rep.resilience.shed
        );
    }

    #[test]
    fn closed_admission_throttles_at_the_door() {
        struct CloseAll;
        impl ControlPolicy for CloseAll {
            fn name(&self) -> &str {
                "close-all"
            }
            fn plan(
                &mut self,
                obs: &observer::WindowObservation,
                view: &FleetView,
            ) -> ControlAction {
                ControlAction {
                    admission: vec![Admission::Closed; view.n_classes],
                    ..ControlAction::hold(obs, view)
                }
            }
        }
        let s = diurnal_scenario();
        let r = s.simulate_controlled(&cfg(), &mut CloseAll).unwrap();
        // the first window admits freely; every later one refuses
        assert!(r.throttled > 0);
        assert_eq!(r.report.offered, r.report.admitted + r.report.rejected);
        assert!(r.report.rejected >= r.throttled);
        // goodput counts refusals against the controller
        assert!(r.power.goodput < 0.6, "goodput {}", r.power.goodput);
    }

    #[test]
    fn control_config_validation_rejects_nonsense() {
        let horizon_s = 0.1;
        assert!(ControlConfig::default().validate(horizon_s).is_ok());
        // (the key its reason must name, the bad config)
        for (key, bad) in [
            (
                "window_s",
                ControlConfig {
                    window_s: 0.0,
                    ..ControlConfig::default()
                },
            ),
            (
                "window_s",
                ControlConfig {
                    window_s: horizon_s / MAX_CONTROL_WINDOWS / 1.01,
                    ..ControlConfig::default()
                },
            ),
            (
                "boot_s",
                ControlConfig {
                    boot_s: -1.0,
                    ..ControlConfig::default()
                },
            ),
            (
                "min_active",
                ControlConfig {
                    min_active: 0,
                    ..ControlConfig::default()
                },
            ),
            (
                "max_step",
                ControlConfig {
                    max_step: 0,
                    ..ControlConfig::default()
                },
            ),
            (
                "idle_power_w",
                ControlConfig {
                    idle_power_w: f64::NAN,
                    ..ControlConfig::default()
                },
            ),
        ] {
            let err = bad.validate(horizon_s).unwrap_err().to_string();
            assert!(
                err.contains(&format!("control.config.{key}")),
                "{bad:?}: {err}"
            );
        }
        let near_cap = ControlConfig {
            window_s: 1.001 * horizon_s / MAX_CONTROL_WINDOWS,
            ..ControlConfig::default()
        };
        assert!(near_cap.validate(horizon_s).is_ok());
        let endless_boot = ControlConfig {
            window_s: f64::MAX / 200.0,
            boot_s: f64::MAX,
            ..ControlConfig::default()
        };
        let err = endless_boot
            .validate(f64::MAX / 2.0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("control.config.boot_s"), "{err}");
    }

    #[test]
    fn window_counts_past_the_cap_are_refused_before_the_loop() {
        // 1e-300 s windows never advance the window edge (the run would
        // hang); 1e-9 s windows would take 5e7 windows here.
        let s = FleetScenario {
            horizon_s: 0.05,
            ..diurnal_scenario()
        };
        for window_s in [1e-300, 1e-9] {
            let cfg = ControlConfig { window_s, ..cfg() };
            let t0 = std::time::Instant::now();
            let plain = s.simulate_controlled(&cfg, &mut Hold).unwrap_err();
            let traced = s
                .simulate_controlled_traced(&cfg, &mut Hold, &TraceConfig::default())
                .unwrap_err();
            assert!(t0.elapsed() < std::time::Duration::from_secs(1));
            for err in [plain.to_string(), traced.to_string()] {
                assert!(
                    err.contains("control.config.window_s") && err.contains("MAX_CONTROL_WINDOWS"),
                    "{window_s}: {err}"
                );
            }
        }
    }

    /// A policy that panics at its third window.
    struct PanicsAtThirdWindow(usize);

    impl ControlPolicy for PanicsAtThirdWindow {
        fn name(&self) -> &str {
            "panics"
        }

        fn plan(&mut self, obs: &observer::WindowObservation, view: &FleetView) -> ControlAction {
            self.0 += 1;
            assert!(self.0 < 3, "injected policy fault");
            ControlAction::hold(obs, view)
        }
    }

    #[test]
    fn policy_panic_propagates_without_a_hang() {
        // The closed loop draws its arrivals on a producer thread when
        // the host has a second core. A policy panic on the consuming
        // thread, with a long stream still being drawn, must reach the
        // caller promptly, the producer joined, not hang at a hand-off.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let s = FleetScenario {
                arrival: ArrivalProcess::Poisson {
                    rate_rps: 1_000_000.0,
                },
                horizon_s: 1.0,
                ..diurnal_scenario()
            };
            let run = std::panic::catch_unwind(|| {
                s.simulate_controlled(&cfg(), &mut PanicsAtThirdWindow(0))
                    .is_ok()
            });
            let _ = tx.send(run.map_err(|payload| payload.downcast_ref::<&str>().copied()));
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the controlled run hung");
        assert_eq!(run, Err(Some("injected policy fault")));
    }
}
