//! The control loop's brain: scaling, admission, and shedding policies.
//!
//! A [`ControlPolicy`] is a pure planner: each window it reads one
//! [`WindowObservation`] plus the static [`FleetView`] and returns a
//! [`ControlAction`]. The crate-private actuator clamps and
//! applies the plan; policies never touch the engine, which is what
//! keeps them trivially testable and the control loop deterministic —
//! a policy may keep internal state (hysteresis counters, forecast
//! levels), but it must be a deterministic function of its inputs.
//!
//! Two production policies ship here, plus a do-nothing baseline:
//!
//! | Policy | Scaling signal | Strength | Weakness |
//! |---|---|---|---|
//! | [`Hold`] | none | exact open-loop baseline | pays full-fleet idle power |
//! | [`ReactivePolicy`] | this window's load vs capacity, with hysteresis | simple, robust | always one boot-time late on ramps |
//! | [`PredictivePolicy`] | Holt double-EWMA forecast one boot-lead ahead | pre-boots for diurnal/MMPP ramps | can over-provision on noise spikes |
//!
//! Both real policies share the same overload guard: when the window
//! p99 drifts toward the tightest SLO with a standing backlog, the
//! loosest-SLO class is throttled at the door and its excess backlog
//! shed — sacrificing the class that can best afford to wait protects
//! the class that cannot.

use super::observer::WindowObservation;

/// Per-class admission stance for the next window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit everything (the queue-capacity bound still applies).
    Open,
    /// Admit at most this many requests of the class in the window.
    Quota(u64),
    /// Turn every request of the class away at the door.
    Closed,
}

/// One window's control decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlAction {
    /// Desired provisioned instances (active + booting). The actuator
    /// clamps this to `[min_active, fleet size]` and to `max_step`
    /// changes per window.
    pub target_active: usize,
    /// Admission stance per (global) class for the next window.
    pub admission: Vec<Admission>,
    /// Per (global) class: shed the queue down to this depth now
    /// (`None` = leave the queue alone).
    pub shed_to: Vec<Option<usize>>,
}

impl ControlAction {
    /// A plan that changes nothing: keep the current provision, admit
    /// everything, shed nothing.
    #[must_use]
    pub fn hold(obs: &WindowObservation, view: &FleetView) -> ControlAction {
        ControlAction {
            target_active: obs.active + obs.booting,
            admission: vec![Admission::Open; view.n_classes],
            shed_to: vec![None; view.n_classes],
        }
    }

    /// The action's per-class stance counts —
    /// `(classes closed, classes under quota, classes shed)` — the
    /// compressed decision fingerprint the telemetry timeline records
    /// per window.
    #[must_use]
    pub fn decision_counts(&self) -> (usize, usize, usize) {
        let closed = self
            .admission
            .iter()
            .filter(|a| matches!(a, Admission::Closed))
            .count();
        let quota = self
            .admission
            .iter()
            .filter(|a| matches!(a, Admission::Quota(_)))
            .count();
        let shed = self.shed_to.iter().filter(|s| s.is_some()).count();
        (closed, quota, shed)
    }
}

/// Static facts about the fleet a policy plans against (derived once
/// per run from the scenario, quotes, and control config).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Fleet size (the scale-up ceiling).
    pub n_instances: usize,
    /// Scale-down floor.
    pub min_active: usize,
    /// Number of (global) request classes.
    pub n_classes: usize,
    /// Estimated marginal serving capacity of one instance, req/s:
    /// the class-weighted mean per-frame time inverted. Weight-load
    /// amortization and batching make this an estimate, not a bound.
    pub capacity_rps_per_instance: f64,
    /// Boot + ring-lock/calibration time a scale-up pays, seconds.
    pub boot_s: f64,
    /// Control window length, seconds.
    pub window_s: f64,
    /// The tightest class SLO, seconds — the latency the overload
    /// guard protects.
    pub tightest_slo_s: f64,
    /// Each class's SLO, seconds, by global class index.
    pub class_slo_s: Vec<f64>,
    /// Class indices ordered loosest-SLO first (ties by index): the
    /// order in which classes are sacrificed under overload.
    pub shed_priority: Vec<usize>,
}

/// A control policy: one [`plan`](ControlPolicy::plan) call per window.
pub trait ControlPolicy {
    /// The policy's name (stable; lands in reports and JSON).
    fn name(&self) -> &str;

    /// Plans the next window's action from this window's observation.
    /// Must be deterministic in `(self state, obs, view)`.
    fn plan(&mut self, obs: &WindowObservation, view: &FleetView) -> ControlAction;
}

/// Shared overload guard: when the window p99 drifts past
/// `p99_guard_frac` of the tightest SLO while a backlog stands, close
/// the loosest-SLO class at the door and shed its backlog down to one
/// window of fleet service. Only classes strictly looser than the
/// tightest are ever sacrificed — with one class (or uniform SLOs)
/// the guard does nothing and the scaler carries the whole burden.
///
/// `accuracy_guard` is the second, independent trip wire: when the
/// fleet's worst quoted top-1 accuracy falls **strictly below** it,
/// the guard presses even at healthy latency — shedding deferrable
/// work so drifted hardware stops burning capacity on answers the
/// accuracy-critical classes can't use. `0.0` (the default) can never
/// fire, because quoted accuracies live in `[0, 1]`.
fn overload_guard(
    obs: &WindowObservation,
    view: &FleetView,
    p99_guard_frac: f64,
    accuracy_guard: f64,
) -> (Vec<Admission>, Vec<Option<usize>>) {
    let mut admission = vec![Admission::Open; view.n_classes];
    let mut shed_to = vec![None; view.n_classes];
    let provision = (obs.active + obs.booting).max(1);
    let window_capacity =
        (view.capacity_rps_per_instance * view.window_s * provision as f64).ceil() as usize;
    let latency_pressed =
        obs.p99_s > p99_guard_frac * view.tightest_slo_s && obs.queue_depth > window_capacity;
    let accuracy_pressed =
        obs.worst_quoted_accuracy < accuracy_guard && obs.queue_depth > window_capacity;
    if latency_pressed || accuracy_pressed {
        for &victim in &view.shed_priority {
            if view.class_slo_s[victim] > view.tightest_slo_s {
                admission[victim] = Admission::Closed;
                shed_to[victim] = Some(window_capacity);
                break; // one victim per window; escalate next window if needed
            }
        }
    }
    (admission, shed_to)
}

/// `Ok` when knob `label` lies in `(0, 1]`.
fn fraction(label: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 && v <= 1.0 {
        Ok(())
    } else {
        Err(format!("{label} must be in (0, 1], got {v}"))
    }
}

/// `Ok` when the overload guard's two knobs are in range.
fn validate_guard(p99_guard_frac: f64, accuracy_guard: f64) -> Result<(), String> {
    fraction("p99_guard_frac", p99_guard_frac)?;
    if (0.0..=1.0).contains(&accuracy_guard) {
        Ok(())
    } else {
        Err(format!(
            "accuracy_guard must be in [0, 1], got {accuracy_guard}"
        ))
    }
}

/// The open-loop baseline: keep whatever is provisioned, admit
/// everything, never shed. With `initial_active = fleet size` this
/// reproduces [`simulate`](crate::engine::FleetScenario::simulate)
/// bit for bit (the pass-through invariant the tests pin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hold;

impl ControlPolicy for Hold {
    fn name(&self) -> &str {
        "hold"
    }

    fn plan(&mut self, obs: &WindowObservation, view: &FleetView) -> ControlAction {
        ControlAction::hold(obs, view)
    }
}

/// Reactive hysteresis scaler.
///
/// Each window it computes the load factor — work to do (this window's
/// arrivals plus the standing queue) over the provisioned capacity —
/// and scales up immediately when load exceeds
/// [`scale_up_load`](Self::scale_up_load), or down one instance at a
/// time when load sits below [`scale_down_load`](Self::scale_down_load)
/// for [`cooldown_windows`](Self::cooldown_windows) consecutive
/// windows. The dead band between the thresholds plus the cooldown is
/// classic hysteresis: it keeps boot-cost-paying flapping out of the
/// loop at the price of reacting a boot-time late on every ramp.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactivePolicy {
    /// Load factor above which the fleet scales up (default 0.75).
    pub scale_up_load: f64,
    /// Load factor below which the fleet may scale down (default 0.35).
    pub scale_down_load: f64,
    /// Fraction of the tightest SLO the window p99 may reach before
    /// the overload guard sheds low-priority work (default 0.7).
    pub p99_guard_frac: f64,
    /// Worst quoted top-1 accuracy below which the overload guard
    /// presses regardless of latency (default 0.0 = never).
    pub accuracy_guard: f64,
    /// Consecutive low-load windows required before each scale-down
    /// (default 2).
    pub cooldown_windows: u32,
    low_streak: u32,
}

impl Default for ReactivePolicy {
    fn default() -> Self {
        ReactivePolicy {
            scale_up_load: 0.75,
            scale_down_load: 0.35,
            p99_guard_frac: 0.7,
            accuracy_guard: 0.0,
            cooldown_windows: 2,
            low_streak: 0,
        }
    }
}

impl ReactivePolicy {
    /// The default reactive controller.
    #[must_use]
    pub fn new() -> Self {
        ReactivePolicy::default()
    }

    /// Checks the knobs' ranges; the reason names the knob.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.scale_up_load > 0.0) || !self.scale_up_load.is_finite() {
            return Err(format!(
                "scale_up_load must be finite and positive, got {}",
                self.scale_up_load
            ));
        }
        if !(self.scale_down_load >= 0.0) || self.scale_down_load >= self.scale_up_load {
            return Err(format!(
                "scale_down_load must be in [0, scale_up_load), got {}",
                self.scale_down_load
            ));
        }
        validate_guard(self.p99_guard_frac, self.accuracy_guard)?;
        if self.cooldown_windows == 0 {
            return Err("cooldown_windows must be at least 1".to_owned());
        }
        Ok(())
    }
}

impl ControlPolicy for ReactivePolicy {
    fn name(&self) -> &str {
        "reactive"
    }

    fn plan(&mut self, obs: &WindowObservation, view: &FleetView) -> ControlAction {
        let provision = (obs.active + obs.booting).max(1);
        let per_instance = view.capacity_rps_per_instance * view.window_s;
        let demand = obs.arrivals as f64 + obs.queue_depth as f64;
        let load = if per_instance > 0.0 {
            demand / (per_instance * provision as f64)
        } else {
            0.0
        };
        let mut target = provision;
        if load > self.scale_up_load {
            // provision enough that the same demand would sit at the
            // upper threshold
            target = (demand / (per_instance * self.scale_up_load)).ceil() as usize;
            self.low_streak = 0;
        } else if load < self.scale_down_load {
            self.low_streak += 1;
            if self.low_streak >= self.cooldown_windows {
                target = provision - 1;
                self.low_streak = 0;
            }
        } else {
            self.low_streak = 0;
        }
        let (admission, shed_to) =
            overload_guard(obs, view, self.p99_guard_frac, self.accuracy_guard);
        ControlAction {
            target_active: target,
            admission,
            shed_to,
        }
    }
}

/// Predictive scaler: Holt double-exponential smoothing of the arrival
/// rate, provisioned one boot-lead ahead.
///
/// The level/trend forecast is exactly what the diurnal and MMPP
/// arrival processes reward: a rising rate shows up in the trend term,
/// so capacity is booting *before* the peak needs it instead of one
/// boot-time after, and a falling rate walks capacity back down
/// smoothly. Provisioning targets
/// [`target_util`](Self::target_util) of estimated capacity, leaving
/// headroom for forecast error; the queue backlog adds a drain term so
/// a missed burst is worked off rather than carried forever.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictivePolicy {
    /// Level smoothing factor α (default 0.4).
    pub alpha: f64,
    /// Trend smoothing factor β (default 0.2).
    pub beta: f64,
    /// Utilization the forecast is provisioned at (default 0.6).
    pub target_util: f64,
    /// Fraction of the tightest SLO the window p99 may reach before
    /// the overload guard sheds low-priority work (default 0.7).
    pub p99_guard_frac: f64,
    /// Worst quoted top-1 accuracy below which the overload guard
    /// presses regardless of latency (default 0.0 = never).
    pub accuracy_guard: f64,
    level: f64,
    trend: f64,
    primed: bool,
}

impl Default for PredictivePolicy {
    fn default() -> Self {
        PredictivePolicy {
            alpha: 0.4,
            beta: 0.2,
            target_util: 0.6,
            p99_guard_frac: 0.7,
            accuracy_guard: 0.0,
            level: 0.0,
            trend: 0.0,
            primed: false,
        }
    }
}

impl PredictivePolicy {
    /// The default predictive controller.
    #[must_use]
    pub fn new() -> Self {
        PredictivePolicy::default()
    }

    /// Checks the knobs' ranges; the reason names the knob.
    pub(crate) fn validate(&self) -> Result<(), String> {
        fraction("alpha", self.alpha)?;
        fraction("beta", self.beta)?;
        fraction("target_util", self.target_util)?;
        validate_guard(self.p99_guard_frac, self.accuracy_guard)
    }
}

impl ControlPolicy for PredictivePolicy {
    fn name(&self) -> &str {
        "predictive"
    }

    fn plan(&mut self, obs: &WindowObservation, view: &FleetView) -> ControlAction {
        let rate = obs.arrival_rate_rps;
        if self.primed {
            let prev_level = self.level;
            self.level = self.alpha * rate + (1.0 - self.alpha) * (self.level + self.trend);
            self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
        } else {
            self.level = rate;
            self.trend = 0.0;
            self.primed = true;
        }
        // Look one boot ahead: capacity ordered now serves then.
        let lead_windows = (view.boot_s / view.window_s).ceil() + 1.0;
        let forecast_rps = (self.level + self.trend * lead_windows).max(0.0);
        // Work the standing backlog off over ~two windows.
        let backlog_rps = obs.queue_depth as f64 / (2.0 * view.window_s);
        let denom = view.capacity_rps_per_instance * self.target_util;
        let target = if denom > 0.0 {
            ((forecast_rps + backlog_rps) / denom).ceil() as usize
        } else {
            obs.active + obs.booting
        };
        let (admission, shed_to) =
            overload_guard(obs, view, self.p99_guard_frac, self.accuracy_guard);
        ControlAction {
            target_active: target,
            admission,
            shed_to,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> FleetView {
        FleetView {
            n_instances: 8,
            min_active: 1,
            n_classes: 2,
            capacity_rps_per_instance: 1000.0,
            boot_s: 0.004,
            window_s: 0.005,
            tightest_slo_s: 0.010,
            class_slo_s: vec![0.010, 0.050],
            shed_priority: vec![1, 0],
        }
    }

    fn obs(arrivals: u64, queue: usize, active: usize, p99_s: f64) -> WindowObservation {
        WindowObservation {
            index: 0,
            t0_s: 0.0,
            t1_s: 0.005,
            arrivals,
            admitted: arrivals,
            rejected: 0,
            throttled: 0,
            completed: arrivals,
            shed: 0,
            arrival_rate_rps: arrivals as f64 / 0.005,
            queue_depth: queue,
            p50_s: p99_s * 0.5,
            p99_s,
            utilization: 0.5,
            active,
            booting: 0,
            parked: 8 - active,
            worst_quoted_accuracy: 1.0,
        }
    }

    #[test]
    fn reactive_scales_up_under_load_and_down_when_idle() {
        let mut p = ReactivePolicy::new();
        // 4 active × 5 req/window capacity, 30 arrivals: load 1.5 ⇒ up
        let up = p.plan(&obs(30, 0, 4, 0.001), &view());
        assert!(up.target_active > 4, "target {}", up.target_active);
        // idle for cooldown_windows windows ⇒ one step down
        let mut p = ReactivePolicy::new();
        let first = p.plan(&obs(0, 0, 4, 0.0), &view());
        assert_eq!(first.target_active, 4, "hysteresis holds the first window");
        let second = p.plan(&obs(0, 0, 4, 0.0), &view());
        assert_eq!(second.target_active, 3, "one step per cooldown expiry");
    }

    #[test]
    fn predictive_trend_preprovisions_a_ramp() {
        let mut p = PredictivePolicy::new();
        let v = view();
        // steadily rising rate: 1000 → 5000 req/s over five windows
        let mut last = 0;
        for k in 0..5u64 {
            let arrivals = 5 + 5 * k; // per 5 ms window
            last = p.plan(&obs(arrivals, 0, 4, 0.001), &v).target_active;
        }
        // rate at the last window is 5 krps; forecast + headroom must
        // ask for more than the naive rate/capacity = 5 instances
        assert!(last > 5, "predictive target {last} should lead the ramp");
    }

    #[test]
    fn overload_guard_sheds_only_the_loosest_class() {
        let mut p = ReactivePolicy::new();
        let v = view();
        // p99 at 90% of the tight SLO with a deep backlog
        let act = p.plan(&obs(10, 500, 4, 0.009), &v);
        assert_eq!(act.admission[1], Admission::Closed, "loose class closed");
        assert_eq!(act.admission[0], Admission::Open, "tight class protected");
        assert!(act.shed_to[1].is_some());
        assert!(act.shed_to[0].is_none());
        // healthy latency ⇒ guard stands down
        let calm = p.plan(&obs(10, 500, 4, 0.001), &v);
        assert!(calm.admission.iter().all(|a| *a == Admission::Open));
    }

    #[test]
    fn accuracy_guard_sheds_at_healthy_latency() {
        let mut p = ReactivePolicy {
            accuracy_guard: 0.85,
            ..ReactivePolicy::new()
        };
        let v = view();
        // healthy p99, deep backlog, but the fleet's worst quote has
        // drifted below the guard
        let mut drifted = obs(10, 500, 4, 0.001);
        drifted.worst_quoted_accuracy = 0.77;
        let act = p.plan(&drifted, &v);
        assert_eq!(act.admission[1], Admission::Closed, "loose class closed");
        assert!(act.shed_to[1].is_some());
        // at the guard exactly (strict <) the guard stands down
        let mut at_guard = obs(10, 500, 4, 0.001);
        at_guard.worst_quoted_accuracy = 0.85;
        let calm = p.plan(&at_guard, &v);
        assert!(calm.admission.iter().all(|a| *a == Admission::Open));
        // default guard 0.0 can never fire, whatever the quote
        let mut p0 = ReactivePolicy::new();
        let mut worst = obs(10, 500, 4, 0.001);
        worst.worst_quoted_accuracy = 0.0;
        let never = p0.plan(&worst, &v);
        assert!(never.admission.iter().all(|a| *a == Admission::Open));
    }

    #[test]
    fn hold_changes_nothing() {
        let mut p = Hold;
        let act = p.plan(&obs(10, 5, 6, 0.002), &view());
        assert_eq!(act.target_active, 6);
        assert!(act.admission.iter().all(|a| *a == Admission::Open));
        assert!(act.shed_to.iter().all(Option::is_none));
    }
}
