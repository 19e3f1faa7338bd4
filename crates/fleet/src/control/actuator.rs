//! The control loop's hands: applying a plan to the engine.
//!
//! The actuator owns the two things a plan is not allowed to decide
//! for itself: **clamping** (targets are bounded to
//! `[min_active, fleet]` and to `max_step` changes per window, so no
//! policy bug can teleport the fleet) and **selection** (which
//! concrete instance boots or parks — deterministic index order, so
//! the same plan always touches the same hardware). It also keeps the
//! powered-time ledger the energy accounting needs: an instance is
//! powered from unpark (boot current flows from the order) until the
//! park that takes it down.

use super::ControlConfig;
use crate::engine::core::CellEngine;
use crate::telemetry::TraceSink;

/// Applies clamped scaling plans and meters powered instance-time.
pub(crate) struct Actuator {
    min_active: usize,
    max_step: usize,
    boot_s: f64,
    /// When each powered instance was last powered on (`None` =
    /// parked). Failed instances stay powered — a crashed card still
    /// draws idle power until the control plane parks it.
    on_since: Vec<Option<f64>>,
    powered_s: f64,
    pub(crate) scale_ups: u64,
    pub(crate) scale_downs: u64,
}

impl Actuator {
    /// Powers the first `cfg.initial_active` of `n` instances (clamped to
    /// `[min_active, n]`); [`park_unpowered`](Self::park_unpowered) parks the rest.
    pub(crate) fn new(n: usize, cfg: &ControlConfig) -> Actuator {
        let min_active = cfg.min_active.min(n);
        let initial_active = cfg.initial_active.clamp(min_active, n);
        Actuator {
            min_active,
            max_step: cfg.max_step,
            boot_s: cfg.boot_s,
            on_since: (0..n)
                .map(|i| (i < initial_active).then_some(0.0))
                .collect(),
            powered_s: 0.0,
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Parks every unpowered instance, at t = 0 before any arrival.
    pub(crate) fn park_unpowered<S: TraceSink>(&self, cell: &mut CellEngine<'_, S>) {
        for (i, on) in self.on_since.iter().enumerate() {
            if on.is_none() {
                let parked = cell.park_instance(i, 0.0);
                debug_assert!(parked, "pristine instances must park");
            }
        }
    }

    /// Drives provisioned capacity (active + booting) toward `target`
    /// at time `t`: boots parked instances lowest-index first, parks
    /// running ones preferring idle over booting over busy (a drained
    /// park wastes the least work), highest-index first within each
    /// preference tier. The target is clamped to
    /// `[min_active, fleet size]` and to `max_step` moves per call.
    pub(crate) fn apply<S: TraceSink>(
        &mut self,
        cell: &mut CellEngine<'_, S>,
        target: usize,
        t: f64,
    ) {
        let n = cell.n_instances();
        let target = target.clamp(self.min_active.min(n), n);
        // Provisioned = powered per the ledger AND serving or booting.
        // Excludes park-pending drains (their power already closed) and
        // failed instances (powered, but not capacity).
        let provision = (0..n)
            .filter(|&i| self.on_since[i].is_some() && (cell.is_active(i) || cell.is_booting(i)))
            .count();
        if target > provision {
            let mut need = (target - provision).min(self.max_step);
            for i in 0..n {
                if need == 0 {
                    break;
                }
                if cell.is_parked(i) && cell.unpark_instance(i, t, self.boot_s) {
                    self.on_since[i] = Some(t);
                    self.scale_ups += 1;
                    need -= 1;
                }
            }
        } else if target < provision {
            let mut excess = (provision - target).min(self.max_step);
            // tiers: idle (park lands now), booting (abort the boot),
            // busy (drain then park — power closes at the request; the
            // drain tail's service energy is still billed in full)
            for tier in 0..3u8 {
                for i in (0..n).rev() {
                    if excess == 0 {
                        break;
                    }
                    let in_tier = match tier {
                        0 => cell.is_idle(i),
                        1 => cell.is_booting(i),
                        _ => cell.is_active(i),
                    };
                    if in_tier
                        && self.on_since[i].is_some()
                        && !cell.is_parked(i)
                        && cell.park_instance(i, t)
                    {
                        if let Some(t0) = self.on_since[i].take() {
                            self.powered_s += (t - t0).max(0.0);
                        }
                        self.scale_downs += 1;
                        excess -= 1;
                    }
                }
            }
        }
    }

    /// A hard failure may have pulled an instance out of the parked
    /// pool without the actuator hearing about it; re-open its power
    /// ledger so failed-but-unparked time is billed. Called once per
    /// window.
    pub(crate) fn reconcile<S: TraceSink>(&mut self, cell: &CellEngine<'_, S>, t: f64) {
        for i in 0..cell.n_instances() {
            if self.on_since[i].is_none() && !cell.is_parked(i) {
                self.on_since[i] = Some(t);
            }
        }
    }

    /// Powered instance-seconds accumulated through time `t`: the
    /// closed ledger plus every open interval priced as if it closed
    /// now. The telemetry timeline differences this per window.
    pub(crate) fn powered_through(&self, t: f64) -> f64 {
        let open: f64 = self
            .on_since
            .iter()
            .flatten()
            .map(|t0| (t - t0).max(0.0))
            .sum();
        self.powered_s + open
    }

    /// Closes every open power interval at the run's makespan and
    /// returns total powered instance-seconds.
    pub(crate) fn close(mut self, makespan_s: f64) -> f64 {
        for t0 in self.on_since.iter().flatten() {
            self.powered_s += (makespan_s - t0).max(0.0);
        }
        self.powered_s
    }
}
