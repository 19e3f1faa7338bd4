//! Fleet-level fault timelines and the named chaos scenarios.
//!
//! `pcnna_photonics::degradation` tells the story of **one device's**
//! physics over time; this module lifts it to the fleet: a
//! [`FaultTimeline`] is a chronological list of [`FaultEvent`]s, each
//! aimed at one accelerator instance, that the discrete-event engine
//! interleaves with arrivals and completions. Three actions cover the
//! space:
//!
//! * [`FaultAction::Degrade`] — apply a health snapshot; the engine
//!   re-derives the instance's service quotes from it (slower frames
//!   on fewer channels, pricier frames on aged lasers, or no quote at
//!   all when the state is unserviceable).
//! * [`FaultAction::Fail`] — hard failure: the in-flight batch is
//!   aborted and its requests **fail over** (requeued at the front of
//!   their class queue, preserving arrival order); the instance stops
//!   accepting work until a later recalibration repairs it.
//! * [`FaultAction::Recalibrate`] — drain (finish the current batch),
//!   go offline for `duration_s`, then return with rings re-locked
//!   ([`HealthState::recalibrated`] — drift resets, dead channels and
//!   laser aging do not) and fresh quotes.
//!
//! [`ChaosKind`] names the standing scenarios the CI matrix runs —
//! heat wave, laser aging, channel-loss burst, rolling recalibration —
//! and [`chaos_timeline`] generates each deterministically from a
//! seed, scaled to the scenario horizon so the same shapes work for a
//! 50 ms smoke run and a multi-second soak.
//!
//! Every fault the engine applies is visible to the telemetry layer
//! (see [`telemetry`](crate::telemetry)): a [`FaultAction::Fail`]
//! surfaces as one instance-level `failover` trace event plus one
//! per sampled in-flight request, a [`FaultAction::Recalibrate`]
//! as a `recal-drain` when the drain starts and a `readmit` when the
//! instance returns to service. Because the timeline is deterministic
//! and per-instance, traced chaos runs are byte-identical across
//! shard and thread counts.

use pcnna_core::config::PcnnaConfig;
use pcnna_photonics::degradation::{
    DegradationLimits, DegradationTimeline, FaultProfile, HealthState,
};

/// What happens to one instance at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Apply a health snapshot and re-derive the instance's quotes.
    Degrade(HealthState),
    /// Hard failure: abort in-flight work (requests fail over to the
    /// queues) and stop serving until a recalibration repairs the
    /// instance.
    Fail,
    /// Drain, recalibrate for `duration_s` seconds offline, and return
    /// to service with rings re-locked.
    Recalibrate {
        /// Offline window length, seconds.
        duration_s: f64,
    },
}

/// One timed fault aimed at one accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time of the event, seconds.
    pub at_s: f64,
    /// Index into the scenario's instance list.
    pub instance: usize,
    /// The action applied.
    pub action: FaultAction,
}

impl FaultEvent {
    /// Builds a validated event: time must be finite and non-negative,
    /// and the action well-formed (positive finite recalibration
    /// windows that end at a finite time, valid health snapshots). The instance index is checked
    /// against a fleet size by [`FaultTimeline::try_from_events`] /
    /// [`FaultTimeline::validate`], which know the fleet.
    ///
    /// # Errors
    ///
    /// Returns a reason string for NaN/negative/infinite times or a
    /// malformed action.
    pub fn try_new(
        at_s: f64,
        instance: usize,
        action: FaultAction,
    ) -> core::result::Result<FaultEvent, String> {
        let event = FaultEvent {
            at_s,
            instance,
            action,
        };
        event.check().map_err(|e| format!("fault event {e}"))?;
        Ok(event)
    }

    /// The checks that need no fleet size. The reason starts with the
    /// failing key, relative to the event (`at_s`, `action.…`).
    fn check(&self) -> core::result::Result<(), String> {
        if !self.at_s.is_finite() || self.at_s < 0.0 {
            return Err(format!("at_s must be finite and ≥ 0, got {}", self.at_s));
        }
        match self.action {
            FaultAction::Degrade(h) => h
                .validate()
                .map_err(|err| format!("action.degrade is invalid: {err}")),
            FaultAction::Recalibrate { duration_s } => {
                if !(duration_s > 0.0) || !duration_s.is_finite() {
                    return Err(format!(
                        "action.recalibrate.duration_s must be finite and positive, \
                         got {duration_s}"
                    ));
                }
                // The engine schedules the restore at `at_s + duration_s`.
                if !(self.at_s + duration_s).is_finite() {
                    return Err(format!(
                        "action.recalibrate.duration_s {duration_s:e} at at_s {:e} ends \
                         past the largest finite time",
                        self.at_s
                    ));
                }
                Ok(())
            }
            FaultAction::Fail => Ok(()),
        }
    }
}

/// A chronological fault schedule for a whole fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// An empty timeline (the default: pristine hardware forever).
    #[must_use]
    pub fn new() -> Self {
        FaultTimeline::default()
    }

    /// Builds a timeline, stably sorting the events by time (same-
    /// instant events keep their given order, so composed generators
    /// stay deterministic).
    #[must_use]
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        FaultTimeline { events }
    }

    /// Builds a validated timeline against a fleet of `n_instances`:
    /// every event must pass [`FaultEvent::try_new`]'s checks and
    /// target an in-range instance. This is the strict front door the
    /// scenario DSL and the fuzzer use — malformed timelines are
    /// rejected at build time instead of misbehaving deep inside the
    /// event loop.
    ///
    /// # Errors
    ///
    /// Returns a reason string naming the offending event.
    pub fn try_from_events(
        events: Vec<FaultEvent>,
        n_instances: usize,
    ) -> core::result::Result<FaultTimeline, String> {
        // Checked before the sort, so `events[k]` in a reason is the
        // caller's index.
        let unsorted = FaultTimeline { events };
        unsorted.validate(n_instances)?;
        Ok(FaultTimeline::from_events(unsorted.events))
    }

    /// The events in chronological order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sub-timeline aimed at a contiguous instance `range`, with
    /// instance indices remapped to be range-local — the slice a shard
    /// cell (which owns a contiguous slab of the fleet) replays. Event
    /// order is preserved, so slicing then replaying is exactly the
    /// original timeline as seen from inside the range.
    #[must_use]
    pub fn slice_instances(&self, range: std::ops::Range<usize>) -> FaultTimeline {
        FaultTimeline {
            events: self
                .events
                .iter()
                .filter(|e| range.contains(&e.instance))
                .map(|e| FaultEvent {
                    instance: e.instance - range.start,
                    ..*e
                })
                .collect(),
        }
    }

    /// Validates the timeline against a fleet of `n_instances`.
    ///
    /// # Errors
    ///
    /// Returns a reason naming the key path of the first bad event —
    /// `faults.events[k].instance` out of range, `.at_s` negative or
    /// non-finite, `.action` a non-positive recalibration window or an
    /// invalid health snapshot — where `k` indexes [`events`](Self::events).
    pub fn validate(&self, n_instances: usize) -> core::result::Result<(), String> {
        for (k, e) in self.events.iter().enumerate() {
            if e.instance >= n_instances {
                return Err(format!(
                    "faults.events[{k}].instance {} is out of range for a \
                     {n_instances}-instance fleet",
                    e.instance
                ));
            }
            e.check()
                .map_err(|err| format!("faults.events[{k}].{err}"))?;
        }
        Ok(())
    }
}

/// The named chaos scenarios of the standing CI matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosKind {
    /// A fleet-wide ambient excursion: staggered onsets push every
    /// instance past its drift budget, forcing a recalibration storm
    /// while traffic keeps arriving.
    HeatWave,
    /// Slow exponential laser decay with per-instance rate jitter:
    /// energy per request creeps up, and the fastest-aging diodes
    /// cross the SNR floor and drop out permanently.
    LaserAging,
    /// Converter channels die in bursts: two instances lose a third of
    /// their input DACs (and keep serving, slower), one loses its whole
    /// input array — hard failover — and is later repaired.
    ChannelLossBurst,
    /// Scheduled maintenance: each instance recalibrates in turn, so
    /// capacity dips one instance at a time with no degradation at all.
    RollingRecalibration,
}

impl ChaosKind {
    /// Every named scenario, in matrix order.
    pub const ALL: [ChaosKind; 4] = [
        ChaosKind::HeatWave,
        ChaosKind::LaserAging,
        ChaosKind::ChannelLossBurst,
        ChaosKind::RollingRecalibration,
    ];

    /// The CLI/CI name (kebab-case).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::HeatWave => "heat-wave",
            ChaosKind::LaserAging => "laser-aging",
            ChaosKind::ChannelLossBurst => "channel-loss-burst",
            ChaosKind::RollingRecalibration => "rolling-recalibration",
        }
    }

    /// Parses a CLI/CI name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// Knobs shared by every chaos generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Serviceability envelope the generated stories are judged
    /// against (also what the engine uses to requote).
    pub limits: DegradationLimits,
    /// Recalibration window, seconds.
    pub recalibration_s: f64,
    /// Generator seed: same seed ⇒ byte-identical timeline.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            limits: DegradationLimits::default(),
            recalibration_s: 2e-3,
            seed: 0,
        }
    }
}

/// Per-instance sub-seed: decorrelates instances while keeping the
/// whole timeline a pure function of the scenario seed (splitmix-style
/// mixing so adjacent instances land far apart).
fn instance_seed(seed: u64, instance: usize) -> u64 {
    let mut z = seed ^ (instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the named scenario's fault timeline for a fleet of
/// `instances` over `horizon_s` seconds. Deterministic in
/// `(kind, instances, horizon_s, cfg)`; every shape scales with the
/// horizon, so smoke and soak runs exercise the same story.
#[must_use]
pub fn chaos_timeline(
    kind: ChaosKind,
    instances: &[PcnnaConfig],
    horizon_s: f64,
    cfg: &ChaosConfig,
) -> FaultTimeline {
    let n = instances.len();
    let h = horizon_s;
    let mut events: Vec<FaultEvent> = Vec::new();
    match kind {
        ChaosKind::HeatWave => {
            // Push 2.5× past the drift budget so every instance must
            // re-lock at least once on the way up and once on the way
            // back down.
            let peak = 2.5 * cfg.limits.max_ambient_excursion_k;
            for i in 0..n {
                let profile = FaultProfile::HeatWave {
                    onset_s: 0.15 * h,
                    onset_jitter_s: 0.10 * h,
                    ramp_s: 0.20 * h,
                    hold_s: 0.25 * h,
                    peak_delta_k: peak,
                    steps: 6,
                };
                let story =
                    DegradationTimeline::generate(&[profile], h, instance_seed(cfg.seed, i));
                // Walk the absolute-temperature story, maintaining the
                // ring-lock reference: the engine's Recalibrate re-locks
                // at the then-current ambient, so drift is re-measured
                // from each lock point.
                let mut lock_ref_k = 0.0;
                for &(t, s) in story.events() {
                    let rel = s.ambient_delta_k - lock_ref_k;
                    events.push(FaultEvent {
                        at_s: t,
                        instance: i,
                        action: FaultAction::Degrade(HealthState {
                            ambient_delta_k: rel,
                            ..s
                        }),
                    });
                    if rel.abs() > cfg.limits.max_ambient_excursion_k {
                        events.push(FaultEvent {
                            at_s: t,
                            instance: i,
                            action: FaultAction::Recalibrate {
                                duration_s: cfg.recalibration_s,
                            },
                        });
                        lock_ref_k = s.ambient_delta_k;
                    }
                }
            }
        }
        ChaosKind::LaserAging => {
            // τ ≈ 1.5 horizons ± 40% (a fleet of diodes well past their
            // rated hours, compressed to the horizon): the median diode
            // ends the run around 0.5–0.6 of nominal power, so the
            // fastest-aging ones cross the 0.5 SNR floor inside the run
            // and drop out for good.
            for i in 0..n {
                let profile = FaultProfile::LaserAging {
                    tau_s: 1.5 * h,
                    tau_jitter_frac: 0.4,
                    steps: 8,
                };
                let story =
                    DegradationTimeline::generate(&[profile], h, instance_seed(cfg.seed, i));
                for &(t, s) in story.events() {
                    if s.laser_power_factor < cfg.limits.min_laser_power_factor {
                        events.push(FaultEvent {
                            at_s: t,
                            instance: i,
                            action: FaultAction::Fail,
                        });
                        break; // dead diode: nothing left to tell
                    }
                    events.push(FaultEvent {
                        at_s: t,
                        instance: i,
                        action: FaultAction::Degrade(s),
                    });
                }
            }
        }
        ChaosKind::ChannelLossBurst => {
            // Two partial bursts and one fatal one, spread across the
            // fleet by the seed. Partial victims keep serving on the
            // surviving channels; the fatal victim hard-fails over and
            // is repaired (spare mux + re-lock) later.
            let pick = |salt: usize| instance_seed(cfg.seed, salt) as usize % n.max(1);
            let victim_a = pick(0);
            let victim_b = if n > 1 {
                (victim_a + 1 + pick(1) % (n - 1)) % n
            } else {
                0
            };
            let fatal = pick(2);
            for (victim, at_frac, salt) in [(victim_a, 0.25, 3usize), (victim_b, 0.55, 4usize)] {
                let dacs = instances[victim].n_input_dacs;
                let adcs = instances[victim].n_adcs;
                let story = DegradationTimeline::generate(
                    &[FaultProfile::ChannelLossBurst {
                        at_s: at_frac * h,
                        jitter_s: 0.05 * h,
                        input_channels: dacs.div_ceil(3),
                        output_channels: adcs / 4,
                    }],
                    h,
                    instance_seed(cfg.seed, 16 + salt),
                );
                for &(t, s) in story.events() {
                    events.push(FaultEvent {
                        at_s: t,
                        instance: victim,
                        action: FaultAction::Degrade(s),
                    });
                }
            }
            let t_fail = 0.40 * h;
            let t_repair = 0.60 * h;
            events.push(FaultEvent {
                at_s: t_fail,
                instance: fatal,
                action: FaultAction::Fail,
            });
            // repair: half the input array survives behind the spare
            // mux; the recalibration re-locks and requotes it
            events.push(FaultEvent {
                at_s: t_repair,
                instance: fatal,
                action: FaultAction::Degrade(HealthState {
                    dead_input_channels: instances[fatal].n_input_dacs / 2,
                    ..HealthState::nominal()
                }),
            });
            events.push(FaultEvent {
                at_s: t_repair,
                instance: fatal,
                action: FaultAction::Recalibrate {
                    duration_s: cfg.recalibration_s,
                },
            });
        }
        ChaosKind::RollingRecalibration => {
            // One instance at a time, evenly staggered through the
            // middle of the run.
            for i in 0..n {
                let t = h * (0.5 + i as f64) / (n as f64 + 1.0);
                events.push(FaultEvent {
                    at_s: t,
                    instance: i,
                    action: FaultAction::Recalibrate {
                        duration_s: cfg.recalibration_s,
                    },
                });
            }
        }
    }
    events.retain(|e| e.at_s <= horizon_s);
    FaultTimeline::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<PcnnaConfig> {
        vec![PcnnaConfig::default(); n]
    }

    #[test]
    fn timeline_sorts_and_validates() {
        let tl = FaultTimeline::from_events(vec![
            FaultEvent {
                at_s: 0.5,
                instance: 1,
                action: FaultAction::Fail,
            },
            FaultEvent {
                at_s: 0.1,
                instance: 0,
                action: FaultAction::Recalibrate { duration_s: 0.01 },
            },
        ]);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events()[0].at_s, 0.1);
        assert!(tl.validate(2).is_ok());
        assert!(tl.validate(1).is_err(), "instance 1 out of range");
    }

    #[test]
    fn slice_instances_filters_and_remaps() {
        let tl = FaultTimeline::from_events(vec![
            FaultEvent {
                at_s: 0.1,
                instance: 0,
                action: FaultAction::Fail,
            },
            FaultEvent {
                at_s: 0.2,
                instance: 2,
                action: FaultAction::Recalibrate { duration_s: 0.01 },
            },
            FaultEvent {
                at_s: 0.3,
                instance: 3,
                action: FaultAction::Fail,
            },
            FaultEvent {
                at_s: 0.4,
                instance: 2,
                action: FaultAction::Fail,
            },
        ]);
        let slice = tl.slice_instances(2..4);
        assert_eq!(slice.len(), 3);
        assert_eq!(slice.events()[0].instance, 0, "instance 2 → local 0");
        assert_eq!(slice.events()[1].instance, 1, "instance 3 → local 1");
        assert_eq!(slice.events()[2].instance, 0);
        assert_eq!(slice.events()[0].at_s, 0.2);
        assert!(slice.validate(2).is_ok());
        // the union of disjoint slices covers the timeline
        let rest = tl.slice_instances(0..2);
        assert_eq!(rest.len() + slice.len(), tl.len());
        // empty range → empty timeline
        assert!(tl.slice_instances(1..1).is_empty());
    }

    #[test]
    fn validation_rejects_degenerate_events() {
        let bad_time = FaultTimeline::from_events(vec![FaultEvent {
            at_s: -1.0,
            instance: 0,
            action: FaultAction::Fail,
        }]);
        assert!(bad_time.validate(1).is_err());
        let bad_recal = FaultTimeline::from_events(vec![FaultEvent {
            at_s: 0.0,
            instance: 0,
            action: FaultAction::Recalibrate { duration_s: 0.0 },
        }]);
        assert!(bad_recal.validate(1).is_err());
        let endless_recal = FaultTimeline::from_events(vec![FaultEvent {
            at_s: 1e308,
            instance: 0,
            action: FaultAction::Recalibrate { duration_s: 1e308 },
        }]);
        let err = endless_recal.validate(1).unwrap_err();
        assert!(
            err.contains("faults.events[0].action.recalibrate.duration_s"),
            "{err}"
        );
        let bad_health = FaultTimeline::from_events(vec![FaultEvent {
            at_s: 0.0,
            instance: 0,
            action: FaultAction::Degrade(HealthState {
                laser_power_factor: 2.0,
                ..HealthState::nominal()
            }),
        }]);
        assert!(bad_health.validate(1).is_err());
    }

    #[test]
    fn try_new_rejects_each_malformed_field() {
        // every rejection path, one by one
        assert!(FaultEvent::try_new(f64::NAN, 0, FaultAction::Fail).is_err());
        assert!(FaultEvent::try_new(-0.001, 0, FaultAction::Fail).is_err());
        assert!(FaultEvent::try_new(f64::INFINITY, 0, FaultAction::Fail).is_err());
        assert!(FaultEvent::try_new(0.0, 0, FaultAction::Recalibrate { duration_s: 0.0 }).is_err());
        assert!(FaultEvent::try_new(
            0.0,
            0,
            FaultAction::Recalibrate {
                duration_s: f64::NAN
            }
        )
        .is_err());
        assert!(FaultEvent::try_new(
            0.0,
            0,
            FaultAction::Degrade(HealthState {
                laser_power_factor: -0.5,
                ..HealthState::nominal()
            })
        )
        .is_err());
        assert!(FaultEvent::try_new(
            0.0,
            0,
            FaultAction::Degrade(HealthState {
                ambient_delta_k: f64::NAN,
                ..HealthState::nominal()
            })
        )
        .is_err());
        // and the happy path
        let ok = FaultEvent::try_new(0.5, 3, FaultAction::Fail).unwrap();
        assert_eq!(ok.at_s, 0.5);
        assert_eq!(ok.instance, 3);
    }

    #[test]
    fn try_from_events_checks_instance_range_and_sorts() {
        let events = vec![
            FaultEvent {
                at_s: 0.2,
                instance: 1,
                action: FaultAction::Fail,
            },
            FaultEvent {
                at_s: 0.1,
                instance: 0,
                action: FaultAction::Fail,
            },
        ];
        let tl = FaultTimeline::try_from_events(events.clone(), 2).unwrap();
        assert_eq!(tl.events()[0].at_s, 0.1, "events must come out sorted");
        // out-of-range instance index
        assert!(FaultTimeline::try_from_events(events.clone(), 1).is_err());
        // malformed member event
        let mut bad = events;
        bad.push(FaultEvent {
            at_s: f64::NAN,
            instance: 0,
            action: FaultAction::Fail,
        });
        assert!(FaultTimeline::try_from_events(bad, 2).is_err());
    }

    #[test]
    fn chaos_names_round_trip() {
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ChaosKind::from_name("no-such-scenario"), None);
    }

    #[test]
    fn chaos_timelines_are_seed_deterministic_and_valid() {
        let cfg = ChaosConfig::default();
        for kind in ChaosKind::ALL {
            let a = chaos_timeline(kind, &fleet(4), 0.1, &cfg);
            let b = chaos_timeline(kind, &fleet(4), 0.1, &cfg);
            assert_eq!(a, b, "{kind:?} must reproduce from its seed");
            assert!(!a.is_empty(), "{kind:?} generated no events");
            assert!(a.validate(4).is_ok(), "{kind:?} generated invalid events");
            let other = chaos_timeline(kind, &fleet(4), 0.1, &ChaosConfig { seed: 1, ..cfg });
            if kind != ChaosKind::RollingRecalibration {
                // rolling recal is deliberately jitter-free
                assert_ne!(a, other, "{kind:?} ignores its seed");
            }
        }
    }

    #[test]
    fn heat_wave_forces_recalibrations() {
        let tl = chaos_timeline(ChaosKind::HeatWave, &fleet(3), 0.1, &ChaosConfig::default());
        let recals = tl
            .events()
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Recalibrate { .. }))
            .count();
        assert!(
            recals >= 3,
            "a 2.5×-budget excursion must re-lock every instance, got {recals}"
        );
        // post-recal degrades are measured from the new lock point: no
        // Degrade right after a Recalibrate repeats the absolute peak
        let peak_rel = tl
            .events()
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Degrade(h) => Some(h.ambient_delta_k.abs()),
                _ => None,
            })
            .fold(0.0, f64::max);
        let budget = ChaosConfig::default().limits.max_ambient_excursion_k;
        assert!(
            peak_rel < 2.5 * budget,
            "relative drift {peak_rel} should stay below the absolute peak"
        );
    }

    #[test]
    fn laser_aging_fails_the_fastest_diodes_only_once() {
        let tl = chaos_timeline(
            ChaosKind::LaserAging,
            &fleet(6),
            0.1,
            &ChaosConfig::default(),
        );
        for i in 0..6 {
            let fails = tl
                .events()
                .iter()
                .filter(|e| e.instance == i && matches!(e.action, FaultAction::Fail))
                .count();
            assert!(fails <= 1, "instance {i} failed {fails} times");
        }
    }

    #[test]
    fn channel_burst_includes_failover_and_repair() {
        let tl = chaos_timeline(
            ChaosKind::ChannelLossBurst,
            &fleet(4),
            0.1,
            &ChaosConfig::default(),
        );
        assert!(tl
            .events()
            .iter()
            .any(|e| matches!(e.action, FaultAction::Fail)));
        assert!(tl
            .events()
            .iter()
            .any(|e| matches!(e.action, FaultAction::Recalibrate { .. })));
        assert!(tl.events().iter().any(|e| matches!(
            e.action,
            FaultAction::Degrade(h) if h.dead_input_channels > 0
        )));
    }

    #[test]
    fn rolling_recalibration_covers_every_instance() {
        let tl = chaos_timeline(
            ChaosKind::RollingRecalibration,
            &fleet(5),
            0.1,
            &ChaosConfig::default(),
        );
        assert_eq!(tl.len(), 5);
        for i in 0..5 {
            assert!(tl.events().iter().any(|e| e.instance == i));
        }
    }
}
