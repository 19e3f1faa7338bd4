//! Fleet-level fault timelines and the named chaos scenarios.
//!
//! `pcnna_photonics::degradation` says how broken **one device** is at
//! an instant; this module says when, across the fleet: a
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
//! and [`chaos_timeline`] emits each one's fleet events directly, from a
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
use pcnna_photonics::degradation::{DegradationLimits, HealthState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        validate_events(&self.events, n_instances)
    }
}

/// [`FaultTimeline::validate`] over events in the caller's order: the
/// scenario DSL checks its file's events in place, and `k` in a reason
/// is the file's index.
pub(crate) fn validate_events(
    events: &[FaultEvent],
    n_instances: usize,
) -> core::result::Result<(), String> {
    for (k, e) in events.iter().enumerate() {
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

/// A story's one random draw: a uniform jitter in `(-half, half)` from
/// the generator seeded for sub-seed `salt` (zero for an empty window).
fn story_jitter(seed: u64, salt: usize, half: f64) -> f64 {
    if half > 0.0 {
        StdRng::seed_from_u64(instance_seed(seed, salt) ^ 0xDE6A_DE0D).gen_range(-half..half)
    } else {
        0.0
    }
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
            // back down. The ambient ramps up in `STEPS` piecewise-
            // constant steps from a jittered onset, holds, and ramps
            // back down.
            const STEPS: usize = 6;
            let peak = 2.5 * cfg.limits.max_ambient_excursion_k;
            let (ramp_s, hold_s) = (0.20 * h, 0.25 * h);
            let frac = |k: usize| k as f64 / STEPS as f64;
            for i in 0..n {
                let onset = (0.15 * h + story_jitter(cfg.seed, i, 0.10 * h)).max(0.0);
                let fall_start = onset + ramp_s + hold_s;
                let up = (1..=STEPS).map(|k| (onset + frac(k) * ramp_s, peak * frac(k)));
                let down =
                    (1..=STEPS).map(|k| (fall_start + frac(k) * ramp_s, peak * (1.0 - frac(k))));
                // Walk the absolute-temperature story, maintaining the
                // ring-lock reference: the engine's Recalibrate re-locks
                // at the then-current ambient, so drift is re-measured
                // from each lock point.
                let mut lock_ref_k = 0.0;
                for (t, ambient_k) in up.chain(down) {
                    let rel = ambient_k - lock_ref_k;
                    events.push(FaultEvent {
                        at_s: t,
                        instance: i,
                        action: FaultAction::Degrade(HealthState {
                            ambient_delta_k: rel,
                            ..HealthState::nominal()
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
                        lock_ref_k = ambient_k;
                    }
                }
            }
        }
        ChaosKind::LaserAging => {
            // Exponential decay, `factor(t) = exp(−t / τ)`, checked at
            // `STEPS` even points of the horizon. τ ≈ 1.5 horizons ± 40%
            // (a fleet of diodes well past their rated hours, compressed
            // to the horizon): the median diode ends the run around
            // 0.5–0.6 of nominal power, so the fastest-aging ones cross
            // the 0.5 SNR floor inside the run and drop out for good.
            const STEPS: usize = 8;
            for i in 0..n {
                let tau = (1.5 * h * (1.0 + story_jitter(cfg.seed, i, 0.4))).max(f64::MIN_POSITIVE);
                for k in 1..=STEPS {
                    let t = h * k as f64 / STEPS as f64;
                    let laser_power_factor = (-t / tau).exp().clamp(0.0, 1.0);
                    if laser_power_factor < cfg.limits.min_laser_power_factor {
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
                        action: FaultAction::Degrade(HealthState {
                            laser_power_factor,
                            ..HealthState::nominal()
                        }),
                    });
                }
            }
        }
        ChaosKind::ChannelLossBurst => {
            // Two partial bursts and one fatal one, spread across the
            // fleet by the seed. Partial victims lose a third of their
            // input DACs and a quarter of their ADCs at a jittered
            // instant and keep serving on the surviving channels; the
            // fatal victim hard-fails over and is repaired (spare mux +
            // re-lock) later.
            let pick = |salt: usize| instance_seed(cfg.seed, salt) as usize % n.max(1);
            let victim_a = pick(0);
            let victim_b = if n > 1 {
                (victim_a + 1 + pick(1) % (n - 1)) % n
            } else {
                0
            };
            let fatal = pick(2);
            for (victim, at_frac, salt) in [(victim_a, 0.25, 3usize), (victim_b, 0.55, 4usize)] {
                let jitter = story_jitter(cfg.seed, 16 + salt, 0.05 * h);
                events.push(FaultEvent {
                    at_s: (at_frac * h + jitter).max(0.0),
                    instance: victim,
                    action: FaultAction::Degrade(HealthState {
                        dead_input_channels: instances[victim].n_input_dacs.div_ceil(3),
                        dead_output_channels: instances[victim].n_adcs / 4,
                        ..HealthState::nominal()
                    }),
                });
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
        let recal = |duration_s| FaultAction::Recalibrate { duration_s };
        let degrade = |h| FaultAction::Degrade(h);
        let nominal = HealthState::nominal();
        // every rejection path, one by one, with the key it names
        let cases = [
            (f64::NAN, FaultAction::Fail, "at_s"),
            (-0.001, FaultAction::Fail, "at_s"),
            (-1.0, FaultAction::Fail, "at_s"),
            (f64::INFINITY, FaultAction::Fail, "at_s"),
            (0.0, recal(0.0), "action.recalibrate.duration_s"),
            (0.0, recal(f64::NAN), "action.recalibrate.duration_s"),
            (1e308, recal(1e308), "action.recalibrate.duration_s"),
            (
                0.0,
                degrade(HealthState {
                    laser_power_factor: 2.0,
                    ..nominal
                }),
                "action.degrade",
            ),
            (
                0.0,
                degrade(HealthState {
                    laser_power_factor: -0.5,
                    ..nominal
                }),
                "action.degrade",
            ),
            (
                0.0,
                degrade(HealthState {
                    ambient_delta_k: f64::NAN,
                    ..nominal
                }),
                "action.degrade",
            ),
        ];
        for (at_s, action, key) in cases {
            // a valid event first, so the reason indexes the bad one
            let tl = FaultTimeline {
                events: vec![
                    FaultEvent {
                        at_s: 0.5,
                        instance: 3,
                        action: FaultAction::Fail,
                    },
                    FaultEvent {
                        at_s,
                        instance: 0,
                        action,
                    },
                ],
            };
            let err = tl.validate(4).unwrap_err();
            assert!(err.starts_with(&format!("faults.events[1].{key}")), "{err}");
        }
    }

    #[test]
    fn try_new_rejects_each_malformed_field() {
        // one event at a time through the fleet-free checks, each
        // malformed field on its own
        let event = |at_s, action| FaultEvent {
            at_s,
            instance: 0,
            action,
        };
        let degrade = |h| FaultAction::Degrade(h);
        let nominal = HealthState::nominal();
        assert!(event(f64::NAN, FaultAction::Fail).check().is_err());
        assert!(event(-0.001, FaultAction::Fail).check().is_err());
        assert!(event(f64::INFINITY, FaultAction::Fail).check().is_err());
        assert!(event(0.0, FaultAction::Recalibrate { duration_s: 0.0 })
            .check()
            .is_err());
        assert!(event(
            0.0,
            FaultAction::Recalibrate {
                duration_s: f64::NAN
            }
        )
        .check()
        .is_err());
        assert!(event(
            0.0,
            degrade(HealthState {
                laser_power_factor: -0.5,
                ..nominal
            })
        )
        .check()
        .is_err());
        assert!(event(
            0.0,
            degrade(HealthState {
                ambient_delta_k: f64::NAN,
                ..nominal
            })
        )
        .check()
        .is_err());
        // and the happy path
        assert!(event(0.5, FaultAction::Fail).check().is_ok());
        assert!(event(0.5, FaultAction::Recalibrate { duration_s: 0.01 })
            .check()
            .is_ok());
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
        // checked in the caller's order: the reason names the caller's index
        let err = validate_events(&events, 1).unwrap_err();
        assert!(err.starts_with("faults.events[0].instance"), "{err}");
        assert!(validate_events(&events, 2).is_ok());
        let tl = FaultTimeline::from_events(events);
        assert_eq!(tl.events()[0].at_s, 0.1);
        assert_eq!(tl.events()[1].at_s, 0.2);
        assert_eq!(tl.events()[0].instance, 0);
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

    /// FNV-1a over every event's time, instance and action payload bits.
    fn digest(tl: &FaultTimeline) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for e in tl.events() {
            mix(e.at_s.to_bits());
            mix(e.instance as u64);
            match e.action {
                FaultAction::Degrade(s) => {
                    mix(0);
                    mix(s.ambient_delta_k.to_bits());
                    mix(s.laser_power_factor.to_bits());
                    mix(s.dead_input_channels as u64);
                    mix(s.dead_output_channels as u64);
                }
                FaultAction::Fail => mix(1),
                FaultAction::Recalibrate { duration_s } => {
                    mix(2);
                    mix(duration_s.to_bits());
                }
            }
        }
        h
    }

    #[test]
    fn chaos_timelines_are_pinned_bit_for_bit() {
        // Every byte a chaos scenario feeds the engine: count and digest
        // of each kind's timeline for an 8-instance default fleet.
        let cfg = ChaosConfig {
            seed: 7,
            ..ChaosConfig::default()
        };
        let pinned: [(usize, u64); 4] = [
            (128, 0x0f76_a57e_9c16_0cf8),
            (62, 0xac04_d090_623b_0ade),
            (5, 0x8e50_1fb0_15ea_4a5f),
            (8, 0x0e5c_5ae8_77d3_d790),
        ];
        let got = ChaosKind::ALL.map(|kind| {
            let tl = chaos_timeline(kind, &fleet(8), 0.05, &cfg);
            (tl.len(), digest(&tl))
        });
        assert_eq!(got, pinned);
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
