//! Seeded generative scenario sampler.
//!
//! [`ScenarioGen`] maps `(campaign seed, scenario index)` to a bounded,
//! always-valid [`ScenarioSpec`] through a splitmix64 stream — a pure
//! function, so the same seed reproduces the same scenario **file**
//! byte-for-byte ([`ScenarioSpec::render`] is deterministic). The
//! sample space deliberately crosses the regions the oracles care
//! about: over-budget degradations, hard failures, recalibration storms,
//! tiny admission queues, heterogeneous converter counts, and all three
//! arrival processes, under horizons short enough that a 50-scenario
//! campaign stays a smoke test.

use crate::control::policy::{PredictivePolicy, ReactivePolicy};
use crate::control::ControlConfig;
use crate::faults::{ChaosKind, FaultAction, FaultEvent};
use crate::scenario::{ClassSpec, ControlSpec, FaultSpec, InstanceSpec, PolicySpec, ScenarioSpec};
use crate::scheduler::Policy;
use crate::workload::ArrivalProcess;
use pcnna_photonics::degradation::{DegradationLimits, HealthState};

/// A splitmix64 stream — the same generator the chaos timelines use for
/// per-instance seeding, so the fuzzer adds no new RNG dependency.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`. Modulo bias is irrelevant at fuzzing scale.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Deterministic scenario sampler over a campaign seed.
#[derive(Debug, Clone)]
pub struct ScenarioGen {
    seed: u64,
}

impl ScenarioGen {
    /// A sampler for one campaign seed.
    #[must_use]
    pub fn new(seed: u64) -> ScenarioGen {
        ScenarioGen { seed }
    }

    /// The campaign seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `index`-th scenario of the campaign — a pure function of
    /// `(seed, index)`, always passing [`ScenarioSpec::validate`].
    #[must_use]
    pub fn generate(&self, index: u64) -> ScenarioSpec {
        // Decorrelate the per-scenario streams: a plain XOR would make
        // neighbouring indices near-identical under splitmix.
        let mut rng = Rng::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index.wrapping_mul(0xD134_2543_DE82_EF95)),
        );
        let horizon_s = rng.range(0.02, 0.05);

        // ~25% of classes carry an accuracy SLO; floors reach above the
        // pristine proxy top-1 (~0.89), so some classes are accuracy-
        // infeasible everywhere — the refusal path the oracles audit.
        let sample_floor = |rng: &mut Rng| {
            if rng.chance(0.25) {
                rng.range(0.5, 0.95)
            } else {
                0.0
            }
        };
        let mut classes = Vec::new();
        if rng.chance(0.8) {
            classes.push(ClassSpec {
                network: "lenet5".to_owned(),
                slo_s: rng.range(0.0005, 0.004),
                weight: rng.range(0.5, 4.0),
                min_accuracy: sample_floor(&mut rng),
            });
        }
        if classes.is_empty() || rng.chance(0.6) {
            classes.push(ClassSpec {
                network: "alexnet".to_owned(),
                slo_s: rng.range(0.002, 0.01),
                weight: rng.range(0.5, 4.0),
                min_accuracy: sample_floor(&mut rng),
            });
        }
        if rng.chance(0.15) {
            classes.push(ClassSpec {
                network: "vgg16".to_owned(),
                slo_s: rng.range(0.02, 0.08),
                weight: rng.range(0.2, 1.0),
                min_accuracy: sample_floor(&mut rng),
            });
        }
        let accuracy_routing = rng.chance(0.4);

        let arrival = match rng.below(3) {
            0 => ArrivalProcess::Poisson {
                rate_rps: rng.range(2_000.0, 25_000.0),
            },
            1 => {
                let low = rng.range(1_000.0, 8_000.0);
                ArrivalProcess::Mmpp {
                    low_rps: low,
                    high_rps: low * rng.range(2.0, 4.0),
                    dwell_low_s: rng.range(0.004, 0.02),
                    dwell_high_s: rng.range(0.002, 0.01),
                }
            }
            _ => {
                let base = rng.range(1_000.0, 8_000.0);
                ArrivalProcess::Diurnal {
                    base_rps: base,
                    peak_rps: base * rng.range(1.5, 3.0),
                    period_s: rng.range(0.01, 0.05),
                }
            }
        };

        let policy = match rng.below(3) {
            0 => Policy::Fifo,
            1 => Policy::EarliestDeadlineFirst,
            _ => Policy::NetworkAffinity,
        };

        let mut instances = vec![InstanceSpec::defaults(1 + rng.below(4) as usize)];
        if rng.chance(0.3) {
            // a heterogeneous straggler: fewer converters, same fleet
            instances.push(InstanceSpec {
                input_dacs: Some(3 + rng.below(12) as usize),
                adcs: Some(8 + rng.below(24) as usize),
                ..InstanceSpec::defaults(1)
            });
        }
        let n_instances: usize = instances.iter().map(|g| g.count).sum();

        let limits = if rng.chance(0.8) {
            DegradationLimits::default()
        } else {
            DegradationLimits {
                max_ambient_excursion_k: rng.range(0.05, 0.3),
                min_laser_power_factor: rng.range(0.3, 0.7),
            }
        };

        let faults = if rng.chance(0.2) {
            FaultSpec::Chaos {
                kind: ChaosKind::ALL[rng.below(ChaosKind::ALL.len() as u64) as usize],
                recalibration_s: rng.range(0.001, 0.005),
                seed: rng.next_u64(),
            }
        } else {
            let n_events = rng.below(13) as usize;
            let mut events: Vec<FaultEvent> = (0..n_events)
                .map(|_| {
                    let at_s = rng.range(0.0, horizon_s * 0.9);
                    let instance = rng.below(n_instances as u64) as usize;
                    let action = match rng.below(100) {
                        0..=39 => FaultAction::Degrade(HealthState {
                            // up to 2.5× the drift budget: some degrades
                            // stay serviceable, some knock the instance out
                            ambient_delta_k: rng.range(-2.5, 2.5) * limits.max_ambient_excursion_k,
                            laser_power_factor: rng.range(0.3, 1.0),
                            dead_input_channels: rng.below(4) as usize,
                            dead_output_channels: rng.below(4) as usize,
                        }),
                        40..=64 => FaultAction::Fail,
                        _ => FaultAction::Recalibrate {
                            duration_s: rng.range(0.001, 0.004),
                        },
                    };
                    FaultEvent {
                        at_s,
                        instance,
                        action,
                    }
                })
                .collect();
            // chronological file order ⇒ per-instance monotone, as the
            // strict validator requires
            events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
            FaultSpec::Events(events)
        };

        let control = if rng.chance(0.3) {
            let policy = if rng.chance(0.5) {
                let mut p = ReactivePolicy::new();
                p.scale_up_load = rng.range(0.6, 0.9);
                p.scale_down_load = rng.range(0.1, 0.4);
                p.p99_guard_frac = rng.range(0.6, 0.9);
                p.accuracy_guard = if rng.chance(0.3) {
                    rng.range(0.5, 0.9)
                } else {
                    0.0
                };
                p.cooldown_windows = 1 + rng.below(4) as u32;
                PolicySpec::Reactive(p)
            } else {
                let mut p = PredictivePolicy::new();
                p.alpha = rng.range(0.2, 0.6);
                p.beta = rng.range(0.05, 0.3);
                p.target_util = rng.range(0.5, 0.8);
                p.p99_guard_frac = rng.range(0.6, 0.9);
                p.accuracy_guard = if rng.chance(0.3) {
                    rng.range(0.5, 0.9)
                } else {
                    0.0
                };
                PolicySpec::Predictive(p)
            };
            Some(ControlSpec {
                policy,
                config: ControlConfig {
                    window_s: rng.range(0.002, 0.008),
                    boot_s: rng.range(0.002, 0.006),
                    min_active: 1,
                    initial_active: if rng.chance(0.5) {
                        n_instances
                    } else {
                        usize::MAX
                    },
                    max_step: 1 + rng.below(4) as usize,
                    idle_power_w: rng.range(1.0, 3.0),
                },
            })
        } else {
            None
        };

        let spec = ScenarioSpec {
            name: format!("fuzz-{:016x}-{index:03}", self.seed),
            classes,
            arrival,
            policy,
            instances,
            max_batch: 1 << rng.below(6),
            queue_capacity: [64usize, 1024, 100_000][rng.below(3) as usize],
            resident_weights: rng.chance(0.8),
            accuracy_routing,
            horizon_s,
            seed: rng.next_u64(),
            limits,
            faults,
            control,
        };
        debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let g = ScenarioGen::new(7);
        for i in 0..20 {
            let a = g.generate(i);
            let b = g.generate(i);
            assert!(a.validate().is_ok(), "scenario {i} invalid");
            assert_eq!(a, b);
            assert_eq!(a.render(), b.render(), "scenario {i} not byte-stable");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioGen::new(7).generate(0);
        let b = ScenarioGen::new(8).generate(0);
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn sample_space_reaches_the_interesting_regions() {
        let g = ScenarioGen::new(7);
        let specs: Vec<ScenarioSpec> = (0..64).map(|i| g.generate(i)).collect();
        assert!(specs
            .iter()
            .any(|s| matches!(s.faults, FaultSpec::Chaos { .. })));
        assert!(specs.iter().any(
            |s| matches!(&s.faults, FaultSpec::Events(e) if e.iter().any(|e| e.action == FaultAction::Fail))
        ));
        assert!(specs.iter().any(|s| s.control.is_some()));
        assert!(specs.iter().any(|s| s.instances.len() > 1));
        assert!(specs
            .iter()
            .any(|s| matches!(s.arrival, ArrivalProcess::Mmpp { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.arrival, ArrivalProcess::Diurnal { .. })));
        assert!(
            specs
                .iter()
                .any(|s| s.accuracy_routing && s.classes.iter().any(|c| c.min_accuracy > 0.0)),
            "accuracy SLOs must be exercised under routing"
        );
        assert!(
            specs.iter().any(|s| s.control.as_ref().is_some_and(|c| {
                matches!(
                    c.policy,
                    PolicySpec::Reactive(ReactivePolicy { accuracy_guard, .. })
                    | PolicySpec::Predictive(PredictivePolicy { accuracy_guard, .. })
                        if accuracy_guard > 0.0
                )
            })),
            "accuracy guard must be exercised"
        );
    }
}
