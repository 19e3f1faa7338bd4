//! Hardware degradation: fault models and deterministic timelines.
//!
//! PCNNA's datapath is physically fragile in ways an electronic
//! accelerator is not: microring resonances ride on temperature
//! (~75 pm/K against a ~15 pm half-linewidth — see [`thermal`]), laser
//! diodes lose output power as they age, and the DAC/ADC channel arrays
//! at the electro-optic boundary fail stuck-at like any mixed-signal
//! part. The paper assumes pristine hardware forever; a serving fleet
//! cannot. This module gives the rest of the workspace one vocabulary
//! for "how broken is this device right now":
//!
//! * [`HealthState`] — an instantaneous snapshot (ambient drift since
//!   the last ring lock, laser power factor, dead converter channels).
//! * [`DegradationLimits`] — the serviceability envelope: how much
//!   drift the weight tolerance allows (derivable from the real
//!   bank physics via [`DegradationLimits::from_bank`]) and the laser
//!   floor below which the link SNR is gone.
//! * [`FaultProfile`] / [`DegradationTimeline`] — seedable generators
//!   of a device's physical story over a horizon: heat waves, laser
//!   aging, channel-loss bursts. Same seed ⇒ byte-identical timeline,
//!   which is what makes fleet chaos scenarios reproducible in CI.
//!
//! [`thermal`]: crate::thermal

use crate::microring::RingParams;
use crate::thermal::ThermalModel;
use crate::weight_bank::MrrWeightBank;
use crate::{PhotonicError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An instantaneous health snapshot of one PCNNA device.
///
/// `ambient_delta_k` is measured **relative to the last ring lock**: a
/// thermal recalibration re-tunes every ring at the then-current
/// ambient, so the drift that matters afterwards is the excursion since
/// that lock, not since the factory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthState {
    /// Ambient temperature excursion since the last ring lock, kelvin.
    pub ambient_delta_k: f64,
    /// Emitted laser power as a fraction of nominal (1.0 = new diode).
    pub laser_power_factor: f64,
    /// Stuck/dead input-DAC channels (reduce input parallelism).
    pub dead_input_channels: usize,
    /// Stuck/dead output-ADC channels (reduce readout parallelism).
    pub dead_output_channels: usize,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState::nominal()
    }
}

impl HealthState {
    /// Factory-fresh hardware: locked rings, full laser power, every
    /// converter channel alive.
    #[must_use]
    pub fn nominal() -> Self {
        HealthState {
            ambient_delta_k: 0.0,
            laser_power_factor: 1.0,
            dead_input_channels: 0,
            dead_output_channels: 0,
        }
    }

    /// The state after a thermal recalibration: rings re-lock at the
    /// current ambient (drift resets to zero), but aged lasers and dead
    /// converter channels are hardware — recalibration cannot bring
    /// them back.
    #[must_use]
    pub fn recalibrated(&self) -> Self {
        HealthState {
            ambient_delta_k: 0.0,
            ..*self
        }
    }

    /// Validates the snapshot (finite drift, factor in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] on non-finite drift
    /// or a laser factor outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !self.ambient_delta_k.is_finite() {
            return Err(PhotonicError::InvalidParameter {
                reason: format!(
                    "ambient excursion must be finite, got {}",
                    self.ambient_delta_k
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.laser_power_factor) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!(
                    "laser power factor must be in [0, 1], got {}",
                    self.laser_power_factor
                ),
            });
        }
        Ok(())
    }

    /// Whether a device in this state can serve correct results under
    /// `limits`: drift within the weight tolerance and laser above the
    /// SNR floor. Dead channels never make a device unserviceable by
    /// themselves — they slow it down (the serving quote prices that)
    /// until the *last* channel dies, which the quote reports as
    /// infeasible.
    #[must_use]
    pub fn serviceable(&self, limits: &DegradationLimits) -> bool {
        self.ambient_delta_k.abs() <= limits.max_ambient_excursion_k
            && self.laser_power_factor >= limits.min_laser_power_factor
    }
}

/// The serviceability envelope a fleet holds its accelerators to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationLimits {
    /// Largest ambient excursion (kelvin, since the last ring lock) the
    /// weight tolerance allows. Beyond it the programmed weights are
    /// wrong and the device must recalibrate before serving again.
    pub max_ambient_excursion_k: f64,
    /// Smallest laser power factor at which the link still closes its
    /// SNR budget.
    pub min_laser_power_factor: f64,
}

impl Default for DegradationLimits {
    /// A 0.2 K drift budget and a 0.5 laser floor (−3 dB optical
    /// ≈ −6 dB electrical SNR, the margin the default link budget
    /// carries). 0.2 K models a bank whose heaters run a closed-loop
    /// dither lock: the loop absorbs sub-budget excursions and only a
    /// swing past its capture range forces a full recalibration. An
    /// *uncompensated* bank is far more fragile — at 1% weight
    /// tolerance [`DegradationLimits::from_bank`] derives millikelvin
    /// budgets (see `derived_budget_tightens_with_tolerance`) — which
    /// is exactly why real weight banks close the loop.
    fn default() -> Self {
        DegradationLimits {
            max_ambient_excursion_k: 0.2,
            min_laser_power_factor: 0.5,
        }
    }
}

impl DegradationLimits {
    /// Derives the drift budget from the real bank physics: the largest
    /// excursion a calibrated `bank` tolerates before any effective
    /// weight moves by more than `weight_tolerance` (bisection via
    /// [`ThermalModel::tolerable_excursion_k`]).
    #[must_use]
    pub fn from_bank(
        thermal: &ThermalModel,
        bank: &MrrWeightBank,
        weight_tolerance: f64,
        min_laser_power_factor: f64,
    ) -> Self {
        DegradationLimits {
            max_ambient_excursion_k: thermal.tolerable_excursion_k(bank, weight_tolerance),
            min_laser_power_factor,
        }
    }

    /// The drift budget expressed in ring half-linewidths — how many
    /// HWHM a worst-case tolerable excursion moves a resonance. A
    /// useful sanity figure: budgets beyond ~1 linewidth mean the
    /// weight tolerance is looser than the ring selectivity.
    #[must_use]
    pub fn excursion_in_linewidths(&self, thermal: &ThermalModel, ring: &RingParams) -> f64 {
        ring.shift_in_linewidths(thermal.drift_m_per_k * self.max_ambient_excursion_k)
    }
}

/// A generator shape for one device's physical degradation story.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProfile {
    /// An ambient excursion that ramps up, holds, and ramps back — a
    /// datacenter cooling event compressed to the simulated horizon.
    /// Onset jitters uniformly within `onset_jitter_s` of `onset_s`.
    HeatWave {
        /// Mean onset time, seconds.
        onset_s: f64,
        /// Uniform onset jitter half-width, seconds.
        onset_jitter_s: f64,
        /// Ramp-up (and ramp-down) duration, seconds.
        ramp_s: f64,
        /// Plateau duration at the peak, seconds.
        hold_s: f64,
        /// Peak ambient excursion, kelvin.
        peak_delta_k: f64,
        /// Sample points per ramp (the timeline is piecewise-constant).
        steps: usize,
    },
    /// Exponential laser output decay: `factor(t) = exp(−t / tau_s)`,
    /// with per-device rate jitter of ±`tau_jitter_frac`.
    LaserAging {
        /// Mean decay time constant, seconds (simulation-compressed).
        tau_s: f64,
        /// Relative jitter on the time constant, in `[0, 1)`.
        tau_jitter_frac: f64,
        /// Checkpoints over the horizon.
        steps: usize,
    },
    /// A burst of converter-channel failures at a jittered instant.
    ChannelLossBurst {
        /// Mean burst time, seconds.
        at_s: f64,
        /// Uniform time jitter half-width, seconds.
        jitter_s: f64,
        /// Input-DAC channels lost in the burst.
        input_channels: usize,
        /// Output-ADC channels lost in the burst.
        output_channels: usize,
    },
}

/// One device's health over time: a chronological list of piecewise-
/// constant [`HealthState`] snapshots, deterministically generated from
/// a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationTimeline {
    events: Vec<(f64, HealthState)>,
}

impl DegradationTimeline {
    /// Generates the composed timeline of `profiles` over `horizon_s`.
    /// Deterministic: the same `(profiles, horizon_s, seed)` triple
    /// always produces the same snapshots. Profiles compose — a heat
    /// wave and a channel burst yield snapshots carrying both effects.
    #[must_use]
    pub fn generate(profiles: &[FaultProfile], horizon_s: f64, seed: u64) -> Self {
        // Per-field change points; folded into running state below.
        enum Change {
            Ambient(f64),
            Laser(f64),
            DeadChannels { input: usize, output: usize },
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE6A_DE0D);
        let mut changes: Vec<(f64, Change)> = Vec::new();
        for profile in profiles {
            match *profile {
                FaultProfile::HeatWave {
                    onset_s,
                    onset_jitter_s,
                    ramp_s,
                    hold_s,
                    peak_delta_k,
                    steps,
                } => {
                    let jitter = if onset_jitter_s > 0.0 {
                        rng.gen_range(-onset_jitter_s..onset_jitter_s)
                    } else {
                        0.0
                    };
                    let onset = (onset_s + jitter).max(0.0);
                    let steps = steps.max(1);
                    // up-ramp: steps points climbing to the peak
                    for k in 1..=steps {
                        let frac = k as f64 / steps as f64;
                        changes.push((onset + frac * ramp_s, Change::Ambient(peak_delta_k * frac)));
                    }
                    // down-ramp after the hold
                    let fall_start = onset + ramp_s + hold_s;
                    for k in 1..=steps {
                        let frac = k as f64 / steps as f64;
                        changes.push((
                            fall_start + frac * ramp_s,
                            Change::Ambient(peak_delta_k * (1.0 - frac)),
                        ));
                    }
                }
                FaultProfile::LaserAging {
                    tau_s,
                    tau_jitter_frac,
                    steps,
                } => {
                    let jitter = if tau_jitter_frac > 0.0 {
                        rng.gen_range(-tau_jitter_frac..tau_jitter_frac)
                    } else {
                        0.0
                    };
                    let tau = (tau_s * (1.0 + jitter)).max(f64::MIN_POSITIVE);
                    let steps = steps.max(1);
                    for k in 1..=steps {
                        let t = horizon_s * k as f64 / steps as f64;
                        changes.push((t, Change::Laser((-t / tau).exp())));
                    }
                }
                FaultProfile::ChannelLossBurst {
                    at_s,
                    jitter_s,
                    input_channels,
                    output_channels,
                } => {
                    let jitter = if jitter_s > 0.0 {
                        rng.gen_range(-jitter_s..jitter_s)
                    } else {
                        0.0
                    };
                    changes.push((
                        (at_s + jitter).max(0.0),
                        Change::DeadChannels {
                            input: input_channels,
                            output: output_channels,
                        },
                    ));
                }
            }
        }
        changes.retain(|(t, _)| *t <= horizon_s);
        // Stable sort keeps same-instant changes in profile order, so
        // generation stays deterministic under composition.
        changes.sort_by(|(a, _), (b, _)| a.total_cmp(b));

        let mut state = HealthState::nominal();
        let events = changes
            .into_iter()
            .map(|(t, change)| {
                match change {
                    Change::Ambient(k) => state.ambient_delta_k = k,
                    Change::Laser(f) => state.laser_power_factor = f.clamp(0.0, 1.0),
                    Change::DeadChannels { input, output } => {
                        state.dead_input_channels += input;
                        state.dead_output_channels += output;
                    }
                }
                (t, state)
            })
            .collect();
        DegradationTimeline { events }
    }

    /// The chronological `(time_s, state)` snapshots.
    #[must_use]
    pub fn events(&self) -> &[(f64, HealthState)] {
        &self.events
    }

    /// Whether the timeline holds no snapshots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelength::WdmGrid;

    fn heat_wave() -> FaultProfile {
        FaultProfile::HeatWave {
            onset_s: 0.2,
            onset_jitter_s: 0.05,
            ramp_s: 0.1,
            hold_s: 0.2,
            peak_delta_k: 0.8,
            steps: 4,
        }
    }

    #[test]
    fn health_validation_and_nominal() {
        assert!(HealthState::nominal().validate().is_ok());
        assert!(HealthState {
            ambient_delta_k: f64::NAN,
            ..HealthState::nominal()
        }
        .validate()
        .is_err());
        assert!(HealthState {
            laser_power_factor: 1.2,
            ..HealthState::nominal()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn recalibration_fixes_drift_not_hardware() {
        let h = HealthState {
            ambient_delta_k: 0.5,
            laser_power_factor: 0.8,
            dead_input_channels: 2,
            dead_output_channels: 1,
        };
        let r = h.recalibrated();
        assert_eq!(r.ambient_delta_k, 0.0);
        assert_eq!(r.laser_power_factor, 0.8);
        assert_eq!(r.dead_input_channels, 2);
        assert_eq!(r.dead_output_channels, 1);
    }

    #[test]
    fn serviceability_thresholds() {
        let limits = DegradationLimits::default();
        assert!(HealthState::nominal().serviceable(&limits));
        assert!(!HealthState {
            ambient_delta_k: 0.3,
            ..HealthState::nominal()
        }
        .serviceable(&limits));
        assert!(!HealthState {
            laser_power_factor: 0.4,
            ..HealthState::nominal()
        }
        .serviceable(&limits));
        // dead channels alone never trip serviceability
        assert!(HealthState {
            dead_input_channels: 9,
            dead_output_channels: 31,
            ..HealthState::nominal()
        }
        .serviceable(&limits));
    }

    #[test]
    fn derived_budget_tightens_with_tolerance() {
        // An uncompensated bank's drift budget comes straight from the
        // ring physics: sub-kelvin always, and monotone in the weight
        // tolerance (a looser tolerance buys a larger excursion).
        let grid = WdmGrid::dense_50ghz(5).unwrap();
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        let mut bank = MrrWeightBank::new(grid, params).unwrap();
        let targets = [-0.6, -0.2, 0.1, 0.4, 0.7];
        bank.calibrate(&targets, 1e-6, 200).unwrap();
        let tm = ThermalModel::default();
        let tight = DegradationLimits::from_bank(&tm, &bank, 0.01, 0.5);
        let loose = DegradationLimits::from_bank(&tm, &bank, 0.2, 0.5);
        let (kt, kl) = (tight.max_ambient_excursion_k, loose.max_ambient_excursion_k);
        assert!(kt > 0.0 && kt < 1.0, "tight budget {kt} K");
        assert!(kl > kt, "loose {kl} K must exceed tight {kt} K");
        // in linewidths: the loose budget moves resonances by a
        // physically sane sub-handful of HWHMs
        let lw = loose.excursion_in_linewidths(&tm, &params);
        assert!(lw > 0.0 && lw < 10.0, "budget is {lw} linewidths");
    }

    #[test]
    fn timeline_is_seed_deterministic() {
        let profiles = [
            heat_wave(),
            FaultProfile::LaserAging {
                tau_s: 5.0,
                tau_jitter_frac: 0.2,
                steps: 6,
            },
        ];
        let a = DegradationTimeline::generate(&profiles, 1.0, 42);
        let b = DegradationTimeline::generate(&profiles, 1.0, 42);
        let c = DegradationTimeline::generate(&profiles, 1.0, 43);
        assert_eq!(a, b, "same seed must reproduce the timeline");
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn heat_wave_rises_holds_and_falls() {
        let t = DegradationTimeline::generate(&[heat_wave()], 2.0, 7);
        assert!(!t.is_empty());
        let peak = t
            .events()
            .iter()
            .map(|(_, s)| s.ambient_delta_k)
            .fold(0.0, f64::max);
        assert!((peak - 0.8).abs() < 1e-12, "peak {peak}");
        // the final snapshot is back at (or near) zero excursion
        let last = t.events().last().unwrap().1;
        assert!(last.ambient_delta_k.abs() < 1e-12);
        // times are non-decreasing
        let times: Vec<f64> = t.events().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn laser_aging_decays_monotonically() {
        let t = DegradationTimeline::generate(
            &[FaultProfile::LaserAging {
                tau_s: 2.0,
                tau_jitter_frac: 0.0,
                steps: 8,
            }],
            1.0,
            0,
        );
        let factors: Vec<f64> = t
            .events()
            .iter()
            .map(|(_, s)| s.laser_power_factor)
            .collect();
        assert!(factors.windows(2).all(|w| w[1] < w[0]));
        assert!(*factors.last().unwrap() > 0.0);
    }

    #[test]
    fn channel_bursts_accumulate() {
        let burst = |at_s| FaultProfile::ChannelLossBurst {
            at_s,
            jitter_s: 0.0,
            input_channels: 2,
            output_channels: 1,
        };
        let t = DegradationTimeline::generate(&[burst(0.1), burst(0.5)], 1.0, 3);
        let snapshots: Vec<(f64, usize, usize)> = t
            .events()
            .iter()
            .map(|(at, s)| (*at, s.dead_input_channels, s.dead_output_channels))
            .collect();
        assert_eq!(snapshots, [(0.1, 2, 1), (0.5, 4, 2)]);
    }

    #[test]
    fn events_past_horizon_are_dropped() {
        let t = DegradationTimeline::generate(
            &[FaultProfile::ChannelLossBurst {
                at_s: 5.0,
                jitter_s: 0.0,
                input_channels: 1,
                output_channels: 0,
            }],
            1.0,
            0,
        );
        assert!(t.is_empty());
    }
}
