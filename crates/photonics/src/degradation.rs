//! Hardware degradation: device health and the serviceability envelope.
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
//!
//! The stories that move a device through these states over time (heat
//! waves, laser aging, channel-loss bursts) are the fleet's seeded
//! chaos timelines, `pcnna_fleet::faults::chaos_timeline`.
//!
//! [`thermal`]: crate::thermal

use crate::microring::RingParams;
use crate::thermal::ThermalModel;
use crate::weight_bank::MrrWeightBank;
use crate::{PhotonicError, Result};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelength::WdmGrid;

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
}
