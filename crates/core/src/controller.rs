//! Runtime calibration controller (reproduction extension).
//!
//! [`pcnna_photonics::thermal`] shows a PCNNA weight bank holds 1% weight
//! accuracy only within a ±2 mK ambient band. A real system therefore runs
//! a control loop: monitor (or dead-reckon) drift, and recalibrate before
//! the error budget is spent. This module sizes that loop — recalibration
//! period, per-recalibration cost through the weight DACs, and the duty
//! overhead it adds to layer execution — turning the thermal measurements
//! into a system-level number.

use crate::analytical::AnalyticalModel;
use crate::config::PcnnaConfig;
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;
use pcnna_photonics::microring::RingParams;
use pcnna_photonics::thermal::ThermalModel;

/// Environment/requirement parameters of the control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlRequirements {
    /// Ambient drift rate the package sees, kelvin/second (a chip without
    /// a TEC easily sees tens of mK/s during load transients).
    pub drift_k_per_s: f64,
    /// Maximum tolerated weight error before recalibration.
    pub weight_tolerance: f64,
    /// Calibration feedback iterations needed (from
    /// [`pcnna_photonics::weight_bank::CalibrationReport`]; ~6–10).
    pub calibration_iterations: u64,
}

impl Default for ControlRequirements {
    fn default() -> Self {
        ControlRequirements {
            drift_k_per_s: 0.01,
            weight_tolerance: 0.01,
            calibration_iterations: 8,
        }
    }
}

/// The sized control loop for one layer mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPlan {
    /// Temperature excursion that spends the weight-error budget, kelvin.
    pub tolerable_excursion_k: f64,
    /// Recalibration period forced by the drift rate.
    pub recalibration_period: SimTime,
    /// Cost of one recalibration (every ring reprogrammed
    /// `calibration_iterations` times through the weight DACs).
    pub recalibration_cost: SimTime,
    /// Fraction of wall time spent recalibrating.
    pub duty_overhead: f64,
}

/// Sizes calibration control loops.
#[derive(Debug, Clone)]
pub struct CalibrationController {
    config: PcnnaConfig,
    thermal: ThermalModel,
    ring: RingParams,
}

impl CalibrationController {
    /// Builds a controller model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] /
    /// [`crate::CoreError::Photonic`] for invalid parameters.
    pub fn new(config: PcnnaConfig, thermal: ThermalModel) -> Result<Self> {
        config.validate()?;
        thermal.validate()?;
        let ring = config.link.ring;
        Ok(CalibrationController {
            config,
            thermal,
            ring,
        })
    }

    /// Analytic tolerable excursion: the ambient shift that moves a
    /// mid-scale ring's weight by `tolerance`. Uses the worst-case weight
    /// slope of the Lorentzian, `|dw/dδ|max = gain·(3√3/8)/δ½`.
    #[must_use]
    pub fn tolerable_excursion_k(&self, tolerance: f64) -> f64 {
        let carrier = 1550e-9f64;
        let hwhm = carrier / (2.0 * self.ring.q_factor);
        let gain = self.ring.drop_peak + 1.0 - self.ring.epsilon();
        let slope_per_m = gain * (3.0 * 3.0f64.sqrt() / 8.0) / hwhm;
        let budget_m = tolerance / slope_per_m;
        budget_m / self.thermal.drift_m_per_k.max(f64::MIN_POSITIVE)
    }

    /// Plans the loop for one layer.
    ///
    /// # Errors
    ///
    /// Propagates resource failures from the analytical model.
    pub fn plan(&self, g: &ConvGeometry, req: &ControlRequirements) -> Result<ControlPlan> {
        let analytical = AnalyticalModel::new(self.config)?;
        let excursion = self.tolerable_excursion_k(req.weight_tolerance);
        let period_s = excursion / req.drift_k_per_s.max(f64::MIN_POSITIVE);
        let period = SimTime::from_secs_f64(period_s);
        let cost = analytical
            .weight_load_time(g)
            .saturating_mul(req.calibration_iterations);
        let duty = if period_s > 0.0 {
            (cost.as_secs_f64() / (cost.as_secs_f64() + period_s)).min(1.0)
        } else {
            1.0
        };
        Ok(ControlPlan {
            tolerable_excursion_k: excursion,
            recalibration_period: period,
            recalibration_cost: cost,
            duty_overhead: duty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    fn controller() -> CalibrationController {
        CalibrationController::new(PcnnaConfig::default(), ThermalModel::default()).unwrap()
    }

    #[test]
    fn analytic_budget_matches_measured_order() {
        // thermal::tests measured ±~2 mK for 1% tolerance by bisection on a
        // real bank; the analytic worst-slope estimate must agree within ~3x.
        let c = controller();
        let k = c.tolerable_excursion_k(0.01);
        assert!(
            (0.5e-3..6e-3).contains(&k),
            "analytic budget {k} K vs measured ~2 mK"
        );
    }

    #[test]
    fn budget_scales_with_tolerance() {
        let c = controller();
        assert!(c.tolerable_excursion_k(0.02) > c.tolerable_excursion_k(0.01));
    }

    #[test]
    fn plan_for_conv4_is_feasible_but_costly() {
        let c = controller();
        let g = zoo::alexnet_conv_layers()[3].1;
        let plan = c.plan(&g, &ControlRequirements::default()).unwrap();
        // 10 mK/s drift over a ~2 mK budget: recalibrate every ~200 ms
        assert!(plan.recalibration_period.as_ms_f64() > 10.0);
        // 1.33M rings × 8 iterations through one DAC: ~1.8 ms per recal
        assert!(plan.recalibration_cost.as_ms_f64() > 0.5);
        // duty overhead well under 10%
        assert!(plan.duty_overhead < 0.1, "duty {}", plan.duty_overhead);
    }

    #[test]
    fn fast_drift_forces_high_duty() {
        let c = controller();
        let g = zoo::alexnet_conv_layers()[3].1;
        let harsh = ControlRequirements {
            drift_k_per_s: 10.0,
            ..ControlRequirements::default()
        };
        let plan = c.plan(&g, &harsh).unwrap();
        assert!(plan.duty_overhead > 0.5, "duty {}", plan.duty_overhead);
    }

    #[test]
    fn smaller_layers_recalibrate_cheaper() {
        let c = controller();
        let conv1 = zoo::alexnet_conv_layers()[0].1;
        let conv4 = zoo::alexnet_conv_layers()[3].1;
        let p1 = c.plan(&conv1, &ControlRequirements::default()).unwrap();
        let p4 = c.plan(&conv4, &ControlRequirements::default()).unwrap();
        assert!(p1.recalibration_cost < p4.recalibration_cost);
    }
}
