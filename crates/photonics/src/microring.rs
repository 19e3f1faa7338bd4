//! Add-drop microring resonator model.
//!
//! A microring weighting element (Tait et al. 2017, the device PCNNA builds
//! on) sits between a *through* bus and a *drop* bus. Near resonance its
//! drop-port transmission is well approximated by a Lorentzian of the
//! laser-resonance detuning δ = λ − λres:
//!
//! ```text
//! L(δ)      = 1 / (1 + (δ / δ½)²)         δ½ = λres / (2Q)   (HWHM)
//! T_drop(δ) = A_d · L(δ)                  A_d = 1 − insertion loss
//! T_thru(δ) = 1 − (1 − ε) · L(δ)          ε   = 10^(−ER/10)
//! ```
//!
//! Weighting tunes the ring thermally: shifting λres changes δ for the fixed
//! carrier and thereby the split of carrier power between the drop bus
//! (positive photodiode of a balanced pair) and the through bus (negative
//! photodiode). The *effective weight* of a carrier is
//! `w = T_drop(δ) − T_thru(δ) ∈ [−1, A_d − ε]`, giving signed weights from a
//! purely positive optical quantity — the key trick of broadcast-and-weight.

use crate::{PhotonicError, Result};

/// Physical parameters of one add-drop microring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingParams {
    /// Loaded quality factor.
    pub q_factor: f64,
    /// Drop-port peak transmission (1 − insertion loss), in (0, 1].
    pub drop_peak: f64,
    /// Through-port extinction ratio in dB (how deep the notch is).
    pub extinction_db: f64,
    /// Resonance-shift tuning range as a fraction of λres (thermal tuning
    /// can typically cover a full FSR; we only need a few linewidths).
    pub tuning_range_frac: f64,
    /// Resolution of the heater DAC driving the tuner, in bits.
    /// `None` models an ideal continuous tuner.
    pub tuning_bits: Option<u8>,
    /// Heater power to shift one full linewidth (2·δ½), watts.
    pub heater_power_per_linewidth_w: f64,
}

impl Default for RingParams {
    /// Literature-typical silicon weight-bank MRR: Q = 5·10⁴ (HWHM
    /// ≈ 15.5 pm at 1550 nm), 0.5 dB drop insertion loss, 20 dB extinction,
    /// 10-bit heater DAC, ~0.2 mW per linewidth of thermal shift. The
    /// tuning range (± ≈ 200 pm, half a 50 GHz channel spacing) parks a
    /// ring ≈ 13 linewidths off its carrier — weight ≈ −0.99 — without
    /// colliding with the neighbouring channel's carrier.
    fn default() -> Self {
        RingParams {
            q_factor: 5.0e4,
            drop_peak: 0.89, // ~0.5 dB insertion loss
            extinction_db: 20.0,
            tuning_range_frac: 1.3e-4,
            tuning_bits: Some(10),
            heater_power_per_linewidth_w: 2.0e-4,
        }
    }
}

impl RingParams {
    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for non-positive Q,
    /// out-of-range drop peak, or negative extinction.
    pub fn validate(&self) -> Result<()> {
        if !(self.q_factor > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("Q factor must be positive, got {}", self.q_factor),
            });
        }
        if !(self.drop_peak > 0.0 && self.drop_peak <= 1.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("drop peak must be in (0, 1], got {}", self.drop_peak),
            });
        }
        if !(self.extinction_db > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("extinction must be positive dB, got {}", self.extinction_db),
            });
        }
        if !(self.tuning_range_frac > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: "tuning range must be positive".to_owned(),
            });
        }
        Ok(())
    }

    /// Residual through-port transmission on resonance, `ε = 10^(−ER/10)`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        10f64.powf(-self.extinction_db / 10.0)
    }

    /// HWHM at a given carrier wavelength, `λ / (2Q)`, metres.
    #[must_use]
    pub fn hwhm_at_m(&self, carrier_m: f64) -> f64 {
        carrier_m / (2.0 * self.q_factor)
    }

    /// A resonance shift expressed in half-linewidths at the C-band
    /// centre — the unit thermal-drift budgets are naturally judged in
    /// (one HWHM of drift roughly halves an on-resonance weight).
    #[must_use]
    pub fn shift_in_linewidths(&self, shift_m: f64) -> f64 {
        shift_m.abs() / self.hwhm_at_m(crate::constants::C_BAND_CENTER_M)
    }
}

/// One tunable add-drop microring assigned to a carrier wavelength.
#[derive(Debug, Clone, PartialEq)]
pub struct Microring {
    params: RingParams,
    /// Carrier wavelength this ring weights, metres.
    carrier_m: f64,
    /// Current detuning of the carrier from resonance, metres
    /// (positive = ring tuned below the carrier).
    detuning_m: f64,
}

impl Microring {
    /// Creates a ring for the given carrier, parked far off resonance
    /// (maximum detuning, i.e. weight ≈ −1).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for invalid parameters or
    /// a non-positive carrier wavelength.
    pub fn new(params: RingParams, carrier_m: f64) -> Result<Self> {
        params.validate()?;
        if !(carrier_m > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("carrier wavelength must be positive, got {carrier_m}"),
            });
        }
        let max_detuning = params.tuning_range_frac * carrier_m;
        Ok(Microring {
            params,
            carrier_m,
            detuning_m: max_detuning,
        })
    }

    /// The ring's parameters.
    #[must_use]
    pub fn params(&self) -> &RingParams {
        &self.params
    }

    /// The carrier wavelength, metres.
    #[must_use]
    pub fn carrier_m(&self) -> f64 {
        self.carrier_m
    }

    /// Lorentzian half-width at half-maximum in wavelength, `λres / (2Q)`.
    #[must_use]
    pub fn hwhm_m(&self) -> f64 {
        self.carrier_m / (2.0 * self.params.q_factor)
    }

    /// Current detuning (metres).
    #[must_use]
    pub fn detuning_m(&self) -> f64 {
        self.detuning_m
    }

    /// Lorentzian lineshape at a given detuning.
    #[must_use]
    pub fn lorentzian(&self, detuning_m: f64) -> f64 {
        let x = detuning_m / self.hwhm_m();
        1.0 / (1.0 + x * x)
    }

    /// Drop-port power transmission for a probe at `wavelength_m`, given the
    /// ring's current tuning state.
    #[must_use]
    pub fn drop_transmission(&self, wavelength_m: f64) -> f64 {
        let delta = wavelength_m - (self.carrier_m - self.detuning_m);
        self.params.drop_peak * self.lorentzian(delta)
    }

    /// Through-port power transmission for a probe at `wavelength_m`.
    #[must_use]
    pub fn through_transmission(&self, wavelength_m: f64) -> f64 {
        let delta = wavelength_m - (self.carrier_m - self.detuning_m);
        1.0 - (1.0 - self.params.epsilon()) * self.lorentzian(delta)
    }

    /// The effective signed weight this ring applies to *its own* carrier:
    /// `T_drop − T_thru` at the carrier wavelength.
    #[must_use]
    pub fn effective_weight(&self) -> f64 {
        self.drop_transmission(self.carrier_m) - self.through_transmission(self.carrier_m)
    }

    /// Smallest weight this device can realise (carrier fully off
    /// resonance within the tuning range).
    #[must_use]
    pub fn min_weight(&self) -> f64 {
        let max_det = self.params.tuning_range_frac * self.carrier_m;
        let l = self.lorentzian(max_det);
        (self.params.drop_peak + 1.0 - self.params.epsilon()) * l - 1.0
    }

    /// Largest weight this device can realise (on resonance):
    /// `A_d − ε`.
    #[must_use]
    pub fn max_weight(&self) -> f64 {
        self.params.drop_peak - self.params.epsilon()
    }

    /// Directly sets the detuning, clamping to the tuning range and rounding
    /// to the heater-DAC grid when quantized tuning is configured.
    pub fn set_detuning(&mut self, detuning_m: f64) {
        let max_det = self.params.tuning_range_frac * self.carrier_m;
        let clamped = detuning_m.clamp(0.0, max_det);
        self.detuning_m = match self.params.tuning_bits {
            None => clamped,
            Some(bits) => {
                let levels = (1u64 << bits) - 1;
                let step = max_det / levels as f64;
                (clamped / step).round() * step
            }
        };
    }

    /// Tunes the ring so its own carrier sees the target signed weight.
    ///
    /// Solves `(A_d + 1 − ε)·L(δ) − 1 = w` for δ analytically, then applies
    /// heater quantization. Returns the *achieved* weight (which differs
    /// from the target by quantization and clamping).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::WeightOutOfRange`] if `weight` is outside
    /// `[min_weight(), max_weight()]`.
    pub fn set_weight(&mut self, weight: f64) -> Result<f64> {
        let (lo, hi) = (self.min_weight(), self.max_weight());
        if !(weight >= lo - 1e-12 && weight <= hi + 1e-12) {
            return Err(PhotonicError::WeightOutOfRange {
                weight,
                min: lo,
                max: hi,
            });
        }
        let gain = self.params.drop_peak + 1.0 - self.params.epsilon();
        let l = ((weight + 1.0) / gain).clamp(f64::MIN_POSITIVE, 1.0);
        // L(δ) = 1/(1+(δ/δ½)²)  ⇒  δ = δ½·sqrt(1/L − 1)
        let detuning = self.hwhm_m() * (1.0 / l - 1.0).max(0.0).sqrt();
        self.set_detuning(detuning);
        Ok(self.effective_weight())
    }

    /// Applies an *analog* detuning perturbation (thermal crosstalk, ambient
    /// drift): unlike [`Microring::set_detuning`] this bypasses the heater
    /// DAC quantization — physics is not quantized — but still clamps to the
    /// physical range.
    pub fn perturb(&mut self, delta_m: f64) {
        let max_det = self.params.tuning_range_frac * self.carrier_m;
        self.detuning_m = (self.detuning_m + delta_m).clamp(0.0, max_det);
    }

    /// The thermal shift this ring's heater currently imposes (metres of
    /// resonance shift away from the parked position) — the quantity that
    /// leaks into neighbouring rings as thermal crosstalk.
    #[must_use]
    pub fn tuning_shift_m(&self) -> f64 {
        let max_det = self.params.tuning_range_frac * self.carrier_m;
        max_det - self.detuning_m
    }

    /// Heater power currently dissipated, from the linear shift/power model.
    #[must_use]
    pub fn heater_power_w(&self) -> f64 {
        // Parked = max detuning costs zero; tuning toward resonance costs
        // power proportional to the shift from parked position.
        let max_det = self.params.tuning_range_frac * self.carrier_m;
        let shift = max_det - self.detuning_m;
        let linewidth = 2.0 * self.hwhm_m();
        self.params.heater_power_per_linewidth_w * (shift / linewidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Microring {
        Microring::new(RingParams::default(), 1550e-9).unwrap()
    }

    fn ideal_ring() -> Microring {
        let params = RingParams {
            tuning_bits: None,
            ..RingParams::default()
        };
        Microring::new(params, 1550e-9).unwrap()
    }

    #[test]
    fn params_validation() {
        assert!(RingParams {
            q_factor: 0.0,
            ..RingParams::default()
        }
        .validate()
        .is_err());
        assert!(RingParams {
            drop_peak: 1.5,
            ..RingParams::default()
        }
        .validate()
        .is_err());
        assert!(RingParams {
            extinction_db: -3.0,
            ..RingParams::default()
        }
        .validate()
        .is_err());
        assert!(RingParams::default().validate().is_ok());
    }

    #[test]
    fn lorentzian_peaks_at_zero_detuning() {
        let r = ring();
        assert!((r.lorentzian(0.0) - 1.0).abs() < 1e-12);
        assert!((r.lorentzian(r.hwhm_m()) - 0.5).abs() < 1e-12);
        assert!(r.lorentzian(10.0 * r.hwhm_m()) < 0.01);
    }

    #[test]
    fn on_resonance_drop_is_peak_through_is_epsilon() {
        let mut r = ideal_ring();
        r.set_detuning(0.0);
        assert!((r.drop_transmission(1550e-9) - r.params().drop_peak).abs() < 1e-12);
        assert!((r.through_transmission(1550e-9) - r.params().epsilon()).abs() < 1e-12);
    }

    #[test]
    fn far_off_resonance_passes_through() {
        let r = ring(); // parked far off resonance by construction
        assert!(r.through_transmission(1550e-9) > 0.99);
        assert!(r.drop_transmission(1550e-9) < 0.01);
        assert!(r.effective_weight() < -0.98);
    }

    #[test]
    fn weight_range_endpoints() {
        let r = ring();
        assert!(r.min_weight() < -0.98);
        let expect_max = r.params().drop_peak - r.params().epsilon();
        assert!((r.max_weight() - expect_max).abs() < 1e-12);
    }

    #[test]
    fn set_weight_achieves_target_continuous() {
        let mut r = ideal_ring();
        for target in [-0.9, -0.5, 0.0, 0.3, 0.7, r.max_weight()] {
            let achieved = r.set_weight(target).unwrap();
            assert!(
                (achieved - target).abs() < 1e-9,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn set_weight_quantized_error_bounded() {
        let mut r = ring(); // 10-bit heater DAC
        for i in 0..50 {
            let target = -0.95 + 1.6 * (i as f64) / 49.0;
            let achieved = r.set_weight(target).unwrap();
            // 10-bit tuning over the range keeps weight error small but
            // nonzero; bound empirically at 2%.
            assert!(
                (achieved - target).abs() < 0.02,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn set_weight_rejects_out_of_range() {
        let mut r = ring();
        assert!(matches!(
            r.set_weight(1.5),
            Err(PhotonicError::WeightOutOfRange { .. })
        ));
        assert!(r.set_weight(-1.5).is_err());
    }

    #[test]
    fn weight_monotone_in_detuning() {
        let mut r = ideal_ring();
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let det = r.hwhm_m() * i as f64 / 2.0;
            r.set_detuning(det);
            let w = r.effective_weight();
            assert!(w < prev, "weight must fall as ring detunes");
            prev = w;
        }
    }

    #[test]
    fn heater_power_zero_when_parked_positive_on_resonance() {
        let mut r = ideal_ring();
        let parked = r.params().tuning_range_frac * r.carrier_m();
        r.set_detuning(parked);
        assert!(r.heater_power_w().abs() < 1e-15);
        r.set_detuning(0.0);
        assert!(r.heater_power_w() > 0.0);
    }

    #[test]
    fn neighbor_channel_sees_weak_crosstalk() {
        // 50 GHz neighbour at 1550 nm is ~0.4 nm away; with Q=5e4
        // (HWHM 15.5 pm) the Lorentzian tail is small but nonzero.
        let mut r = ideal_ring();
        r.set_detuning(0.0);
        let neighbour = 1550e-9 + 0.4e-9;
        let xt = r.drop_transmission(neighbour);
        assert!(xt > 0.0 && xt < 0.05, "crosstalk {xt}");
    }

    #[test]
    fn set_detuning_clamps_to_range() {
        let mut r = ideal_ring();
        let max_det = r.params().tuning_range_frac * r.carrier_m();
        r.set_detuning(10.0 * max_det);
        assert!((r.detuning_m() - max_det).abs() < 1e-18);
        r.set_detuning(-1.0);
        assert_eq!(r.detuning_m(), 0.0);
    }
}
