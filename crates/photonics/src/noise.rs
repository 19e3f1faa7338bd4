//! Noise aggregation: SNR and effective-number-of-bits (ENOB) estimation.
//!
//! The paper's precision story is implicit — it stores 16-bit values and
//! uses 16-bit converters, but the analog optical MAC has its own noise
//! floor. This module turns the variances reported by the device models
//! into the two numbers architects actually compare: SNR (dB) and ENOB.

use crate::degradation::HealthState;

/// Ring detuning per kelvin of uncompensated ambient drift, in ring
/// half-linewidths: the ~75 pm/K silicon thermo-optic walk-off over the
/// ~15 pm half-linewidth of the default ring (see [`thermal`] and
/// [`microring`]). One kelvin of drift past the lock point pushes a
/// resonance five HWHM off its carrier.
///
/// [`thermal`]: crate::thermal
/// [`microring`]: crate::microring
pub const RING_DETUNE_HWHM_PER_K: f64 = 5.0;

/// Fractional crosstalk noise added per dead converter channel when its
/// traffic is remapped onto the surviving neighbours (denser wavelength
/// reuse on the remaining rings).
pub const DEAD_CHANNEL_CROSSTALK: f64 = 0.12;

/// The electrical SNR penalty (dB, ≤ 0) a degraded [`HealthState`]
/// costs the analog readout, relative to nominal hardware:
///
/// * **Laser aging** scales the optical carrier power by
///   `laser_power_factor`; photocurrent is linear in optical power, so
///   electrical signal power — and SNR against a fixed receiver noise
///   floor — falls as the square: `20·log10(factor)`. The −3 dB optical
///   floor of the default [`DegradationLimits`] is the −6 dB electrical
///   margin its docs quote.
/// * **Thermal drift** detunes every ring off its carrier by
///   [`RING_DETUNE_HWHM_PER_K`] half-linewidths per kelvin; the
///   Lorentzian transmission `1/(1 + d²)` attenuates the signal power,
///   costing `20·log10(1 + d²)` electrically.
/// * **Dead converter channels** force wavelength reuse on the
///   survivors, adding [`DEAD_CHANNEL_CROSSTALK`] of crosstalk variance
///   per lost channel: `10·log10(1 + x·dead)`.
///
/// Monotone non-increasing in every degradation axis, and exactly 0 dB
/// at [`HealthState::nominal`] — the invariants the accuracy-quote
/// property tests pin.
///
/// [`DegradationLimits`]: crate::degradation::DegradationLimits
#[must_use]
pub fn health_snr_penalty_db(health: &HealthState) -> f64 {
    let laser_db = 20.0 * health.laser_power_factor.max(1e-9).log10();
    let detune = RING_DETUNE_HWHM_PER_K * health.ambient_delta_k.abs();
    let detune_db = -20.0 * (1.0 + detune * detune).log10();
    let dead = (health.dead_input_channels + health.dead_output_channels) as f64;
    let crosstalk_db = -10.0 * (1.0 + DEAD_CHANNEL_CROSSTALK * dead).log10();
    laser_db + detune_db + crosstalk_db
}

/// An additive noise budget: named variance contributions against a signal.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseBudget {
    /// Full-scale signal amplitude (same unit family as the noise terms'
    /// square roots; e.g. amperes).
    pub signal: f64,
    /// Named variance contributions (unit²).
    pub contributions: Vec<(String, f64)>,
}

impl NoiseBudget {
    /// Creates an empty budget for a given full-scale signal.
    #[must_use]
    pub fn new(signal: f64) -> Self {
        NoiseBudget {
            signal,
            contributions: Vec::new(),
        }
    }

    /// Adds a named variance contribution (negative values are clamped to 0).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, variance: f64) -> Self {
        self.contributions.push((name.into(), variance.max(0.0)));
        self
    }

    /// Total noise variance.
    #[must_use]
    pub fn total_variance(&self) -> f64 {
        self.contributions.iter().map(|(_, v)| v).sum()
    }

    /// Linear SNR (`∞` if noiseless).
    #[must_use]
    pub fn snr(&self) -> f64 {
        let var = self.total_variance();
        if var == 0.0 {
            f64::INFINITY
        } else {
            self.signal * self.signal / var
        }
    }

    /// SNR in dB.
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        10.0 * self.snr().log10()
    }

    /// Effective number of bits: `(SNR_dB − 1.76) / 6.02`.
    #[must_use]
    pub fn enob(&self) -> f64 {
        (self.snr_db() - 1.76) / 6.02
    }

    /// The dominant noise contribution `(name, variance)`, if any.
    #[must_use]
    pub fn dominant(&self) -> Option<(&str, f64)> {
        self.contributions
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, v)| (n.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_budget_is_noiseless() {
        let b = NoiseBudget::new(1.0);
        assert_eq!(b.total_variance(), 0.0);
        assert!(b.snr().is_infinite());
    }

    #[test]
    fn contributions_accumulate() {
        let b = NoiseBudget::new(1.0)
            .with("shot", 1e-6)
            .with("thermal", 3e-6);
        assert!((b.total_variance() - 4e-6).abs() < 1e-18);
        assert!((b.snr() - 2.5e5).abs() / 2.5e5 < 1e-12);
    }

    #[test]
    fn negative_variances_are_clamped() {
        let b = NoiseBudget::new(1.0).with("bogus", -5.0);
        assert_eq!(b.total_variance(), 0.0);
    }

    #[test]
    fn dominant_finds_largest() {
        let b = NoiseBudget::new(1.0)
            .with("shot", 1e-6)
            .with("thermal", 3e-6)
            .with("rin", 2e-6);
        assert_eq!(b.dominant().unwrap().0, "thermal");
    }

    #[test]
    fn nominal_health_costs_nothing() {
        assert_eq!(health_snr_penalty_db(&HealthState::nominal()), 0.0);
    }

    #[test]
    fn laser_floor_is_six_electrical_db() {
        // −3 dB optical (factor 0.5) ≈ −6 dB electrical, the margin the
        // DegradationLimits docs quote.
        let h = HealthState {
            laser_power_factor: 0.5,
            ..HealthState::nominal()
        };
        let db = health_snr_penalty_db(&h);
        assert!((db + 6.02).abs() < 0.01, "penalty {db}");
    }

    #[test]
    fn penalty_is_monotone_per_axis() {
        let base = HealthState::nominal();
        let mut prev = health_snr_penalty_db(&base);
        for i in 1..=10 {
            let h = HealthState {
                ambient_delta_k: 0.1 * f64::from(i),
                ..base
            };
            let db = health_snr_penalty_db(&h);
            assert!(db < prev, "drift axis not monotone at step {i}");
            prev = db;
        }
        prev = health_snr_penalty_db(&base);
        for i in 1..=9 {
            let h = HealthState {
                laser_power_factor: 1.0 - 0.1 * f64::from(i),
                ..base
            };
            let db = health_snr_penalty_db(&h);
            assert!(db < prev, "laser axis not monotone at step {i}");
            prev = db;
        }
        prev = health_snr_penalty_db(&base);
        for i in 1..=8usize {
            let h = HealthState {
                dead_input_channels: i,
                dead_output_channels: i / 2,
                ..base
            };
            let db = health_snr_penalty_db(&h);
            assert!(db < prev, "dead-channel axis not monotone at step {i}");
            prev = db;
        }
    }

    #[test]
    fn drift_is_sign_symmetric() {
        let warm = HealthState {
            ambient_delta_k: 0.7,
            ..HealthState::nominal()
        };
        let cold = HealthState {
            ambient_delta_k: -0.7,
            ..HealthState::nominal()
        };
        assert_eq!(health_snr_penalty_db(&warm), health_snr_penalty_db(&cold));
    }

    #[test]
    fn six_db_per_bit() {
        // doubling the signal adds 20·log10(2)/6.02 ≈ 1.0001 bits
        let b1 = NoiseBudget::new(1.0).with("n", 1e-6);
        let b2 = NoiseBudget::new(2.0).with("n", 1e-6);
        assert!((b2.enob() - b1.enob() - 1.0).abs() < 1e-3);
    }
}
