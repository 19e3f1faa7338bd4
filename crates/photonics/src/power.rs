//! Electrical/optical power accounting for the photonic core.
//!
//! The paper motivates filtering non-receptive-field values partly by power:
//! fewer rings means fewer heaters and fewer carriers means fewer lasers.
//! [`PhotonicPowerBudget`] aggregates the front-end draw so the core crate
//! can report energy per inference alongside execution time.

/// Itemised electrical power of the photonic subsystem, watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhotonicPowerBudget {
    /// Laser wall-plug power.
    pub lasers_w: f64,
    /// Microring heater power.
    pub heaters_w: f64,
    /// Modulator driver power.
    pub modulators_w: f64,
    /// Receiver (TIA) power.
    pub receivers_w: f64,
}

impl PhotonicPowerBudget {
    /// Total power, watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.lasers_w + self.heaters_w + self.modulators_w + self.receivers_w
    }

    /// Energy consumed over a time window, joules.
    #[must_use]
    pub fn energy_j(&self, seconds: f64) -> f64 {
        self.total_w() * seconds.max(0.0)
    }

    /// Sums two budgets item-wise.
    #[must_use]
    pub fn combined(&self, other: &PhotonicPowerBudget) -> PhotonicPowerBudget {
        PhotonicPowerBudget {
            lasers_w: self.lasers_w + other.lasers_w,
            heaters_w: self.heaters_w + other.heaters_w,
            modulators_w: self.modulators_w + other.modulators_w,
            receivers_w: self.receivers_w + other.receivers_w,
        }
    }

    /// The dominant item as `(name, watts)`.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, f64) {
        let items = [
            ("lasers", self.lasers_w),
            ("heaters", self.heaters_w),
            ("modulators", self.modulators_w),
            ("receivers", self.receivers_w),
        ];
        // The last of equal maxima wins, as with `Iterator::max_by`.
        let [first, rest @ ..] = items;
        rest.into_iter().fold(first, |best, it| {
            if it.1.total_cmp(&best.1).is_ge() {
                it
            } else {
                best
            }
        })
    }
}

/// Simple estimate of modulator driver power: `C·V²·f` dynamic switching per
/// modulator.
#[must_use]
pub fn mzm_driver_power_w(capacitance_f: f64, v_swing: f64, clock_hz: f64, count: usize) -> f64 {
    capacitance_f * v_swing * v_swing * clock_hz * count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_energy() {
        let b = PhotonicPowerBudget {
            lasers_w: 0.1,
            heaters_w: 0.05,
            modulators_w: 0.02,
            receivers_w: 0.03,
        };
        assert!((b.total_w() - 0.2).abs() < 1e-12);
        assert!((b.energy_j(2.0) - 0.4).abs() < 1e-12);
        assert_eq!(b.energy_j(-1.0), 0.0);
    }

    #[test]
    fn combine_adds_itemwise() {
        let a = PhotonicPowerBudget {
            lasers_w: 1.0,
            ..Default::default()
        };
        let b = PhotonicPowerBudget {
            heaters_w: 2.0,
            ..Default::default()
        };
        let c = a.combined(&b);
        assert_eq!(c.lasers_w, 1.0);
        assert_eq!(c.heaters_w, 2.0);
        assert!((c.total_w() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_item() {
        let b = PhotonicPowerBudget {
            lasers_w: 0.5,
            heaters_w: 0.7,
            modulators_w: 0.1,
            receivers_w: 0.2,
        };
        assert_eq!(b.dominant(), ("heaters", 0.7));
    }

    #[test]
    fn mzm_driver_power_scales() {
        // 100 fF, 2 V swing, 5 GHz, 10 modulators → 20 mW
        let p = mzm_driver_power_w(100e-15, 2.0, 5e9, 10);
        assert!((p - 0.02).abs() < 1e-12);
    }
}
