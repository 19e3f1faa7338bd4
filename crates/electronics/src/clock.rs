//! Clock domains.
//!
//! "PCNNA runs on two clock domains, a fast clock domain (5GHz), which runs
//! the optical sub-systems and their immediate electronic circuitry, and a
//! main slower clock domain to interface with the external environment"
//! (paper §IV, Figure 4).

use crate::time::SimTime;
use crate::{ElectronicError, Result};

/// A clock domain with a fixed frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    // A static label for reports; the frequency is the semantic part.
    name: &'static str,
    frequency_hz: f64,
}

impl ClockDomain {
    /// Creates a clock domain.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for a non-positive
    /// frequency.
    pub fn new(name: &'static str, frequency_hz: f64) -> Result<Self> {
        if !(frequency_hz > 0.0) {
            return Err(ElectronicError::InvalidParameter {
                reason: format!("clock frequency must be positive, got {frequency_hz}"),
            });
        }
        Ok(ClockDomain { name, frequency_hz })
    }

    /// The paper's 5 GHz fast (optical-core) clock.
    #[must_use]
    pub fn fast_5ghz() -> Self {
        ClockDomain {
            name: "fast",
            frequency_hz: 5e9,
        }
    }

    /// Domain name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Frequency in Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Duration of one cycle.
    #[must_use]
    pub fn period(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.frequency_hz)
    }

    /// Duration of `n` cycles.
    #[must_use]
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_secs_f64(n as f64 / self.frequency_hz)
    }

    /// Number of whole cycles needed to cover a duration (ceiling).
    #[must_use]
    pub fn cycles_to_cover(&self, t: SimTime) -> u64 {
        (t.as_secs_f64() * self.frequency_hz).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(ClockDomain::new("x", 0.0).is_err());
        assert!(ClockDomain::new("x", -5.0).is_err());
        assert!(ClockDomain::new("x", 1e9).is_ok());
    }

    #[test]
    fn fast_clock_is_200ps() {
        let fast = ClockDomain::fast_5ghz();
        assert_eq!(fast.period(), SimTime::from_ps(200));
        assert_eq!(fast.name(), "fast");
    }

    #[test]
    fn cycles_scale_linearly() {
        let fast = ClockDomain::fast_5ghz();
        // AlexNet conv1: 3025 locations at one location per fast cycle
        assert_eq!(fast.cycles(3025), SimTime::from_ps(3025 * 200));
    }

    #[test]
    fn cycles_to_cover_rounds_up() {
        let fast = ClockDomain::fast_5ghz();
        assert_eq!(fast.cycles_to_cover(SimTime::from_ps(200)), 1);
        assert_eq!(fast.cycles_to_cover(SimTime::from_ps(201)), 2);
        assert_eq!(fast.cycles_to_cover(SimTime::from_ps(399)), 2);
        assert_eq!(fast.cycles_to_cover(SimTime::ZERO), 0);
    }

    #[test]
    fn sram_access_spans_35_fast_cycles() {
        // The paper's 7 ns SRAM access = 35 cycles of the 5 GHz clock.
        let fast = ClockDomain::fast_5ghz();
        assert_eq!(fast.cycles_to_cover(SimTime::from_ns(7)), 35);
    }
}
