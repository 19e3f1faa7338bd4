//! Picosecond-resolution simulated time.
//!
//! The timescales in PCNNA span eight orders of magnitude — 200 ps fast-clock
//! cycles up to multi-millisecond layer executions — so time is kept as an
//! integer picosecond count ([`SimTime`]) to avoid floating-point drift in
//! long simulations, with `f64` conversions at the reporting boundary.

/// An instant (or duration) in simulated time, in integer picoseconds.
///
/// `u64` picoseconds cover ~213 days of simulated time — ample for any layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from (non-negative, finite) seconds, rounding to the
    /// nearest picosecond. Negative or non-finite inputs saturate to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e12).round() as u64)
    }

    /// Picosecond count.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Value in nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 * 1e-3
    }

    /// Value in microseconds.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 * 1e-6
    }

    /// Value in milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by a count.
    #[must_use]
    pub const fn saturating_mul(self, count: u64) -> SimTime {
        SimTime(self.0.saturating_mul(count))
    }

    /// The larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Ratio of this time to another (`other` must be nonzero).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio(self, other: SimTime) -> f64 {
        assert!(other.0 != 0, "division by zero SimTime");
        self.0 as f64 / other.0 as f64
    }
}

impl core::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl core::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl core::fmt::Display for SimTime {
    /// Renders with an auto-selected unit: `745 ps`, `7.00 ns`, `1.21 us`,
    /// `3.41 ms`, `2.50 s`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let ps = self.0;
        if ps < 1_000 {
            write!(f, "{ps} ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.2} ns", self.as_ns_f64())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.2} us", self.as_us_f64())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.2} ms", self.as_ms_f64())
        } else {
            write!(f, "{:.2} s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(7), SimTime::from_ps(7_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ps(1_000_000));
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = SimTime::from_secs_f64(1.234e-6);
        assert!((t.as_secs_f64() - 1.234e-6).abs() < 1e-18);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(3);
        assert_eq!(a + b, SimTime::from_ns(8));
        assert_eq!(a.saturating_sub(b), SimTime::from_ns(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b.saturating_mul(4), SimTime::from_ns(12));
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn add_assign_and_sum() {
        let mut t = SimTime::ZERO;
        t += SimTime::from_ps(250);
        t += SimTime::from_ps(750);
        assert_eq!(t, SimTime::from_ns(1));
        let total: SimTime = (0..4).map(|_| SimTime::from_ns(2)).sum();
        assert_eq!(total, SimTime::from_ns(8));
    }

    #[test]
    fn ratio() {
        assert!((SimTime::from_ns(10).ratio(SimTime::from_ns(4)) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn ratio_by_zero_panics() {
        let _ = SimTime::from_ns(1).ratio(SimTime::ZERO);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_ps(745).to_string(), "745 ps");
        assert_eq!(SimTime::from_ns(7).to_string(), "7.00 ns");
        assert_eq!(SimTime::from_us(12).to_string(), "12.00 us");
        assert_eq!(SimTime::from_us(3_000).to_string(), "3.00 ms");
        assert_eq!(SimTime::from_secs_f64(2.5).to_string(), "2.50 s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        assert!(SimTime::ZERO <= SimTime::ZERO);
    }
}
