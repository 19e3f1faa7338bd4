//! WDM wavelength grids.
//!
//! Broadcast-and-weight assigns every neuron output (here: every receptive-
//! field value) a distinct carrier wavelength. PCNNA's ring-count savings
//! (paper eq. (5)) are exactly savings in *wavelength demand*: filtering the
//! non-receptive-field values means only `Nkernel` carriers are needed.
//! [`WdmGrid`] models the carrier comb: uniformly spaced channels around a
//! centre wavelength on the C band.

use crate::constants::SPEED_OF_LIGHT;
use crate::{PhotonicError, Result};

/// Conventional C-band limits (metres).
pub const C_BAND_MIN_M: f64 = 1530e-9;
/// Upper C-band edge (metres).
pub const C_BAND_MAX_M: f64 = 1565e-9;

/// A uniform WDM channel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdmGrid {
    center_m: f64,
    spacing_hz: f64,
    channels: usize,
}

impl WdmGrid {
    /// Creates a grid of `channels` carriers spaced `spacing_hz` apart in
    /// optical frequency, centred (in frequency) on `center_m`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for zero channels,
    /// non-positive spacing, or a non-positive centre wavelength.
    pub fn new(center_m: f64, spacing_hz: f64, channels: usize) -> Result<Self> {
        if channels == 0 {
            return Err(PhotonicError::InvalidParameter {
                reason: "grid must have at least one channel".to_owned(),
            });
        }
        if !(spacing_hz > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("channel spacing must be positive, got {spacing_hz} Hz"),
            });
        }
        if !(center_m > 0.0) {
            return Err(PhotonicError::InvalidParameter {
                reason: format!("centre wavelength must be positive, got {center_m} m"),
            });
        }
        Ok(WdmGrid {
            center_m,
            spacing_hz,
            channels,
        })
    }

    /// The standard dense-WDM grid the links in this crate default to:
    /// 1550 nm centre, 50 GHz spacing.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] only for zero channels.
    pub fn dense_50ghz(channels: usize) -> Result<Self> {
        WdmGrid::new(1550e-9, 50e9, channels)
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Channel spacing in Hz.
    #[must_use]
    pub fn spacing_hz(&self) -> f64 {
        self.spacing_hz
    }

    /// Centre wavelength in metres.
    #[must_use]
    pub fn center_m(&self) -> f64 {
        self.center_m
    }

    /// Optical frequency of channel `i` (Hz). Channels are indexed from the
    /// lowest frequency; the comb is centred on the centre wavelength.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] for an out-of-range
    /// index.
    pub fn frequency_hz(&self, i: usize) -> Result<f64> {
        if i >= self.channels {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.channels,
                actual: i,
            });
        }
        Ok(self.channel_frequency_hz(i))
    }

    /// [`frequency_hz`](Self::frequency_hz) for an index the caller has
    /// bounded by `channels`.
    fn channel_frequency_hz(&self, i: usize) -> f64 {
        let f_center = SPEED_OF_LIGHT / self.center_m;
        let offset = i as f64 - (self.channels as f64 - 1.0) / 2.0;
        f_center + offset * self.spacing_hz
    }

    /// Wavelength of channel `i` in metres.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] for an out-of-range
    /// index.
    pub fn wavelength_m(&self, i: usize) -> Result<f64> {
        Ok(SPEED_OF_LIGHT / self.frequency_hz(i)?)
    }

    /// All channel wavelengths, metres, in channel order.
    #[must_use]
    pub fn wavelengths_m(&self) -> Vec<f64> {
        (0..self.channels)
            .map(|i| SPEED_OF_LIGHT / self.channel_frequency_hz(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(WdmGrid::new(1550e-9, 50e9, 0).is_err());
        assert!(WdmGrid::new(1550e-9, 0.0, 4).is_err());
        assert!(WdmGrid::new(-1.0, 50e9, 4).is_err());
        assert!(WdmGrid::new(1550e-9, 50e9, 4).is_ok());
    }

    #[test]
    fn single_channel_sits_at_center() {
        let g = WdmGrid::dense_50ghz(1).unwrap();
        let wl = g.wavelength_m(0).unwrap();
        assert!((wl - 1550e-9).abs() < 1e-15);
    }

    #[test]
    fn channels_are_uniform_in_frequency() {
        let g = WdmGrid::dense_50ghz(8).unwrap();
        for i in 1..8 {
            let df = g.frequency_hz(i).unwrap() - g.frequency_hz(i - 1).unwrap();
            assert!((df - 50e9).abs() < 1.0, "spacing {df}");
        }
    }

    #[test]
    fn comb_is_centered() {
        let g = WdmGrid::dense_50ghz(5).unwrap();
        let f_center = SPEED_OF_LIGHT / 1550e-9;
        assert!((g.frequency_hz(2).unwrap() - f_center).abs() < 1.0);
    }

    #[test]
    fn wavelengths_descend_with_index() {
        // higher frequency = shorter wavelength
        let g = WdmGrid::dense_50ghz(4).unwrap();
        let wls = g.wavelengths_m();
        for w in wls.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn out_of_range_channel_rejected() {
        let g = WdmGrid::dense_50ghz(4).unwrap();
        assert!(g.frequency_hz(4).is_err());
        assert!(g.wavelength_m(100).is_err());
    }
}
