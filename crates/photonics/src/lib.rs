//! Silicon-photonic device substrate for the PCNNA reproduction.
//!
//! The paper's compute fabric is the broadcast-and-weight architecture of
//! Tait et al. (Scientific Reports 2017): inputs ride on WDM wavelengths,
//! microring-resonator (MRR) weight banks scale each wavelength in amplitude,
//! and a balanced photodiode pair sums the result into a photocurrent — an
//! analog multiply-and-accumulate. The paper treats this fabric as a given;
//! since no physical hardware (nor any Rust photonics ecosystem) is
//! available, this crate simulates it at device level:
//!
//! * [`wavelength`] — WDM grids on the ITU C band.
//! * [`microring`] — Lorentzian add-drop ring model with thermal tuning and
//!   quantized drive.
//! * [`weight_bank`] — serial MRR banks with inter-channel crosstalk and an
//!   iterative calibration loop.
//! * [`modulator`] — Mach-Zehnder intensity modulators with pre-distortion.
//! * [`laser`] — laser diode arrays with relative-intensity noise.
//! * [`photodiode`] — responsivity, shot and thermal noise, balanced pairs.
//! * [`thermal`] — heater crosstalk, ambient drift, closed-loop recovery.
//! * [`degradation`] — device health (drift since the last ring lock,
//!   laser aging, dead converter channels) and the serviceability
//!   envelope the fleet's chaos timelines are judged against.
//! * [`waveguide`] — propagation/splitter losses and link power budgets.
//! * [`link`] — the end-to-end broadcast-and-weight MAC datapath.
//! * [`noise`] — SNR/ENOB aggregation helpers.
//! * [`power`] — electrical/optical power accounting.
//!
//! All physical quantities are SI (`f64`): watts, meters, seconds, amperes;
//! wavelengths are expressed in meters (helpers accept nanometres).
//!
//! # Example: a 4-input photonic dot product
//!
//! ```
//! use pcnna_photonics::link::{BroadcastWeightLink, LinkConfig};
//!
//! let mut link = BroadcastWeightLink::new(LinkConfig::default(), 4, 1).unwrap();
//! link.set_weights(0, &[0.5, -0.25, 1.0, 0.0]).unwrap();
//! let out = link.mac_ideal(&[0.2, 0.4, 0.6, 0.8]).unwrap();
//! let expect = 0.5 * 0.2 - 0.25 * 0.4 + 1.0 * 0.6;
//! assert!((out[0] - expect).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
// `if !(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0`
// it also rejects NaN, which must never enter a physical model.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod degradation;
pub mod laser;
pub mod link;
pub mod microring;
pub mod modulator;
pub mod noise;
pub mod photodiode;
pub mod power;
pub mod thermal;
pub mod waveguide;
pub mod wavelength;
pub mod weight_bank;

pub use degradation::{DegradationLimits, HealthState};
pub use link::{BroadcastWeightLink, LinkConfig};
pub use microring::Microring;
pub use wavelength::WdmGrid;
pub use weight_bank::MrrWeightBank;

/// Errors produced by the photonic substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhotonicError {
    /// A requested weight is outside the physically realisable range.
    WeightOutOfRange {
        /// The offending weight.
        weight: f64,
        /// Lower bound of the realisable range for this configuration.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// A vector length did not match the device channel count.
    ChannelCountMismatch {
        /// Channels the device provides.
        expected: usize,
        /// Values supplied.
        actual: usize,
    },
    /// A bank index was out of range.
    BankOutOfRange {
        /// Requested index.
        index: usize,
        /// Number of banks.
        banks: usize,
    },
    /// Calibration failed to converge to the requested tolerance.
    CalibrationDiverged {
        /// Residual max weight error when iteration stopped.
        residual: f64,
        /// Requested tolerance.
        tolerance: f64,
    },
    /// A device parameter is physically meaningless (negative power, zero Q…).
    InvalidParameter {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl core::fmt::Display for PhotonicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PhotonicError::WeightOutOfRange { weight, min, max } => {
                write!(f, "weight {weight} outside realisable range [{min}, {max}]")
            }
            PhotonicError::ChannelCountMismatch { expected, actual } => {
                write!(f, "expected {expected} channel values, got {actual}")
            }
            PhotonicError::BankOutOfRange { index, banks } => {
                write!(f, "bank index {index} out of range for {banks} banks")
            }
            PhotonicError::CalibrationDiverged {
                residual,
                tolerance,
            } => write!(
                f,
                "weight-bank calibration stopped at residual {residual:.3e} > tolerance {tolerance:.3e}"
            ),
            PhotonicError::InvalidParameter { reason } => {
                write!(f, "invalid photonic parameter: {reason}")
            }
        }
    }
}

impl std::error::Error for PhotonicError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, PhotonicError>;

/// Physical constants used across the crate.
pub mod constants {
    /// Speed of light in vacuum, m/s.
    pub const SPEED_OF_LIGHT: f64 = 2.997_924_58e8;
    /// Elementary charge, C.
    pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;
    /// Boltzmann constant, J/K.
    pub const BOLTZMANN: f64 = 1.380_649e-23;
    /// Room temperature, K.
    pub const ROOM_TEMPERATURE: f64 = 300.0;
    /// Centre of the ITU C band, metres (1550 nm).
    pub const C_BAND_CENTER_M: f64 = 1550e-9;
}
