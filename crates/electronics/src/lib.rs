//! Mixed-signal electronic substrate for the PCNNA reproduction.
//!
//! The paper's full-system performance "is bound by the electronics, both at
//! the front-end and the back-end" (§V-B). This crate models exactly the
//! electronic components the paper enumerates, with the paper's cited
//! datapoints as defaults:
//!
//! * [`time`] — picosecond-resolution simulated time ([`time::SimTime`]).
//! * [`clock`] — the two clock domains of Figure 4 (5 GHz fast / slower main).
//! * [`dac`] — the 16-bit 6 GSa/s DAC of ref. \[16\] and DAC arrays
//!   (1 kernel-weight DAC + 10 input DACs).
//! * [`adc`] — the 2.8 GSa/s ADC of ref. \[17\].
//! * [`sram`] — the 7 ns, 128 kb SRAM cache of ref. \[15\].
//! * [`dram`] — off-chip DRAM bandwidth/latency and traffic accounting.
//! * [`energy`] — electrical energy bookkeeping.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
// `if !(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0`
// it also rejects NaN, which must never enter a physical model.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod adc;
pub mod clock;
pub mod dac;
pub mod dram;
pub mod energy;
pub mod sram;
pub mod time;

pub use adc::AdcModel;
pub use clock::ClockDomain;
pub use dac::{DacArray, DacModel};
pub use dram::DramModel;
pub use sram::SramModel;
pub use time::SimTime;

/// Errors produced by the electronic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ElectronicError {
    /// A model parameter is physically meaningless.
    InvalidParameter {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A capacity was exceeded (SRAM/DRAM sizing).
    CapacityExceeded {
        /// Requested amount.
        requested: u64,
        /// Available amount.
        available: u64,
        /// Unit label, e.g. "words".
        unit: &'static str,
    },
}

impl core::fmt::Display for ElectronicError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ElectronicError::InvalidParameter { reason } => {
                write!(f, "invalid electronic parameter: {reason}")
            }
            ElectronicError::CapacityExceeded {
                requested,
                available,
                unit,
            } => write!(
                f,
                "capacity exceeded: requested {requested} {unit}, have {available}"
            ),
        }
    }
}

impl std::error::Error for ElectronicError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, ElectronicError>;
