//! PCNNA core: the photonic convolutional-neural-network accelerator.
//!
//! This crate implements the paper's primary contribution on top of the
//! `pcnna-cnn`, `pcnna-photonics` and `pcnna-electronics` substrates:
//!
//! * [`config`] — the full hardware configuration, defaulting to the paper's
//!   design point (5 GHz fast clock, 10 input DACs at 6 GSa/s, 2.8 GSa/s
//!   ADC, 7 ns 128 kb SRAM, 25 µm microrings).
//! * [`mapping`] — ring allocation with and without receptive-field
//!   filtering (paper equations (4)/(5)) and the microring area model
//!   (§V-A, Figure 5).
//! * [`scheduler`] — the kernel-location schedule of Figure 3, with exact
//!   stride-based incremental input-update sets (the numerator of eq. (8)).
//! * [`analytical`] — the execution-time framework (equations (6)–(8),
//!   Figure 6): optical-core time and full-system time under electronic I/O
//!   constraints.
//! * [`simulator`] — a cycle-approximate pipeline simulator
//!   (DRAM → buffer → SRAM → DAC → MZM → MRR → PD → ADC → DRAM, with double
//!   buffering) that cross-checks the analytical model and reports cache,
//!   traffic and energy detail the paper does not.
//! * [`functional`] — functional photonic inference: runs actual
//!   convolutions through the device models (calibrated weight banks,
//!   quantized converters, optional shot/thermal/RIN noise) and scores the
//!   result against the ground-truth reference.
//! * [`feasibility`] — spectral-budget analysis (C band, microring FSR)
//!   the paper omits: how many WDM carriers a layer really gets and what
//!   spectral partitioning costs (reproduction extension).
//! * [`power`] — full-system power/energy model (reproduction extension).
//! * [`execution`] — whole-network sequential execution: latency and
//!   frames/second, with and without per-layer weight reprogramming.
//! * [`tiling`] — channel tiling for layers exceeding the SRAM/carrier
//!   budgets, with partial-sum accounting (reproduction extension).
//! * [`serving`] — collapses a (network, config) pair into an affine
//!   [`serving::ServiceQuote`] (weight-load intercept + per-frame slope for
//!   time and energy) so the `pcnna-fleet` serving simulator can price
//!   batches without re-running the analytical model (reproduction
//!   extension).
//! * [`accel`] — the high-level [`accel::Pcnna`] API tying it all together.
//!
//! # Quickstart
//!
//! ```
//! use pcnna_core::accel::Pcnna;
//! use pcnna_core::config::PcnnaConfig;
//! use pcnna_cnn::zoo;
//!
//! let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
//! let report = accel.analyze_conv_layers(&zoo::alexnet_conv_layers()).unwrap();
//! // Figure 5: filtered ring counts; conv1 ≈ 35k (paper §V-A)
//! assert_eq!(report.layers[0].rings_filtered, 34_848);
//! // Figure 6: optical-core time; conv1 = 3025 locations at 5 GHz = 605 ns
//! assert_eq!(report.layers[0].optical_time.as_ps(), 3025 * 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// `if !(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0`
// it also rejects NaN, which must never enter a physical model.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod accel;
pub mod analytical;
pub mod config;
pub mod execution;
pub mod feasibility;
pub mod functional;
pub mod mapping;
pub mod power;
pub mod scheduler;
pub mod serving;
pub mod simulator;
pub mod tiling;

pub use accel::Pcnna;
pub use config::PcnnaConfig;

/// Errors produced by the PCNNA core.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Description of the violated constraint.
        reason: String,
    },
    /// An error bubbled up from the CNN substrate.
    Cnn(pcnna_cnn::CnnError),
    /// An error bubbled up from the photonic substrate.
    Photonic(pcnna_photonics::PhotonicError),
    /// An error bubbled up from the electronic substrate.
    Electronic(pcnna_electronics::ElectronicError),
    /// A layer does not fit the configured hardware (SRAM, wavelengths…).
    ResourceExceeded {
        /// What ran out.
        resource: &'static str,
        /// Requested amount.
        requested: u64,
        /// Available amount.
        available: u64,
    },
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid PCNNA config: {reason}"),
            CoreError::Cnn(e) => write!(f, "CNN substrate error: {e}"),
            CoreError::Photonic(e) => write!(f, "photonic substrate error: {e}"),
            CoreError::Electronic(e) => write!(f, "electronic substrate error: {e}"),
            CoreError::ResourceExceeded {
                resource,
                requested,
                available,
            } => write!(
                f,
                "resource exceeded: {resource} needs {requested}, hardware provides {available}"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Cnn(e) => Some(e),
            CoreError::Photonic(e) => Some(e),
            CoreError::Electronic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pcnna_cnn::CnnError> for CoreError {
    fn from(e: pcnna_cnn::CnnError) -> Self {
        CoreError::Cnn(e)
    }
}

impl From<pcnna_photonics::PhotonicError> for CoreError {
    fn from(e: pcnna_photonics::PhotonicError) -> Self {
        CoreError::Photonic(e)
    }
}

impl From<pcnna_electronics::ElectronicError> for CoreError {
    fn from(e: pcnna_electronics::ElectronicError) -> Self {
        CoreError::Electronic(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, CoreError>;
