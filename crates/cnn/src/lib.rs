//! CNN substrate for the PCNNA reproduction.
//!
//! This crate provides everything the accelerator model needs to reason about
//! convolutional neural networks *without* any external ML dependency:
//!
//! * [`tensor`] — a minimal dense row-major tensor with the handful of
//!   operations the reference kernels need.
//! * [`geometry`] — the convolution-layer parameter algebra of the paper's
//!   Table I and equations (1)–(3) and (6).
//! * [`layer`] / [`network`] — typed layer descriptions and whole-network
//!   containers with shape inference.
//! * [`reference`](mod@reference) — ground-truth functional kernels (direct and im2col
//!   convolution, pooling, ReLU, LRN, fully connected) used to validate the
//!   photonic datapath.
//! * [`quantize`] — 16-bit fixed-point quantization matching the paper's
//!   "8 thousand 16 bit values" SRAM sizing.
//! * [`zoo`] — layer tables for AlexNet (the paper's evaluation network),
//!   LeNet-5, VGG-16 and a small CIFAR network.
//! * [`workload`] — deterministic synthetic workload generators.
//! * [`stats`] — MAC/weight/activation accounting per layer and per network.
//! * [`metrics`] — task-level agreement metrics (argmax, channel-argmax agreement).
//! * [`train`] — a minimal trainable conv-net (the [`reference`](mod@reference)
//!   kernels, manual backprop + SGD) for measuring task accuracy of analog
//!   photonic inference, and the compiled accuracy ladder it reproduces.
//! * [`winograd`] — Winograd F(2×2, 3×3) convolution: a third independent
//!   implementation cross-checking the ground truth.
//!
//! # Example
//!
//! ```
//! use pcnna_cnn::geometry::ConvGeometry;
//!
//! // AlexNet conv1 as used in the paper (224x224x3 input, 96 11x11 kernels).
//! let conv1 = ConvGeometry::new(224, 11, 2, 4, 3, 96).unwrap();
//! assert_eq!(conv1.n_input(), 224 * 224 * 3);
//! assert_eq!(conv1.n_kernel(), 11 * 11 * 3);
//! assert_eq!(conv1.output_side(), 55);
//! assert_eq!(conv1.n_locations(), 55 * 55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod geometry;
pub mod layer;
pub mod metrics;
pub mod network;
pub mod quantize;
pub mod reference;
pub mod stats;
pub mod tensor;
pub mod train;
pub mod winograd;
pub mod workload;
pub mod zoo;

pub use geometry::ConvGeometry;
pub use layer::{ConvLayer, Layer, PoolKind, PoolLayer};
pub use network::Network;
pub use tensor::Tensor;

/// Errors produced by the CNN substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CnnError {
    /// A layer parameter combination is geometrically impossible
    /// (e.g. kernel larger than padded input, zero stride).
    InvalidGeometry {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A tensor shape did not match what an operation required.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually received.
        actual: String,
    },
    /// An index was out of bounds for a tensor.
    IndexOutOfBounds {
        /// The offending flat or multi-dimensional index, rendered.
        index: String,
        /// The tensor shape, rendered.
        shape: String,
    },
}

impl core::fmt::Display for CnnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CnnError::InvalidGeometry { reason } => {
                write!(f, "invalid convolution geometry: {reason}")
            }
            CnnError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            CnnError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index} out of bounds for shape {shape}")
            }
        }
    }
}

impl std::error::Error for CnnError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, CnnError>;
