//! Baseline electronic CNN accelerator models.
//!
//! The paper's Figure 6 compares PCNNA's per-layer execution time against
//! two published electronic accelerators: **Eyeriss** (Chen et al., ISSCC/
//! ISCA 2016 — a 12×14 row-stationary PE array at 200 MHz) and **YodaNN**
//! (Andri et al., ISVLSI 2016 — a binary-weight accelerator at up to
//! 480 MHz). Neither chip is available here (nor was it to the paper's
//! authors), and the paper reads their numbers off the published charts; we
//! substitute *analytical throughput models* calibrated to each chip's
//! published architecture parameters, which reproduce the ordering and the
//! orders-of-magnitude gaps Figure 6 shows.
//!
//! All models implement [`AcceleratorModel`] so the figure harnesses can
//! treat engines uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod eyeriss;
pub mod model;
pub mod yodann;

pub use eyeriss::Eyeriss;
pub use model::AcceleratorModel;
pub use yodann::YodaNn;
