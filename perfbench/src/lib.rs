//! The PCNNA workspace's performance benchmark.
//!
//! Four seeded workloads exercise the layers a later performance claim
//! may touch: the small fleet (whole-fleet engine), the mega fleet
//! (sharded engine on every core), chaos under closed-loop control, and
//! the design-space sweep. An untraced run measures end-to-end host and
//! simulated metrics with every correctness check on; a traced run
//! measures a per-layer ledger from spans the benchmark records around
//! calls into each layer's public functions. See `NOTES.md` beside this
//! crate for seeds, the layer → end-to-end map and what is simulated.

#![forbid(unsafe_code)]

mod checks;
pub mod e2e;
pub mod ledger;
pub mod report;
mod stats;
pub mod workloads;
