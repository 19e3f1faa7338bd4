//! # pcnna-dse — parallel multi-objective design-space exploration.
//!
//! The paper fixes one accelerator design point; the rest of this
//! workspace models a huge configuration space around it — converter
//! provisioning, clock domains, allocation policy, WDM spacing, microring
//! geometry. This crate turns those layers into a machine for answering
//! *"what accelerator (and what fleet of them) should we build for
//! workload X?"*:
//!
//! * [`space`] — the [`DesignSpace`]: enumerable / sampleable knob lists
//!   over [`PcnnaConfig`](pcnna_core::PcnnaConfig) ×
//!   [`SpectralBudget`](pcnna_core::feasibility::SpectralBudget), applied
//!   through `with_*` builders only, with a stable per-candidate
//!   fingerprint.
//! * [`objectives`] — the [`Evaluator`]: one named CNN workload from
//!   `pcnna_cnn::zoo`, four objectives per candidate (latency, energy,
//!   area proxy, SNR headroom), priced as three parts — electronic,
//!   spectral, link SNR — and one combine step. The module docs give the
//!   exact sources, the dominance rule, and the map of which knob feeds
//!   which part.
//! * [`pareto`] — the incremental [`ParetoFrontier`] with dominance
//!   pruning.
//! * [`cache`] — the fingerprint-keyed [`EvalCache`] for callers that
//!   price candidates one at a time; repeat designs return bit-identical
//!   verdicts without re-running the models. The searches do not use it.
//! * [`search`] — exhaustive [`grid_sweep`] and the seeded [`evolve`]
//!   evolutionary search. Both dedup proposals by canonical knob choice
//!   before pricing them, read the parts from tables built once per knob
//!   projection, may spread the pricing across threads via
//!   `pcnna_fleet::par::par_map_slice`, and assemble and fingerprint only
//!   the designs their frontier admits; the grid sweep streams the grid
//!   in fixed-size blocks.
//! * [`codesign`] — [`co_design`]: fields the top frontier designs as
//!   serving fleets (uniform and mixed), replays traffic through the
//!   `pcnna-fleet` engine, and ranks them by SLO attainment per watt.
//!
//! ## Determinism guarantees
//!
//! Exploration is reproducible by construction:
//!
//! 1. every model in the evaluation path is deterministic (no noise
//!    sampling — the SNR objective is the closed-form full-scale link
//!    SNR);
//! 2. all search randomness flows from one [`rand::rngs::StdRng`] seeded
//!    by the caller;
//! 3. parallel evaluation uses an order-preserving thread map and folds
//!    results into the frontier sequentially in proposal order, and each
//!    table slot is built from its projection's canonical candidate, so
//!    thread count and scheduling cannot change the outcome;
//! 4. tabled and cached verdicts are bit-identical to the fresh
//!    per-candidate evaluation ([`DesignPoint`] is `Copy` and compared
//!    field-for-field in the property tests).
//!
//! Same seed ⇒ same frontier, across runs and across thread counts.
//!
//! ## Quickstart
//!
//! ```
//! use pcnna_dse::prelude::*;
//!
//! let space = DesignSpace::smoke();
//! let out = grid_sweep(&space, &Evaluator::alexnet(), 4).unwrap();
//! assert!(!out.frontier.is_empty());
//! for entry in out.frontier.sorted_by_latency().iter().take(3) {
//!     println!(
//!         "{:08x}: {:.3} ms, {:.1} mJ",
//!         (entry.point.fingerprint >> 32) as u32,
//!         1e3 * entry.point.latency_s,
//!         1e3 * entry.point.energy_j,
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// `if !(x > 0.0)` in parameter validation is deliberate: unlike `x <= 0.0`
// it also rejects NaN, which must never enter the models (same policy as
// pcnna-core).
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cache;
pub mod codesign;
pub mod objectives;
pub mod pareto;
pub mod search;
pub mod space;

pub use cache::EvalCache;
pub use codesign::{co_design, CodesignConfig, CodesignRow};
pub use objectives::{DesignPoint, Evaluator};
pub use pareto::{FrontierEntry, ParetoFrontier};
pub use search::{evolve, grid_sweep, EvolutionConfig, SearchOutcome, SearchStats, MAX_POPULATION};
pub use space::{Candidate, DesignSpace, KnobChoice};

/// Errors produced by the design-space explorer.
#[derive(Debug)]
#[non_exhaustive]
pub enum DseError {
    /// A design space (or search configuration) is degenerate.
    InvalidSpace {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A model produced a non-finite objective for this candidate.
    NonFiniteObjective {
        /// The offending candidate's fingerprint.
        fingerprint: u64,
    },
    /// Co-design was asked to field an empty frontier.
    EmptyFrontier,
    /// An error bubbled up from the accelerator core models.
    Core(pcnna_core::CoreError),
    /// An error bubbled up from the photonic link models.
    Photonic(pcnna_photonics::PhotonicError),
    /// An error bubbled up from the fleet engine during co-design.
    Fleet(pcnna_fleet::FleetError),
}

impl core::fmt::Display for DseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DseError::InvalidSpace { reason } => write!(f, "invalid design space: {reason}"),
            DseError::NonFiniteObjective { fingerprint } => {
                write!(f, "non-finite objective for candidate {fingerprint:016x}")
            }
            DseError::EmptyFrontier => write!(f, "co-design needs a non-empty frontier"),
            DseError::Core(e) => write!(f, "core model error: {e}"),
            DseError::Photonic(e) => write!(f, "photonic model error: {e}"),
            DseError::Fleet(e) => write!(f, "fleet engine error: {e}"),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Core(e) => Some(e),
            DseError::Photonic(e) => Some(e),
            DseError::Fleet(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, DseError>;

/// One-stop imports for exploration drivers.
pub mod prelude {
    pub use crate::cache::EvalCache;
    pub use crate::codesign::{co_design, CodesignConfig, CodesignRow};
    pub use crate::objectives::{DesignPoint, Evaluator};
    pub use crate::pareto::{FrontierEntry, ParetoFrontier};
    pub use crate::search::{
        default_threads, evolve, grid_sweep, EvolutionConfig, SearchOutcome, SearchStats,
    };
    pub use crate::space::{Candidate, DesignSpace, KnobChoice};
}
