//! # PCNNA — Photonic Convolutional Neural Network Accelerator
//!
//! A full-system Rust model reproducing *"PCNNA: A Photonic Convolutional
//! Neural Network Accelerator"* (Mehrabian, Al-Kabani, Sorger, El-Ghazawi —
//! SOCC 2018, arXiv:1807.08792), from the microring device physics up to
//! the paper's AlexNet evaluation.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`cnn`] — CNN substrate: tensors, Table-I geometry, reference kernels,
//!   model zoo, workloads.
//! * [`photonics`] — silicon-photonic devices: microrings, MRR weight
//!   banks, MZMs, lasers, photodiodes, broadcast-and-weight links.
//! * [`electronics`] — mixed-signal substrate: DAC/ADC, SRAM, DRAM, clocks.
//! * [`core`] — the accelerator: ring-allocation mapper (eq. 4/5),
//!   scheduler (Fig. 3), analytical timing framework (eq. 6–8, Fig. 6),
//!   pipeline simulator (Fig. 4) and functional photonic inference.
//! * [`baselines`] — Eyeriss-like and YodaNN-like comparators (Fig. 6).
//! * [`fleet`] — multi-accelerator serving simulation: arrival processes
//!   (Poisson / bursty MMPP / diurnal), batching admission schedulers
//!   (FIFO / EDF / network-affinity), a discrete-event engine over
//!   heterogeneous PCNNA fleets, and the serving figures of merit —
//!   p50/p95/p99/p999 latency, throughput, SLO attainment, utilization,
//!   energy per request.
//! * [`dse`] — parallel multi-objective design-space exploration:
//!   enumerable knob spaces over `PcnnaConfig` × `SpectralBudget`,
//!   latency/energy/area/SNR-headroom objectives, an incremental Pareto
//!   frontier with a memoized evaluation cache, seeded grid/evolutionary
//!   search, and fleet co-design ranked by SLO attainment per watt.
//!
//! ## Quickstart
//!
//! ```
//! use pcnna::core::{Pcnna, PcnnaConfig};
//! use pcnna::cnn::zoo;
//!
//! let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
//! let report = accel.analyze_conv_layers(&zoo::alexnet_conv_layers()).unwrap();
//! for layer in &report.layers {
//!     println!(
//!         "{}: {} rings (filtered), optical {} / full-system {}",
//!         layer.name, layer.rings_filtered, layer.optical_time, layer.full_system_time
//!     );
//! }
//! // The paper's headline: conv1 needs ~35k rings instead of ~5.2 billion.
//! assert_eq!(report.layers[0].rings_filtered, 34_848);
//! ```
//!
//! ## Serving simulation
//!
//! ```
//! use pcnna::core::PcnnaConfig;
//! use pcnna::fleet::prelude::*;
//!
//! let report = FleetScenario {
//!     classes: vec![
//!         NetworkClass::alexnet(0.004, 1.0),
//!         NetworkClass::lenet5(0.0005, 3.0),
//!     ],
//!     arrival: ArrivalProcess::Poisson { rate_rps: 5_000.0 },
//!     policy: Policy::NetworkAffinity,
//!     instances: vec![PcnnaConfig::default(); 4],
//!     horizon_s: 0.1,
//!     ..FleetScenario::default()
//! }
//! .simulate()
//! .unwrap();
//! assert_eq!(report.admitted, report.completed);
//! assert!(report.latency.p99_s >= report.latency.p50_s);
//! ```
//!
//! The `examples/` directory holds two runnable walkthroughs:
//! `fleet_serving` (multi-accelerator serving with SLO tables) and
//! `fault_tolerance` (the heat-wave chaos story). Table I and Figs. 2–6
//! are in `EXPERIMENTS.md`, written by
//! `cargo run --release -p pcnna-bench --bin paper`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pcnna_baselines as baselines;
pub use pcnna_cnn as cnn;
pub use pcnna_core as core;
pub use pcnna_dse as dse;
pub use pcnna_electronics as electronics;
pub use pcnna_fleet as fleet;
pub use pcnna_photonics as photonics;
