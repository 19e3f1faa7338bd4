//! Fleet co-design: from single-device Pareto designs to serving fleets.
//!
//! A frontier answers "which accelerator?"; a deployment also asks "which
//! *fleet* of them?". This stage takes the top frontier designs (by
//! single-frame latency), builds homogeneous fleets from each — plus one
//! heterogeneous fleet interleaving the top designs — replays the same
//! traffic against every fleet through the `pcnna-fleet` discrete-event
//! engine, and ranks the fleets by **SLO attainment per watt**: the
//! fraction of requests that met their deadline divided by the fleet's
//! mean service power (service energy over the simulated makespan). The
//! simulation seed is fixed per ranking, so co-design runs are as
//! reproducible as the searches that feed them.
//!
//! Two consequences of the fleet engine pricing batches from the
//! `PcnnaConfig` alone (its affine `ServiceQuote` covers the electronic
//! pipeline, not the spectral budget):
//!
//! * frontier entries that differ only in their `SpectralBudget` would
//!   build bit-identical fleets, so the top-k selection **dedupes by
//!   config** and fields each distinct hardware once;
//! * a design whose DSE latency was bound by spectral partitioning is
//!   served faster in the fleet simulation than the optics allow — such
//!   rows carry [`CodesignRow::spectrally_bound`] `= true` and should be
//!   read as optimistic upper bounds.

use crate::pareto::ParetoFrontier;
use crate::{DseError, Result};
use pcnna_fleet::prelude::*;
use pcnna_fleet::workload::NetworkClass;

/// Parameters of a co-design ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignConfig {
    /// How many frontier designs (by ascending latency) to field.
    pub top_k: usize,
    /// Instances per fleet.
    pub fleet_size: usize,
    /// Offered traffic.
    pub arrival: ArrivalProcess,
    /// Batching admission policy.
    pub policy: Policy,
    /// Simulated arrival horizon, seconds.
    pub horizon_s: f64,
    /// Simulation seed (shared by every fleet in the ranking).
    pub seed: u64,
    /// Largest batch one dispatch may carry.
    pub max_batch: u64,
    /// Admission queue bound.
    pub queue_capacity: usize,
}

impl Default for CodesignConfig {
    fn default() -> Self {
        CodesignConfig {
            top_k: 4,
            fleet_size: 4,
            arrival: ArrivalProcess::Poisson { rate_rps: 20_000.0 },
            policy: Policy::NetworkAffinity,
            horizon_s: 0.5,
            seed: 7,
            max_batch: 32,
            queue_capacity: 50_000,
        }
    }
}

/// One ranked fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignRow {
    /// Human-readable fleet label (`uniform-xxxxxxxx` or `mixed`).
    pub label: String,
    /// Fingerprints of the frontier designs fielded, in instance order.
    pub fingerprints: Vec<u64>,
    /// Fraction of completed requests that met their SLO.
    pub slo_attainment: f64,
    /// Mean service power over the makespan, watts.
    pub mean_power_w: f64,
    /// The ranking key: `slo_attainment / mean_power_w` (0 when idle).
    pub slo_per_watt: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Energy per completed request, millijoules.
    pub energy_per_request_mj: f64,
    /// Whether any fielded design's DSE latency was bound by spectral
    /// partitioning: the fleet engine cannot price that optical
    /// correction, so this row's service times are optimistic.
    pub spectrally_bound: bool,
}

/// Builds, simulates, and ranks fleets from the frontier's top designs.
/// Rows come back sorted by descending SLO-attainment-per-watt.
///
/// # Errors
///
/// Returns [`DseError::EmptyFrontier`] if `frontier` has no designs, and
/// propagates scenario/quoting failures from the fleet engine.
pub fn co_design(
    frontier: &ParetoFrontier,
    classes: &[NetworkClass],
    config: &CodesignConfig,
) -> Result<Vec<CodesignRow>> {
    // Take the fastest top_k designs with *distinct serving hardware*.
    // The fleet engine's ServiceQuote depends on the electronic config
    // only — neither the spectral budget nor the functional link enters
    // it — so entries differing only in those fields would build fleets
    // with bit-identical serving stats. Compare configs with the link
    // normalized out to field each distinct quote once.
    let serving_key = |c: &pcnna_core::PcnnaConfig| pcnna_core::PcnnaConfig {
        link: pcnna_photonics::link::LinkConfig::default(),
        ..*c
    };
    let mut top: Vec<&crate::pareto::FrontierEntry> = Vec::new();
    for entry in frontier.sorted_by_latency() {
        if top.len() >= config.top_k.max(1) {
            break;
        }
        if top
            .iter()
            .any(|t| serving_key(&t.candidate.config) == serving_key(&entry.candidate.config))
        {
            continue;
        }
        top.push(entry);
    }
    if top.is_empty() {
        return Err(DseError::EmptyFrontier);
    }

    type Fleet = (String, Vec<u64>, Vec<pcnna_core::PcnnaConfig>, bool);
    let mut fleets: Vec<Fleet> = Vec::new();
    for entry in &top {
        let fp = entry.point.fingerprint;
        fleets.push((
            format!("uniform-{:08x}", (fp >> 32) as u32),
            vec![fp; config.fleet_size],
            vec![entry.candidate.config; config.fleet_size],
            entry.point.spectrally_bound,
        ));
    }
    if top.len() >= 2 {
        // One heterogeneous fleet: interleave the top designs round-robin.
        let fps: Vec<u64> = (0..config.fleet_size)
            .map(|i| top[i % top.len()].point.fingerprint)
            .collect();
        let configs: Vec<_> = (0..config.fleet_size)
            .map(|i| top[i % top.len()].candidate.config)
            .collect();
        let bound = top.iter().any(|t| t.point.spectrally_bound);
        fleets.push(("mixed".to_owned(), fps, configs, bound));
    }

    let mut rows = Vec::with_capacity(fleets.len());
    for (label, fingerprints, instances, spectrally_bound) in fleets {
        let report = FleetScenario {
            classes: classes.to_vec(),
            arrival: config.arrival,
            policy: config.policy,
            instances,
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
            horizon_s: config.horizon_s,
            seed: config.seed,
            ..FleetScenario::default()
        }
        .simulate()
        .map_err(DseError::Fleet)?;
        let mean_power_w = if report.makespan_s > 0.0 {
            report.energy_j / report.makespan_s
        } else {
            0.0
        };
        let slo_per_watt = if mean_power_w > 0.0 {
            report.slo_attainment / mean_power_w
        } else {
            0.0
        };
        rows.push(CodesignRow {
            label,
            fingerprints,
            slo_attainment: report.slo_attainment,
            mean_power_w,
            slo_per_watt,
            throughput_rps: report.throughput_rps,
            p99_ms: 1e3 * report.latency.p99_s,
            energy_per_request_mj: 1e3 * report.energy_per_request_j,
            spectrally_bound,
        });
    }
    rows.sort_by(|a, b| {
        b.slo_per_watt
            .total_cmp(&a.slo_per_watt)
            .then_with(|| a.label.cmp(&b.label))
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objectives::Evaluator;
    use crate::search::grid_sweep;
    use crate::space::DesignSpace;

    fn quick_frontier() -> ParetoFrontier {
        grid_sweep(&DesignSpace::smoke(), &Evaluator::alexnet(), 4)
            .unwrap()
            .frontier
    }

    fn quick_config() -> CodesignConfig {
        CodesignConfig {
            top_k: 3,
            fleet_size: 2,
            arrival: ArrivalProcess::Poisson { rate_rps: 4_000.0 },
            horizon_s: 0.05,
            ..CodesignConfig::default()
        }
    }

    #[test]
    fn co_design_ranks_fleets_and_reports_finite_rows() {
        let frontier = quick_frontier();
        assert!(frontier.len() >= 2, "smoke grid should leave a frontier");
        let classes = vec![
            NetworkClass::alexnet(0.050, 1.0),
            NetworkClass::lenet5(0.010, 2.0),
        ];
        let rows = co_design(&frontier, &classes, &quick_config()).unwrap();
        // up to top-3 uniform fleets (deduped by config) + the mixed fleet
        assert!(rows.len() >= 2 && rows.len() <= 4, "{}", rows.len());
        for w in rows.windows(2) {
            assert!(w[0].slo_per_watt >= w[1].slo_per_watt, "rows not sorted");
        }
        for r in &rows {
            assert!(r.slo_per_watt.is_finite(), "{}", r.label);
            assert!(r.mean_power_w > 0.0, "{}", r.label);
            assert!((0.0..=1.0).contains(&r.slo_attainment), "{}", r.label);
            assert_eq!(r.fingerprints.len(), 2);
        }
        assert!(rows.iter().any(|r| r.label == "mixed"));
    }

    #[test]
    fn co_design_is_deterministic() {
        let frontier = quick_frontier();
        let classes = vec![NetworkClass::lenet5(0.010, 1.0)];
        let cfg = quick_config();
        let a = co_design(&frontier, &classes, &cfg).unwrap();
        let b = co_design(&frontier, &classes, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn codesign_dedupes_identical_hardware() {
        use crate::objectives::DesignPoint;
        use crate::space::Candidate;
        // Two frontier entries with the same PcnnaConfig but different
        // spectral budgets: mutually non-dominated design *points*, yet
        // bit-identical serving hardware — co-design must field one fleet.
        let a = Candidate::paper_default();
        let b = Candidate {
            budget: a.budget.with_channel_spacing_hz(100e9),
            ..a
        };
        let point = |fp: u64, latency: f64, energy: f64| DesignPoint {
            fingerprint: fp,
            latency_s: latency,
            energy_j: energy,
            area_mm2: 1.0,
            snr_headroom_db: 0.0,
            usable_channels: 1,
            spectral_passes: 1,
            spectrally_bound: false,
            throughput_fps: 1.0 / latency,
        };
        let mut frontier = ParetoFrontier::new();
        assert!(frontier.insert(a, point(a.fingerprint(), 1.0, 2.0)));
        assert!(frontier.insert(b, point(b.fingerprint(), 2.0, 1.0)));
        assert_eq!(frontier.len(), 2);
        let rows = co_design(
            &frontier,
            &[NetworkClass::lenet5(0.010, 1.0)],
            &quick_config(),
        )
        .unwrap();
        // one uniform fleet, no mixed fleet (only one distinct config)
        assert_eq!(rows.len(), 1);
        assert_ne!(rows[0].label, "mixed");

        // Same through the harmonized path: assembled candidates differing
        // only in WDM spacing also differ in their *link* (the harmonizer
        // mirrors the budget into it), but still quote identically.
        use crate::space::{DesignSpace, KnobChoice};
        let space = DesignSpace::smoke();
        let a = space.assemble(KnobChoice([0, 0, 0, 0, 0, 0, 0]));
        let b = space.assemble(KnobChoice([0, 0, 0, 0, 0, 1, 0]));
        assert_ne!(a.config, b.config, "links must differ after harmonizing");
        let mut frontier = ParetoFrontier::new();
        assert!(frontier.insert(a, point(a.fingerprint(), 1.0, 2.0)));
        assert!(frontier.insert(b, point(b.fingerprint(), 2.0, 1.0)));
        let rows = co_design(
            &frontier,
            &[NetworkClass::lenet5(0.010, 1.0)],
            &quick_config(),
        )
        .unwrap();
        assert_eq!(rows.len(), 1, "link-only differences must dedupe");
    }

    #[test]
    fn empty_frontier_is_an_error() {
        let classes = vec![NetworkClass::lenet5(0.010, 1.0)];
        assert!(matches!(
            co_design(&ParetoFrontier::new(), &classes, &quick_config()),
            Err(DseError::EmptyFrontier)
        ));
    }
}
