//! Candidate evaluation: from a [`Candidate`] and a named CNN workload to
//! a multi-objective [`DesignPoint`].
//!
//! ## The four objectives
//!
//! | objective          | sense    | source |
//! |--------------------|----------|--------|
//! | `latency_s`        | minimize | per layer, the later of the electronic bound ([`AnalyticalModel`] full-system time) and the spectrally-partitioned optical bound ([`FeasibilityModel`] corrected optical time), summed over the network |
//! | `energy_j`         | minimize | [`PowerModel`] per-layer ledgers (converters, memories, lasers, heaters, modulators, receivers) at the analytical execution time |
//! | `area_mm2`         | minimize | converter die areas × counts + SRAM + the largest layer's MRR footprint at the configured ring pitch |
//! | `snr_headroom_db`  | maximize | photonic link full-scale SNR at the candidate's detection bandwidth, degraded by adjacent-channel crosstalk through the ring's Lorentzian response at the configured WDM spacing, minus the SNR an ideal `adc.bits`-bit quantizer demands (`6.02·bits + 1.76` dB) |
//!
//! The crosstalk term is what makes the wavelength knob a genuine
//! trade-off: tighter spacing buys more simultaneous carriers (fewer
//! spectral passes → lower latency) but parks the neighbours closer to
//! each ring's resonance (more interference → less headroom).
//!
//! ## Dominance rule
//!
//! All four objectives are folded into a minimized vector (headroom is
//! negated). `a` **dominates** `b` iff `a` is no worse in every component
//! and strictly better in at least one; **weak dominance** drops the
//! strictness requirement (so a point weakly dominates its own copy). The
//! Pareto frontier keeps exactly the points no other evaluated point
//! dominates.
//!
//! Candidates whose workload does not fit (SRAM working set, invalid
//! config) or whose objectives come out non-finite are *infeasible*:
//! [`Evaluator::evaluate`] returns `None` and the search counts them
//! without inserting anything.

use crate::space::Candidate;
use crate::{DseError, Result};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::zoo;
use pcnna_core::analytical::AnalyticalModel;
use pcnna_core::feasibility::FeasibilityModel;
use pcnna_core::power::{PowerAssumptions, PowerModel};
use pcnna_photonics::constants::SPEED_OF_LIGHT;
use pcnna_photonics::link::BroadcastWeightLink;

/// Power ratio of adjacent-channel crosstalk: the two nearest WDM
/// neighbours leak through a ring's Lorentzian drop response evaluated one
/// channel spacing off resonance (`T(δ) = 1 / (1 + (2δ/FWHM)²)`,
/// `FWHM = f₀/Q`).
#[must_use]
pub fn crosstalk_ratio(q_factor: f64, spacing_hz: f64, center_m: f64) -> f64 {
    let f0 = SPEED_OF_LIGHT / center_m;
    let fwhm = f0 / q_factor;
    2.0 / (1.0 + (2.0 * spacing_hz / fwhm).powi(2))
}

/// The evaluated objectives (plus diagnostics) of one candidate on one
/// workload. `Copy` + `PartialEq` so cache hits can be checked for
/// bit-identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The evaluated candidate's fingerprint (cache key).
    pub fingerprint: u64,
    /// End-to-end single-frame latency over the workload, seconds
    /// (minimize).
    pub latency_s: f64,
    /// Energy per frame, joules (minimize).
    pub energy_j: f64,
    /// Die-area proxy, mm² (minimize).
    pub area_mm2: f64,
    /// Link SNR minus the ADC's quantization-SNR demand, dB (maximize).
    pub snr_headroom_db: f64,
    /// Simultaneous WDM carriers the spectral budget allows.
    pub usable_channels: u64,
    /// Total sequential spectral passes across the workload's layers.
    pub spectral_passes: u64,
    /// Whether any layer's latency was bound by spectral partitioning
    /// rather than the electronic pipeline. Consumers that price this
    /// design with electronics-only models (e.g. the fleet engine's
    /// serving quotes) underestimate its service time — the co-design
    /// stage flags such rows.
    pub spectrally_bound: bool,
    /// Convenience: `1 / latency_s`, frames/second.
    pub throughput_fps: f64,
}

impl DesignPoint {
    /// The minimized objective vector: `[latency, energy, area,
    /// -snr_headroom]`.
    #[must_use]
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.latency_s,
            self.energy_j,
            self.area_mm2,
            -self.snr_headroom_db,
        ]
    }

    /// Whether every objective is finite (non-finite points never enter a
    /// frontier).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.objectives().iter().all(|v| v.is_finite())
    }

    /// Strict Pareto dominance: no worse everywhere, strictly better
    /// somewhere.
    #[must_use]
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        let mut strictly_better = false;
        for (x, y) in a.iter().zip(&b) {
            if x > y {
                return false;
            }
            if x < y {
                strictly_better = true;
            }
        }
        strictly_better
    }

    /// Weak dominance: no worse everywhere (a point weakly dominates its
    /// own copy).
    #[must_use]
    pub fn weakly_dominates(&self, other: &DesignPoint) -> bool {
        self.objectives()
            .iter()
            .zip(&other.objectives())
            .all(|(x, y)| x <= y)
    }
}

/// Evaluates candidates against one named CNN workload.
#[derive(Debug, Clone)]
pub struct Evaluator {
    workload: String,
    layers: Vec<(String, ConvGeometry)>,
    assumptions: PowerAssumptions,
}

impl Evaluator {
    /// Builds an evaluator over explicit layers (zoo reference format).
    #[must_use]
    pub fn new(
        workload: impl Into<String>,
        layers: &[(&str, ConvGeometry)],
        assumptions: PowerAssumptions,
    ) -> Self {
        Evaluator {
            workload: workload.into(),
            layers: layers.iter().map(|(n, g)| ((*n).to_owned(), *g)).collect(),
            assumptions,
        }
    }

    /// AlexNet's five conv layers (the paper's evaluation network).
    #[must_use]
    pub fn alexnet() -> Self {
        Evaluator::new(
            "alexnet",
            &zoo::alexnet_conv_layers(),
            PowerAssumptions::default(),
        )
    }

    /// VGG-16's thirteen conv layers (the heavy workload).
    #[must_use]
    pub fn vgg16() -> Self {
        Evaluator::new(
            "vgg16",
            &zoo::vgg16_conv_layers(),
            PowerAssumptions::default(),
        )
    }

    /// LeNet-5's three conv layers (the light workload).
    #[must_use]
    pub fn lenet5() -> Self {
        let net = zoo::lenet5();
        let layers: Vec<(String, ConvGeometry)> = net
            .conv_layers()
            .map(|c| (c.name.clone(), c.geometry))
            .collect();
        let refs: Vec<(&str, ConvGeometry)> =
            layers.iter().map(|(n, g)| (n.as_str(), *g)).collect();
        Evaluator::new("lenet5", &refs, PowerAssumptions::default())
    }

    /// The workload name.
    #[must_use]
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The workload's layers in borrowed (zoo) form.
    #[must_use]
    pub fn layer_refs(&self) -> Vec<(&str, ConvGeometry)> {
        self.layers.iter().map(|(n, g)| (n.as_str(), *g)).collect()
    }

    /// Evaluates a candidate, reporting *why* it is infeasible.
    ///
    /// # Errors
    ///
    /// Returns the underlying config/resource/photonic failure, or
    /// [`DseError::NonFiniteObjective`] if a model produces a non-finite
    /// objective value.
    pub fn evaluate_detailed(&self, candidate: &Candidate) -> Result<DesignPoint> {
        self.evaluate_detailed_with(candidate, candidate.fingerprint())
    }

    /// [`evaluate_detailed`](Self::evaluate_detailed) with a
    /// caller-computed fingerprint, so search loops that already keyed
    /// their cache by the fingerprint do not hash the candidate twice.
    ///
    /// The body is the workspace's hottest analysis loop (a grid sweep
    /// runs it thousands of times per second), so it goes through the
    /// core models' lean per-layer entry points
    /// ([`AnalyticalModel::layer_full_system_time`],
    /// [`FeasibilityModel::layer_spectrum`],
    /// [`PowerModel::layer_energy_j`]) and iterates the evaluator's
    /// stored geometry directly: layer names were interned once at
    /// construction and no per-candidate map, vector, or string is built.
    ///
    /// # Errors
    ///
    /// As [`evaluate_detailed`](Self::evaluate_detailed).
    pub fn evaluate_detailed_with(
        &self,
        candidate: &Candidate,
        fingerprint: u64,
    ) -> Result<DesignPoint> {
        // Score every candidate under the same link/knob coupling,
        // whether it came from `DesignSpace::assemble` (already
        // harmonized — this is idempotent) or was built by hand. The
        // verdict keeps the *caller's* fingerprint so it stays consistent
        // with the cache key the search computed before evaluating.
        let candidate = candidate.harmonized();
        let config = &candidate.config;
        let analytical = AnalyticalModel::new(*config).map_err(DseError::Core)?;
        let feasibility =
            FeasibilityModel::new(*config, candidate.budget).map_err(DseError::Core)?;
        let power = PowerModel::new(*config, self.assumptions).map_err(DseError::Core)?;

        let mut latency_s = 0.0f64;
        let mut energy_j = 0.0f64;
        let mut spectral_passes = 0u64;
        let mut ring_area_mm2 = 0.0f64;
        let mut spectrally_bound = false;
        for (_, g) in &self.layers {
            let full = analytical
                .layer_full_system_time(g)
                .map_err(DseError::Core)?;
            let spectrum = feasibility.layer_spectrum(g);
            // The layer finishes when both the electronic pipeline and the
            // spectrally-partitioned optical core have: take the later.
            let electronic_s = full.as_secs_f64();
            let optical_s = spectrum.corrected_optical_time.as_secs_f64();
            latency_s += electronic_s.max(optical_s);
            spectrally_bound |= optical_s > electronic_s;
            spectral_passes += spectrum.spectral_passes;
            ring_area_mm2 = ring_area_mm2.max(spectrum.ring_area_mm2);
            energy_j += power.layer_energy_j(g, electronic_s);
        }

        // Full-scale link SNR is per-channel; one carrier and one bank
        // suffice to price it at this candidate's detection bandwidth.
        let link = BroadcastWeightLink::new(config.link, 1, 1).map_err(DseError::Photonic)?;
        let noise_snr = link.full_scale_snr();
        // With more than one simultaneous carrier, adjacent channels leak
        // through the ring's Lorentzian skirt; fold that interference in
        // as noise-like power.
        let usable = feasibility.budget().usable_channels();
        let xtalk = if usable > 1 {
            crosstalk_ratio(
                config.link.ring.q_factor,
                candidate.budget.channel_spacing_hz,
                candidate.budget.center_m,
            )
        } else {
            0.0
        };
        let snr_db = 10.0 * (1.0 / (1.0 / noise_snr + xtalk)).log10();
        let required_db = 6.02 * f64::from(config.adc.bits) + 1.76;

        let area_mm2 = config.input_dac.area_mm2
            * (config.n_input_dacs + config.n_weight_dacs) as f64
            + config.adc.area_mm2 * config.n_adcs as f64
            + config.sram.area_mm2
            + ring_area_mm2;

        let point = DesignPoint {
            fingerprint,
            latency_s,
            energy_j,
            area_mm2,
            snr_headroom_db: snr_db - required_db,
            usable_channels: usable,
            spectral_passes,
            spectrally_bound,
            throughput_fps: if latency_s > 0.0 {
                1.0 / latency_s
            } else {
                0.0
            },
        };
        if !point.is_finite() {
            return Err(DseError::NonFiniteObjective {
                fingerprint: point.fingerprint,
            });
        }
        Ok(point)
    }

    /// Evaluates a candidate; `None` means infeasible (the search filters
    /// it out and counts it).
    #[must_use]
    pub fn evaluate(&self, candidate: &Candidate) -> Option<DesignPoint> {
        self.evaluate_detailed(candidate).ok()
    }

    /// [`evaluate`](Self::evaluate) with a caller-computed fingerprint
    /// (the search hot path — avoids re-hashing candidates whose
    /// fingerprint the cache lookup already paid for).
    #[must_use]
    pub fn evaluate_with_fingerprint(
        &self,
        candidate: &Candidate,
        fingerprint: u64,
    ) -> Option<DesignPoint> {
        self.evaluate_detailed_with(candidate, fingerprint).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_core::config::PcnnaConfig;

    fn point(objs: [f64; 4]) -> DesignPoint {
        DesignPoint {
            fingerprint: 0,
            latency_s: objs[0],
            energy_j: objs[1],
            area_mm2: objs[2],
            snr_headroom_db: -objs[3],
            usable_channels: 1,
            spectral_passes: 1,
            spectrally_bound: false,
            throughput_fps: 0.0,
        }
    }

    #[test]
    fn dominance_is_strict_and_weak_includes_equality() {
        let a = point([1.0, 1.0, 1.0, 1.0]);
        let b = point([2.0, 1.0, 1.0, 1.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
        assert!(a.weakly_dominates(&a));
        assert!(a.weakly_dominates(&b));
        // trade-off: neither dominates
        let c = point([0.5, 2.0, 1.0, 1.0]);
        assert!(!a.dominates(&c) && !c.dominates(&a));
    }

    #[test]
    fn paper_design_point_is_feasible_on_alexnet() {
        let ev = Evaluator::alexnet();
        let p = ev
            .evaluate_detailed(&Candidate::paper_default())
            .expect("the paper's own design point must evaluate");
        assert!(p.latency_s > 0.0 && p.latency_s < 1.0, "{}", p.latency_s);
        assert!(p.energy_j > 0.0);
        assert!(p.area_mm2 > 0.0);
        assert!(p.snr_headroom_db.is_finite());
        assert!(p.usable_channels > 0);
        // every AlexNet layer needs spectral partitioning under Filtered
        assert!(p.spectral_passes > 5);
        assert!((p.throughput_fps * p.latency_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tighter_spacing_trades_headroom_for_carriers() {
        use pcnna_core::feasibility::SpectralBudget;
        let ev = Evaluator::alexnet();
        let space = crate::space::DesignSpace::default();
        let at_spacing = |ghz: f64| {
            let mut s = space.clone();
            s.channel_spacing_ghz = vec![ghz];
            // knob order: [ndac, nadc, bits, clock, alloc, spacing, radius]
            ev.evaluate(&s.assemble(crate::space::KnobChoice([2, 2, 2, 1, 0, 0, 1])))
                .unwrap()
        };
        let tight = at_spacing(25.0);
        let loose = at_spacing(100.0);
        // more carriers → fewer spectral passes → faster …
        assert!(tight.usable_channels > loose.usable_channels);
        assert!(tight.latency_s < loose.latency_s);
        // … but the neighbours sit on the ring's skirt → less headroom
        assert!(tight.snr_headroom_db < loose.snr_headroom_db);
        // sanity on the crosstalk law itself
        let b = SpectralBudget::default();
        assert!(crosstalk_ratio(5e4, 25e9, b.center_m) > crosstalk_ratio(5e4, 100e9, b.center_m));
    }

    #[test]
    fn evaluation_is_deterministic_and_bit_identical() {
        let ev = Evaluator::vgg16();
        let c = Candidate::paper_default();
        let a = ev.evaluate(&c).unwrap();
        let b = ev.evaluate(&c).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_workload_is_infeasible_not_a_panic() {
        // A 4-word SRAM cannot cache any AlexNet receptive field.
        let mut config = PcnnaConfig::default();
        config.sram.capacity_bits = 64;
        let c = Candidate {
            config,
            ..Candidate::paper_default()
        };
        assert!(Evaluator::alexnet().evaluate(&c).is_none());
    }

    #[test]
    fn more_dacs_strictly_cut_alexnet_latency_when_the_dac_binds() {
        // At the default 50 GHz / 10 µm budget the spectrally-partitioned
        // optical time dominates every AlexNet layer, so the DAC knob is
        // latency-neutral (a finding the explorer surfaces!). Widen the
        // spectral budget (12.5 GHz spacing, 5 µm rings → ~180 usable
        // carriers) and the input DAC becomes the binding stage again.
        use pcnna_core::feasibility::SpectralBudget;
        let budget = SpectralBudget::default()
            .with_channel_spacing_hz(12.5e9)
            .with_ring_radius_m(5e-6);
        let ev = Evaluator::alexnet();
        let slow = Candidate {
            config: PcnnaConfig::default(),
            budget,
        };
        let fast = Candidate {
            config: PcnnaConfig::default().with_input_dacs(64),
            budget,
        };
        let ps = ev.evaluate(&slow).unwrap();
        let pf = ev.evaluate(&fast).unwrap();
        assert!(
            pf.latency_s < ps.latency_s,
            "{} vs {}",
            pf.latency_s,
            ps.latency_s
        );
        // but costs more area
        assert!(pf.area_mm2 > ps.area_mm2);
        // and at the paper budget the knob is indeed latency-neutral
        let ps0 = ev.evaluate(&Candidate::paper_default()).unwrap();
        let pf0 = ev
            .evaluate(&Candidate {
                config: PcnnaConfig::default().with_input_dacs(64),
                ..Candidate::paper_default()
            })
            .unwrap();
        assert_eq!(ps0.latency_s, pf0.latency_s);
    }
}
