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
//!
//! ## The dependency map
//!
//! A verdict is three parts and one combine step. Each part reads only
//! some of the [`DesignSpace`] knobs (plus the space's base config and
//! budget, which every part may read):
//!
//! | part | what it holds | knobs it reads | default grid |
//! |------|---------------|----------------|--------------|
//! | electronic | per-layer [`AnalyticalModel`] full-system seconds (in layer order), the [`PowerModel`] energy summed at those times, converter + SRAM area; fails when the analytical model does (invalid config, SRAM overflow) | DACs, ADCs, clock, allocation | 144 |
//! | spectral | per-layer [`FeasibilityModel`] corrected optical seconds, the summed spectral passes, the largest ring area, the usable channel count | clock, allocation, spacing, radius | 54 |
//! | link | full-scale link SNR in dB with adjacent-channel crosstalk folded in; fails when the link's devices are invalid | clock (detection bandwidth), spacing, radius | 27 |
//!
//! ADC bits reach the verdict only through the combine step's SNR demand.
//! `combine` takes the per-layer `max` and `+` and `spectrally_bound` in
//! layer order, subtracts the demand from the link SNR, adds the ring area
//! to the electronic area last, and rejects non-finite objectives — the
//! association order of the single-pass evaluator, so every
//! [`DesignPoint`] is bit-identical to it.
//!
//! [`Evaluator::evaluate_detailed`] builds the parts fresh from the
//! candidate and combines them; the searches read the parts from
//! `PartTables`, filled lazily once per knob projection, and combine the
//! same way. Debug builds assert every tabled verdict equals the fresh
//! one, which is how this map is checked: a part that read a knob its
//! projection omits would disagree on some grid point. A table holds one
//! slot per projection, so [`DesignSpace::validate`] refuses a space
//! whose table would exceed [`MAX_PART_SLOTS`].

use crate::space::{Candidate, DesignSpace, KnobChoice, N_KNOBS};
use crate::{DseError, Result};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::zoo;
use pcnna_core::analytical::AnalyticalModel;
use pcnna_core::config::PcnnaConfig;
use pcnna_core::feasibility::FeasibilityModel;
use pcnna_core::power::{PowerAssumptions, PowerModel};
use pcnna_photonics::constants::SPEED_OF_LIGHT;
use pcnna_photonics::link::BroadcastWeightLink;
use std::sync::OnceLock;

/// The most slots any one part table may hold: 1 820× the largest table
/// of perfbench's 24 576-point grid (576 electronic slots). An unfilled
/// slot takes at most 56 bytes, so a table's up-front allocation stays
/// within 56 MiB however long the knob lists a caller passes.
pub const MAX_PART_SLOTS: usize = 1 << 20;

/// Each part table and the knobs, as [`KnobChoice`] positions, that index
/// it (the dependency map's third column).
pub(crate) const PART_TABLE_KNOBS: [(&str, &[usize]); 3] = [
    ("electronic", &[0, 1, 3, 4]),
    ("spectral", &[3, 4, 5, 6]),
    ("link SNR", &[3, 5, 6]),
];

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
    /// Builds the three [parts](self#the-dependency-map) fresh from the
    /// candidate and combines them — the same arithmetic the searches run
    /// on tabled parts, so a hand-built candidate and a grid point are
    /// priced by one path.
    ///
    /// # Errors
    ///
    /// Returns the underlying config/resource/photonic failure, or
    /// [`DseError::NonFiniteObjective`] if a model produces a non-finite
    /// objective value. The electronic part's failure wins over the
    /// link's, which wins over a non-finite objective.
    pub fn evaluate_detailed(&self, candidate: &Candidate) -> Result<DesignPoint> {
        // The verdict carries the caller's fingerprint; every candidate is
        // scored under the same link/knob coupling, whether it came from
        // `DesignSpace::assemble` (already harmonized — this is
        // idempotent) or was built by hand.
        let fingerprint = candidate.fingerprint();
        let candidate = candidate.harmonized();
        let electronic = self.electronic_part(&candidate.config)?;
        let spectral = self.spectral_part(&candidate)?;
        let snr_db = link_snr_db(&candidate)?;
        combine(
            fingerprint,
            &electronic,
            &spectral,
            snr_db,
            candidate.config.adc.bits,
        )
    }

    /// The electronic part of a (harmonized) config: the analytical
    /// model's per-layer full-system time and the power model's energy at
    /// that time. It goes through the core models' lean per-layer entry
    /// points ([`AnalyticalModel::layer_full_system_time`],
    /// [`PowerModel::layer_energy_j`]) over the evaluator's stored
    /// geometry, so no name, map or report is built.
    fn electronic_part(&self, config: &PcnnaConfig) -> Result<ElectronicPart> {
        let analytical = AnalyticalModel::new(*config).map_err(DseError::Core)?;
        let power = PowerModel::new(*config, self.assumptions).map_err(DseError::Core)?;
        let mut electronic_s = Vec::with_capacity(self.layers.len());
        let mut energy_j = 0.0f64;
        for (_, g) in &self.layers {
            let full = analytical
                .layer_full_system_time(g)
                .map_err(DseError::Core)?;
            let seconds = full.as_secs_f64();
            electronic_s.push(seconds);
            energy_j += power.layer_energy_j(g, seconds);
        }
        let area_mm2 = config.input_dac.area_mm2
            * (config.n_input_dacs + config.n_weight_dacs) as f64
            + config.adc.area_mm2 * config.n_adcs as f64
            + config.sram.area_mm2;
        Ok(ElectronicPart {
            electronic_s,
            energy_j,
            area_mm2,
        })
    }

    /// The spectral part of a (harmonized) candidate, through
    /// [`FeasibilityModel::layer_spectrum`].
    fn spectral_part(&self, candidate: &Candidate) -> Result<SpectralPart> {
        let feasibility =
            FeasibilityModel::new(candidate.config, candidate.budget).map_err(DseError::Core)?;
        let mut optical_s = Vec::with_capacity(self.layers.len());
        let mut spectral_passes = 0u64;
        let mut ring_area_mm2 = 0.0f64;
        for (_, g) in &self.layers {
            let spectrum = feasibility.layer_spectrum(g);
            optical_s.push(spectrum.corrected_optical_time.as_secs_f64());
            spectral_passes += spectrum.spectral_passes;
            ring_area_mm2 = ring_area_mm2.max(spectrum.ring_area_mm2);
        }
        Ok(SpectralPart {
            optical_s,
            spectral_passes,
            ring_area_mm2,
            usable_channels: candidate.budget.usable_channels(),
        })
    }

    /// Evaluates a candidate; `None` means infeasible (the search filters
    /// it out and counts it). This is the fresh path the searches' tabled
    /// verdicts are checked against.
    #[must_use]
    pub fn evaluate(&self, candidate: &Candidate) -> Option<DesignPoint> {
        self.evaluate_detailed(candidate).ok()
    }
}

/// The [electronic part](self#the-dependency-map) of a verdict.
#[derive(Debug)]
struct ElectronicPart {
    /// Per-layer full-system seconds, in layer order.
    electronic_s: Vec<f64>,
    /// Energy per frame, summed in layer order.
    energy_j: f64,
    /// Converter plus SRAM area, mm² (the ring area is added last).
    area_mm2: f64,
}

/// The [spectral part](self#the-dependency-map) of a verdict.
#[derive(Debug)]
struct SpectralPart {
    /// Per-layer corrected optical seconds, in layer order.
    optical_s: Vec<f64>,
    /// Spectral passes summed over the layers.
    spectral_passes: u64,
    /// The largest layer's ring area, mm².
    ring_area_mm2: f64,
    /// Simultaneous WDM carriers the budget allows.
    usable_channels: u64,
}

/// The [link part](self#the-dependency-map) of a (harmonized) candidate:
/// full-scale link SNR in dB with adjacent-channel crosstalk folded in.
fn link_snr_db(candidate: &Candidate) -> Result<f64> {
    // Full-scale link SNR is per-channel; one carrier and one bank
    // suffice to price it at this candidate's detection bandwidth.
    let config = &candidate.config;
    let link = BroadcastWeightLink::new(config.link, 1, 1).map_err(DseError::Photonic)?;
    let noise_snr = link.full_scale_snr();
    // With more than one simultaneous carrier, adjacent channels leak
    // through the ring's Lorentzian skirt; fold that interference in
    // as noise-like power.
    let xtalk = if candidate.budget.usable_channels() > 1 {
        crosstalk_ratio(
            config.link.ring.q_factor,
            candidate.budget.channel_spacing_hz,
            candidate.budget.center_m,
        )
    } else {
        0.0
    };
    Ok(10.0 * (1.0 / (1.0 / noise_snr + xtalk)).log10())
}

/// Combines the three parts and the ADC resolution into a verdict. Each
/// layer finishes when both the electronic pipeline and the
/// spectrally-partitioned optical core have, so latency sums the later of
/// the two in layer order.
fn combine(
    fingerprint: u64,
    electronic: &ElectronicPart,
    spectral: &SpectralPart,
    snr_db: f64,
    adc_bits: u8,
) -> Result<DesignPoint> {
    let mut latency_s = 0.0f64;
    let mut spectrally_bound = false;
    for (&electronic_s, &optical_s) in electronic.electronic_s.iter().zip(&spectral.optical_s) {
        latency_s += electronic_s.max(optical_s);
        spectrally_bound |= optical_s > electronic_s;
    }
    let required_db = 6.02 * f64::from(adc_bits) + 1.76;
    let point = DesignPoint {
        fingerprint,
        latency_s,
        energy_j: electronic.energy_j,
        area_mm2: electronic.area_mm2 + spectral.ring_area_mm2,
        snr_headroom_db: snr_db - required_db,
        usable_channels: spectral.usable_channels,
        spectral_passes: spectral.spectral_passes,
        spectrally_bound,
        throughput_fps: if latency_s > 0.0 {
            1.0 / latency_s
        } else {
            0.0
        },
    };
    if !point.is_finite() {
        return Err(DseError::NonFiniteObjective { fingerprint });
    }
    Ok(point)
}

/// Lazily filled tables of parts for one (space, evaluator) pair, indexed
/// by knob projection (see [the dependency map](self#the-dependency-map)).
/// Each slot is built once, from the space's *canonical* candidate of its
/// projection (every knob outside the projection at index 0), so a slot's
/// value never depends on which proposal touched it first or on which
/// thread — the searches stay thread-count invariant. `None` records a
/// part that failed (an infeasible projection).
#[derive(Debug)]
pub(crate) struct PartTables<'a> {
    space: &'a DesignSpace,
    evaluator: &'a Evaluator,
    sizes: [usize; N_KNOBS],
    /// Indexed by (DACs, ADCs, clock, allocation).
    electronic: Vec<OnceLock<Option<ElectronicPart>>>,
    /// Indexed by (clock, allocation, spacing, radius).
    spectral: Vec<OnceLock<Option<SpectralPart>>>,
    /// Indexed by (clock, spacing, radius).
    snr_db: Vec<OnceLock<Option<f64>>>,
}

/// `n` unfilled table slots.
fn empty_slots<T>(n: usize) -> Vec<OnceLock<T>> {
    std::iter::repeat_with(OnceLock::new).take(n).collect()
}

impl<'a> PartTables<'a> {
    /// Empty tables over a validated space.
    pub(crate) fn new(space: &'a DesignSpace, evaluator: &'a Evaluator) -> Self {
        let sizes = space.knob_sizes();
        let [nd, na, _, nc, nl, ns, nr] = sizes;
        PartTables {
            space,
            evaluator,
            sizes,
            electronic: empty_slots(nd * na * nc * nl),
            spectral: empty_slots(nc * nl * ns * nr),
            snr_db: empty_slots(nc * ns * nr),
        }
    }

    /// The verdict of `choice`: the three tabled parts, combined. Its
    /// `fingerprint` is left 0 — the search stamps it only on points its
    /// frontier admits. Debug builds check the verdict against the fresh
    /// path.
    pub(crate) fn verdict(&self, choice: KnobChoice) -> Option<DesignPoint> {
        let point = self.combined(choice);
        #[cfg(debug_assertions)]
        assert_eq!(
            point,
            self.evaluator
                .evaluate(&self.space.assemble(choice))
                .map(|fresh| DesignPoint {
                    fingerprint: 0,
                    ..fresh
                }),
            "tabled verdict of {choice:?} differs from the fresh path"
        );
        point
    }

    fn combined(&self, choice: KnobChoice) -> Option<DesignPoint> {
        let [d, a, b, c, l, s, r] = choice.0;
        let [_, na, _, nc, nl, ns, nr] = self.sizes;
        let canonical = |knobs: [usize; N_KNOBS]| self.space.assemble(KnobChoice(knobs));
        let electronic = self.electronic[((d * na + a) * nc + c) * nl + l]
            .get_or_init(|| {
                let candidate = canonical([d, a, 0, c, l, 0, 0]);
                self.evaluator.electronic_part(&candidate.config).ok()
            })
            .as_ref()?;
        let snr_db = (*self.snr_db[(c * ns + s) * nr + r]
            .get_or_init(|| link_snr_db(&canonical([0, 0, 0, c, 0, s, r])).ok()))?;
        let spectral = self.spectral[((c * nl + l) * ns + s) * nr + r]
            .get_or_init(|| {
                let candidate = canonical([0, 0, 0, c, l, s, r]);
                self.evaluator.spectral_part(&candidate).ok()
            })
            .as_ref()?;
        combine(0, electronic, spectral, snr_db, self.space.adc_bits[b]).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn paper_design_point_verdicts_are_pinned() {
        // Golden verdicts of the paper's design point. The searches are
        // checked against the fresh path; this pins the fresh path itself,
        // so a change to the shared part arithmetic cannot pass unnoticed.
        // (`log10` is libm's, so headroom gets a tolerance.)
        let pinned = [
            (
                Evaluator::alexnet(),
                4.05528e-5,
                0.0021428433985384,
                848.4029999999999,
                548,
            ),
            (
                Evaluator::vgg16(),
                0.0007636944000000001,
                0.034271026115016,
                1493.523,
                1527,
            ),
            (
                Evaluator::lenet5(),
                4.574e-7,
                3.6397097875999993e-6,
                48.96300000000001,
                28,
            ),
        ];
        for (ev, latency_s, energy_j, area_mm2, passes) in pinned {
            let p = ev.evaluate(&Candidate::paper_default()).unwrap();
            assert_eq!(p.latency_s, latency_s, "{}", ev.workload());
            assert_eq!(p.energy_j, energy_j, "{}", ev.workload());
            assert_eq!(p.area_mm2, area_mm2, "{}", ev.workload());
            assert_eq!(p.spectral_passes, passes, "{}", ev.workload());
            assert_eq!(p.usable_channels, 22);
            assert!(p.spectrally_bound);
            assert!((p.snr_headroom_db - -36.78130986542584).abs() < 1e-9);
        }
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
