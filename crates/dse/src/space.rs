//! The explorable design space: knobs, candidates, and fingerprints.
//!
//! A [`Candidate`] is one complete accelerator description — a
//! [`PcnnaConfig`] paired with the [`SpectralBudget`] that bounds its WDM
//! carrier count. A [`DesignSpace`] is a set of per-knob value lists; a
//! [`KnobChoice`] indexes one value per knob, and
//! [`DesignSpace::assemble`] turns a choice into a candidate by applying
//! the workspace's `with_*` builders to a base design point (the search
//! code never reaches into raw struct fields).
//!
//! Knob coupling: assembly harmonizes the photonic
//! [`LinkConfig`](pcnna_photonics::link::LinkConfig) with the
//! rest of the candidate — the link inherits the budget's channel spacing,
//! and its detection bandwidth tracks the fast clock (a faster symbol rate
//! integrates more receiver noise, which is exactly the latency ↔ SNR
//! tension the explorer is meant to surface).

use crate::objectives::{MAX_PART_SLOTS, PART_TABLE_KNOBS};
use crate::{DseError, Result};
use pcnna_core::config::{AllocationPolicy, PcnnaConfig};
use pcnna_core::feasibility::SpectralBudget;
use pcnna_electronics::adc::AdcModel;
use pcnna_electronics::clock::ClockDomain;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::hash::Hash;

/// Number of knobs in a [`DesignSpace`].
pub const N_KNOBS: usize = 7;

/// The [`DesignSpace`] field name of each knob, in [`KnobChoice`] order.
pub(crate) const KNOB_NAMES: [&str; N_KNOBS] = [
    "n_input_dacs",
    "n_adcs",
    "adc_bits",
    "fast_clock_ghz",
    "allocations",
    "channel_spacing_ghz",
    "ring_radius_um",
];

/// One value index per knob, in [`DesignSpace`] field order:
/// `[n_input_dacs, n_adcs, adc_bits, fast_clock_ghz, allocations,
/// channel_spacing_ghz, ring_radius_um]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnobChoice(pub [usize; N_KNOBS]);

/// One complete accelerator design: hardware config + spectral budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The hardware configuration.
    pub config: PcnnaConfig,
    /// The WDM carrier budget (C band + microring FSR).
    pub budget: SpectralBudget,
}

impl Candidate {
    /// The paper's design point under the default spectral budget.
    #[must_use]
    pub fn paper_default() -> Self {
        Candidate {
            config: PcnnaConfig::default(),
            budget: SpectralBudget::default(),
        }
    }

    /// Returns a copy whose photonic link mirrors the knobs it physically
    /// shares: the WDM grid spacing comes from the spectral budget, the
    /// receiver detection bandwidth from the fast (symbol) clock. The
    /// evaluator applies this to every candidate, so a hand-built
    /// `Candidate` is scored under the same coupling as one produced by
    /// [`DesignSpace::assemble`]. Idempotent.
    #[must_use]
    pub fn harmonized(&self) -> Self {
        let mut link = self.config.link;
        link.channel_spacing_hz = self.budget.channel_spacing_hz;
        link.detection_bandwidth_hz = self.config.fast_clock.frequency_hz();
        Candidate {
            config: self.config.with_link(link),
            budget: self.budget,
        }
    }

    /// A stable 64-bit key for memoization: word-wise FNV-1a over every
    /// semantic field of both halves (floats by IEEE bit pattern, enums by
    /// discriminant). Two candidates collide only if every field agrees,
    /// which is precisely the "same design" equivalence the evaluation
    /// cache and co-design's fleet labels need. It costs about 250 ns per
    /// candidate (230–310 ns measured over the 24 576-point perfbench
    /// design grid, release build, shared 2-core x86-64 host), so the
    /// searches dedup by canonical knob choice instead and fingerprint
    /// only the designs their frontier admits (see [`crate::search`]).
    ///
    /// Every struct is destructured without `..`, so adding a field to a
    /// config type without teaching the fingerprint about it is a compile
    /// error, not a silent collision.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        eat_config(&mut h, &self.config);
        eat_budget(&mut h, &self.budget);
        h.0
    }
}

/// Word-wise hash accumulator for [`Candidate::fingerprint`]: each field
/// is folded in through a splitmix64 finalizer, whose full-width
/// avalanche keeps correlated field differences (e.g. the budget spacing
/// and the link spacing the harmonizer mirrors from it) from cancelling —
/// a plain XOR-multiply chain measurably collided on the default grid.
struct Fnv(u64);

impl Fnv {
    const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    #[inline]
    fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            None => self.u64(u64::MAX),
            Some(b) => self.u64(u64::from(b)),
        }
    }
}

fn eat_config(h: &mut Fnv, c: &PcnnaConfig) {
    use pcnna_core::config::{BottleneckModel, ScanOrder};
    // Exhaustive destructure: a new `PcnnaConfig` field fails to compile
    // here until the fingerprint covers it.
    let PcnnaConfig {
        fast_clock,
        input_dac,
        n_input_dacs,
        n_weight_dacs,
        adc,
        n_adcs,
        sram,
        dram,
        ring_pitch_m,
        allocation,
        scan,
        bottleneck,
        include_weight_load,
        link,
        bytes_per_value,
    } = c;
    // `ClockDomain` keeps its fields private; the name is a report label
    // ("frequency is the semantically meaningful part" — its docs), so
    // the frequency alone identifies the clock.
    h.f64(fast_clock.frequency_hz());
    let pcnna_electronics::dac::DacModel {
        rate_sps,
        bits,
        area_mm2,
        power_w,
    } = input_dac;
    h.f64(*rate_sps);
    h.u64(u64::from(*bits));
    h.f64(*area_mm2);
    h.f64(*power_w);
    h.u64(*n_input_dacs as u64);
    h.u64(*n_weight_dacs as u64);
    let AdcModel {
        rate_sps,
        bits,
        power_w,
        area_mm2,
    } = adc;
    h.f64(*rate_sps);
    h.u64(u64::from(*bits));
    h.f64(*power_w);
    h.f64(*area_mm2);
    h.u64(*n_adcs as u64);
    let pcnna_electronics::sram::SramModel {
        capacity_bits,
        word_bits,
        access_time,
        area_mm2,
        power_per_mhz_w,
    } = sram;
    h.u64(*capacity_bits);
    h.u64(u64::from(*word_bits));
    h.u64(access_time.as_ps());
    h.f64(*area_mm2);
    h.f64(*power_per_mhz_w);
    let pcnna_electronics::dram::DramModel {
        bandwidth_bytes_per_s,
        latency,
        energy_per_byte_j,
    } = dram;
    h.f64(*bandwidth_bytes_per_s);
    h.u64(latency.as_ps());
    h.f64(*energy_per_byte_j);
    h.f64(*ring_pitch_m);
    h.u64(match allocation {
        AllocationPolicy::Unfiltered => 0,
        AllocationPolicy::Filtered => 1,
        AllocationPolicy::FilteredChannelSequential => 2,
    });
    h.u64(match scan {
        ScanOrder::RowMajor => 0,
        ScanOrder::Serpentine => 1,
    });
    h.u64(match bottleneck {
        BottleneckModel::DacOnly => 0,
        BottleneckModel::MaxOfStages => 1,
    });
    h.u64(u64::from(*include_weight_load));
    eat_link(h, link);
    h.u64(*bytes_per_value);
}

fn eat_link(h: &mut Fnv, link: &pcnna_photonics::link::LinkConfig) {
    let pcnna_photonics::link::LinkConfig {
        ring,
        mzm,
        laser,
        receiver,
        waveguide,
        channel_spacing_hz,
        route_length_cm,
        detection_bandwidth_hz,
        calibration_tolerance,
        calibration_max_iters,
    } = link;
    let pcnna_photonics::microring::RingParams {
        q_factor,
        drop_peak,
        extinction_db,
        tuning_range_frac,
        tuning_bits,
        heater_power_per_linewidth_w,
    } = ring;
    h.f64(*q_factor);
    h.f64(*drop_peak);
    h.f64(*extinction_db);
    h.f64(*tuning_range_frac);
    h.opt_u8(*tuning_bits);
    h.f64(*heater_power_per_linewidth_w);
    let pcnna_photonics::modulator::Mzm {
        v_pi,
        insertion,
        extinction_db,
        bandwidth_hz,
        drive_bits,
    } = mzm;
    h.f64(*v_pi);
    h.f64(*insertion);
    h.f64(*extinction_db);
    h.f64(*bandwidth_hz);
    h.opt_u8(*drive_bits);
    let pcnna_photonics::laser::LaserDiode {
        power_w,
        rin_db_hz,
        wall_plug_efficiency,
    } = laser;
    h.f64(*power_w);
    h.f64(*rin_db_hz);
    h.f64(*wall_plug_efficiency);
    let pcnna_photonics::photodiode::BalancedPair { diode } = receiver;
    let pcnna_photonics::photodiode::Photodiode {
        responsivity_a_w,
        dark_current_a,
        load_ohms,
        temperature_k,
    } = diode;
    h.f64(*responsivity_a_w);
    h.f64(*dark_current_a);
    h.f64(*load_ohms);
    h.f64(*temperature_k);
    let pcnna_photonics::waveguide::WaveguideModel {
        loss_db_per_cm,
        splitter_excess_db,
        coupler_loss_db,
    } = waveguide;
    h.f64(*loss_db_per_cm);
    h.f64(*splitter_excess_db);
    h.f64(*coupler_loss_db);
    h.f64(*channel_spacing_hz);
    h.f64(*route_length_cm);
    h.f64(*detection_bandwidth_hz);
    h.f64(*calibration_tolerance);
    h.u64(*calibration_max_iters as u64);
}

fn eat_budget(h: &mut Fnv, b: &SpectralBudget) {
    let SpectralBudget {
        channel_spacing_hz,
        ring_radius_m,
        group_index,
        center_m,
    } = b;
    h.f64(*channel_spacing_hz);
    h.f64(*ring_radius_m);
    h.f64(*group_index);
    h.f64(*center_m);
}

/// Enumerable/sampleable value lists for every explored knob, plus the
/// base design point the knobs are applied to.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Parallel input-DAC counts.
    pub n_input_dacs: Vec<usize>,
    /// Parallel output-ADC counts.
    pub n_adcs: Vec<usize>,
    /// Output-ADC nominal resolutions, bits (drives the SNR requirement).
    pub adc_bits: Vec<u8>,
    /// Fast (optical-core) clock frequencies, GHz.
    pub fast_clock_ghz: Vec<f64>,
    /// Ring/wavelength allocation policies.
    pub allocations: Vec<AllocationPolicy>,
    /// WDM channel spacings, GHz (the wavelength-count knob).
    pub channel_spacing_ghz: Vec<f64>,
    /// Microring radii, µm (sets the FSR → the MRR bank-size knob).
    pub ring_radius_um: Vec<f64>,
    /// Base hardware configuration the knobs override.
    pub base_config: PcnnaConfig,
    /// Base spectral budget the knobs override.
    pub base_budget: SpectralBudget,
}

impl Default for DesignSpace {
    /// The full exploration space used by the `dse` harness: 3 888 points
    /// spanning converter provisioning, clocking, allocation policy, and
    /// the spectral budget.
    fn default() -> Self {
        DesignSpace {
            n_input_dacs: vec![4, 8, 10, 16, 32, 64],
            n_adcs: vec![8, 16, 32, 64],
            adc_bits: vec![6, 8, 10],
            fast_clock_ghz: vec![2.5, 5.0, 10.0],
            allocations: vec![
                AllocationPolicy::Filtered,
                AllocationPolicy::FilteredChannelSequential,
            ],
            channel_spacing_ghz: vec![25.0, 50.0, 100.0],
            ring_radius_um: vec![5.0, 10.0, 20.0],
            base_config: PcnnaConfig::default(),
            base_budget: SpectralBudget::default(),
        }
    }
}

impl DesignSpace {
    /// A deliberately tiny space (48 points) for CI smoke runs and tests.
    #[must_use]
    pub fn smoke() -> Self {
        DesignSpace {
            n_input_dacs: vec![4, 10, 32],
            n_adcs: vec![16, 32],
            adc_bits: vec![8, 10],
            fast_clock_ghz: vec![5.0],
            allocations: vec![
                AllocationPolicy::Filtered,
                AllocationPolicy::FilteredChannelSequential,
            ],
            channel_spacing_ghz: vec![50.0, 100.0],
            ring_radius_um: vec![10.0],
            ..DesignSpace::default()
        }
    }

    /// Validates the space: every knob list non-empty, every numeric value
    /// positive and finite once scaled to Hz or metres, the base design
    /// point itself valid, no part
    /// table over [`MAX_PART_SLOTS`],
    /// and a grid whose point count fits in a `u64`. The searches call it
    /// before they allocate anything.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidSpace`] naming the offending knobs.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(DseError::InvalidSpace { reason });
        if self.n_input_dacs.is_empty()
            || self.n_adcs.is_empty()
            || self.adc_bits.is_empty()
            || self.fast_clock_ghz.is_empty()
            || self.allocations.is_empty()
            || self.channel_spacing_ghz.is_empty()
            || self.ring_radius_um.is_empty()
        {
            return fail("every knob needs at least one value".to_owned());
        }
        if self.n_input_dacs.contains(&0) || self.n_adcs.contains(&0) {
            return fail("converter counts must be nonzero".to_owned());
        }
        if self.adc_bits.contains(&0) {
            return fail("ADC resolutions must be nonzero".to_owned());
        }
        // Checked after scaling: 1e-320 µm underflows to a 0 m radius and
        // 1e300 GHz overflows to an infinite clock.
        for (label, values, scale, unit) in [
            (
                "fast_clock_ghz",
                &self.fast_clock_ghz,
                hz as fn(f64) -> f64,
                "Hz",
            ),
            ("channel_spacing_ghz", &self.channel_spacing_ghz, hz, "Hz"),
            ("ring_radius_um", &self.ring_radius_um, metres, "m"),
        ] {
            if let Some(v) = values
                .iter()
                .find(|&&v| !(scale(v).is_finite() && scale(v) > 0.0))
            {
                return fail(format!(
                    "{label} values must be finite and positive in {unit}, got {v:e} ({:e} {unit})",
                    scale(*v)
                ));
            }
        }
        self.base_config.validate().map_err(DseError::Core)?;
        let sizes = self.knob_sizes();
        let named = |knobs: &[usize]| {
            let names: Vec<String> = knobs
                .iter()
                .map(|&k| format!("{} ({})", KNOB_NAMES[k], sizes[k]))
                .collect();
            names.join(" × ")
        };
        for (part, knobs) in PART_TABLE_KNOBS {
            let slots = knobs
                .iter()
                .try_fold(1usize, |acc, &k| acc.checked_mul(sizes[k]));
            if slots.is_none_or(|n| n > MAX_PART_SLOTS) {
                return fail(format!(
                    "the {part} part table over {} exceeds MAX_PART_SLOTS ({MAX_PART_SLOTS})",
                    named(knobs)
                ));
            }
        }
        if self.cardinality().is_none() {
            return fail(format!(
                "the grid over {} has more than u64::MAX points",
                named(&[0, 1, 2, 3, 4, 5, 6])
            ));
        }
        Ok(())
    }

    /// The per-knob list lengths, in [`KnobChoice`] order.
    #[must_use]
    pub fn knob_sizes(&self) -> [usize; N_KNOBS] {
        [
            self.n_input_dacs.len(),
            self.n_adcs.len(),
            self.adc_bits.len(),
            self.fast_clock_ghz.len(),
            self.allocations.len(),
            self.channel_spacing_ghz.len(),
            self.ring_radius_um.len(),
        ]
    }

    /// Total number of grid points (product of the knob list lengths), or
    /// `None` when it overflows a `u64` (such a space fails
    /// [`validate`](Self::validate)).
    #[must_use]
    pub fn cardinality(&self) -> Option<u64> {
        self.knob_sizes()
            .iter()
            .try_fold(1u64, |acc, &n| acc.checked_mul(n as u64))
    }

    /// Builds the candidate a choice describes, through `with_*` builders
    /// only.
    ///
    /// # Panics
    ///
    /// Panics if an index in `choice` is out of range for its knob list —
    /// choices must come from this space's `grid_choices` /
    /// `sample_choice` / `mutate_choice` — or if the chosen clock is not
    /// positive in Hz, which [`validate`](Self::validate) refuses.
    #[must_use]
    pub fn assemble(&self, choice: KnobChoice) -> Candidate {
        let [di, ai, bi, ci, li, si, ri] = choice.0;
        let budget = self
            .base_budget
            .with_channel_spacing_hz(hz(self.channel_spacing_ghz[si]))
            .with_ring_radius_m(metres(self.ring_radius_um[ri]));
        // `ClockDomain::new` rejects only frequencies that are not
        // positive; `validate` refuses every GHz value whose scaled
        // frequency is not finite and positive, and the searches
        // validate before they assemble.
        #[allow(clippy::expect_used)]
        let clock = ClockDomain::new("fast", hz(self.fast_clock_ghz[ci]))
            .expect("validated positive frequency");
        let config = self
            .base_config
            .with_input_dacs(self.n_input_dacs[di])
            .with_adcs(self.n_adcs[ai])
            .with_adc(AdcModel {
                bits: self.adc_bits[bi],
                ..self.base_config.adc
            })
            .with_fast_clock(clock)
            .with_allocation(self.allocations[li]);
        Candidate { config, budget }.harmonized()
    }

    /// Every choice in the grid, in a fixed odometer order (last knob
    /// fastest). Deterministic: two calls return identical vectors.
    #[must_use]
    pub fn grid_choices(&self) -> Vec<KnobChoice> {
        self.grid_iter().collect()
    }

    /// [`grid_choices`](Self::grid_choices) as a stream, for sweeps that
    /// must not hold the whole grid. Every index a choice holds is at
    /// least its [canonical](CanonicalChoices) index, so the odometer
    /// reaches a design's canonical choice before any repeat of it.
    pub(crate) fn grid_iter(&self) -> impl Iterator<Item = KnobChoice> {
        let sizes = self.knob_sizes();
        let mut idx = [0usize; N_KNOBS];
        (0..self.cardinality().unwrap_or(u64::MAX)).map(move |_| {
            let choice = KnobChoice(idx);
            for k in (0..N_KNOBS).rev() {
                idx[k] += 1;
                if idx[k] < sizes[k] {
                    break;
                }
                idx[k] = 0;
            }
            choice
        })
    }

    /// Draws a uniform random choice.
    pub fn sample_choice(&self, rng: &mut StdRng) -> KnobChoice {
        let sizes = self.knob_sizes();
        let mut idx = [0usize; N_KNOBS];
        for (slot, &size) in idx.iter_mut().zip(&sizes) {
            *slot = rng.gen_range(0..size);
        }
        KnobChoice(idx)
    }

    /// Mutates a parent choice: each knob independently re-rolls to a
    /// uniform random value with probability `rate` (knobs with a single
    /// value are left alone).
    pub fn mutate_choice(&self, rng: &mut StdRng, parent: KnobChoice, rate: f64) -> KnobChoice {
        let sizes = self.knob_sizes();
        let mut idx = parent.0;
        for (slot, &size) in idx.iter_mut().zip(&sizes) {
            if size > 1 && rng.gen_bool(rate.clamp(0.0, 1.0)) {
                *slot = rng.gen_range(0..size);
            }
        }
        KnobChoice(idx)
    }
}

/// The frequency [`DesignSpace::assemble`] builds from a GHz knob value
/// (the clock and the channel spacing).
fn hz(ghz: f64) -> f64 {
    ghz * 1e9
}

/// The length [`DesignSpace::assemble`] builds from a µm knob value (the
/// ring radius).
fn metres(um: f64) -> f64 {
    um * 1e-6
}

/// Each knob index of a space mapped to the first index of that knob
/// whose assembled value is equal: ints and enums compared as they are,
/// floats by the bit pattern of the scaled value `assemble` builds.
/// `assemble` applies plain `with_*` setters and the harmonizer only
/// copies knob values, so two choices build the same candidate exactly
/// when their canonical choices are equal — an exact, collision-free
/// dedup key that needs neither `assemble` nor a fingerprint.
#[derive(Debug)]
pub(crate) struct CanonicalChoices([Vec<usize>; N_KNOBS]);

impl CanonicalChoices {
    pub(crate) fn new(space: &DesignSpace) -> Self {
        let bits = |values: &[f64], scale: fn(f64) -> f64| {
            first_equal(values.iter().map(|&v| scale(v).to_bits()))
        };
        CanonicalChoices([
            first_equal(space.n_input_dacs.iter()),
            first_equal(space.n_adcs.iter()),
            first_equal(space.adc_bits.iter()),
            bits(&space.fast_clock_ghz, hz),
            first_equal(space.allocations.iter()),
            bits(&space.channel_spacing_ghz, hz),
            bits(&space.ring_radius_um, metres),
        ])
    }

    /// The canonical choice of the design `choice` builds.
    pub(crate) fn of(&self, choice: KnobChoice) -> KnobChoice {
        let mut idx = choice.0;
        for (i, first) in idx.iter_mut().zip(&self.0) {
            *i = first[*i];
        }
        KnobChoice(idx)
    }
}

/// Each position's first position holding an equal key.
fn first_equal<K: Eq + Hash>(keys: impl Iterator<Item = K>) -> Vec<usize> {
    let mut first = HashMap::new();
    keys.enumerate()
        .map(|(i, key)| *first.entry(key).or_insert(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_space_validates_and_counts() {
        let s = DesignSpace::default();
        assert!(s.validate().is_ok());
        assert_eq!(s.cardinality(), Some(6 * 4 * 3 * 3 * 2 * 3 * 3));
        assert_eq!(Some(s.grid_choices().len() as u64), s.cardinality());
        assert!(DesignSpace::smoke().validate().is_ok());
        assert_eq!(DesignSpace::smoke().cardinality(), Some(48));
    }

    #[test]
    fn grid_choices_are_unique_and_in_range() {
        let s = DesignSpace::smoke();
        let choices = s.grid_choices();
        let sizes = s.knob_sizes();
        for c in &choices {
            for (i, &v) in c.0.iter().enumerate() {
                assert!(v < sizes[i]);
            }
        }
        let mut seen: Vec<_> = choices.clone();
        seen.sort_unstable_by_key(|c| c.0);
        seen.dedup();
        assert_eq!(seen.len(), choices.len());
    }

    #[test]
    fn assemble_applies_every_knob() {
        let s = DesignSpace::default();
        let c = s.assemble(KnobChoice([5, 3, 0, 2, 1, 0, 2]));
        assert_eq!(c.config.n_input_dacs, 64);
        assert_eq!(c.config.n_adcs, 64);
        assert_eq!(c.config.adc.bits, 6);
        assert_eq!(c.config.fast_clock.frequency_hz(), 10e9);
        assert_eq!(
            c.config.allocation,
            AllocationPolicy::FilteredChannelSequential
        );
        assert_eq!(c.budget.channel_spacing_hz, 25e9);
        // 20.0 * 1e-6 differs from the literal 20e-6 by one ulp
        assert!((c.budget.ring_radius_m - 20e-6).abs() < 1e-12);
        // link harmonization
        assert_eq!(c.config.link.channel_spacing_hz, 25e9);
        assert_eq!(c.config.link.detection_bandwidth_hz, 10e9);
        assert!(c.config.validate().is_ok());
    }

    #[test]
    fn fingerprints_separate_full_default_grid() {
        // The full 3 888-point grid includes correlated knob pairs (the
        // harmonizer mirrors the budget spacing into the link), which a
        // weak word-wise hash demonstrably collided on — sweep them all,
        // and perfbench's denser 24 576-point design-sweep grid too: the
        // frontier's fingerprints label co-design fleets.
        let perfbench = DesignSpace {
            n_input_dacs: vec![4, 8, 10, 12, 16, 24, 32, 64],
            n_adcs: vec![8, 16, 24, 32, 48, 64],
            adc_bits: vec![6, 7, 8, 10],
            fast_clock_ghz: vec![2.5, 5.0, 7.5, 10.0],
            channel_spacing_ghz: vec![25.0, 50.0, 75.0, 100.0],
            ring_radius_um: vec![5.0, 7.5, 10.0, 20.0],
            ..DesignSpace::default()
        };
        for s in [DesignSpace::default(), perfbench] {
            let mut fps: Vec<u64> = s
                .grid_choices()
                .into_iter()
                .map(|c| s.assemble(c).fingerprint())
                .collect();
            let before = fps.len();
            assert_eq!(Some(before as u64), s.cardinality());
            fps.sort_unstable();
            fps.dedup();
            assert_eq!(
                fps.len(),
                before,
                "fingerprint collision in a {before}-point grid"
            );
        }
    }

    #[test]
    fn canonical_choices_name_each_distinct_design_once() {
        // Repeats of an int, of the allocation enum, and of a float that
        // differs as typed but not once `assemble` scales it to metres.
        let radius = 15.26f64;
        let radius_up = f64::from_bits(radius.to_bits() + 1);
        assert!(radius_up != radius && metres(radius_up) == metres(radius));
        let s = DesignSpace {
            n_input_dacs: vec![4, 10, 4],
            allocations: vec![
                AllocationPolicy::Filtered,
                AllocationPolicy::FilteredChannelSequential,
                AllocationPolicy::Filtered,
            ],
            ring_radius_um: vec![radius, 10.0, radius_up],
            ..DesignSpace::smoke()
        };
        let canonical = CanonicalChoices::new(&s);
        let mut designs = std::collections::HashMap::new();
        for c in s.grid_choices() {
            let of = canonical.of(c);
            assert!(of.0.iter().zip(&c.0).all(|(o, i)| o <= i));
            let candidate = s.assemble(c);
            assert_eq!(candidate, s.assemble(of));
            assert_eq!(
                *designs.entry(of).or_insert(candidate.fingerprint()),
                candidate.fingerprint()
            );
        }
        // 2 DAC counts × 2 ADC × 2 bits × 1 clock × 2 policies × 2
        // spacings × 2 radii
        assert_eq!(designs.len(), 64);
        let mut fps: Vec<u64> = designs.into_values().collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 64);
    }

    #[test]
    fn fingerprints_separate_distinct_candidates() {
        let s = DesignSpace::smoke();
        let mut fps: Vec<u64> = s
            .grid_choices()
            .into_iter()
            .map(|c| s.assemble(c).fingerprint())
            .collect();
        fps.sort_unstable();
        let before = fps.len();
        fps.dedup();
        assert_eq!(fps.len(), before, "fingerprint collision in smoke grid");
        // and the fingerprint is a pure function of the candidate
        let c = Candidate::paper_default();
        assert_eq!(c.fingerprint(), Candidate::paper_default().fingerprint());
    }

    #[test]
    fn sampling_and_mutation_stay_in_range() {
        let s = DesignSpace::default();
        let sizes = s.knob_sizes();
        let mut rng = StdRng::seed_from_u64(3);
        let mut parent = s.sample_choice(&mut rng);
        for _ in 0..200 {
            parent = s.mutate_choice(&mut rng, parent, 0.5);
            for (i, &v) in parent.0.iter().enumerate() {
                assert!(v < sizes[i]);
            }
        }
    }

    #[test]
    fn zero_mutation_rate_is_identity() {
        let s = DesignSpace::default();
        let mut rng = StdRng::seed_from_u64(4);
        let parent = s.sample_choice(&mut rng);
        assert_eq!(s.mutate_choice(&mut rng, parent, 0.0), parent);
    }

    #[test]
    fn invalid_spaces_are_rejected() {
        let ints = |n: usize| (1..=n).collect::<Vec<usize>>();
        let floats = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        for (space, names) in [
            (
                DesignSpace {
                    n_adcs: vec![],
                    ..DesignSpace::default()
                },
                &[][..],
            ),
            (
                DesignSpace {
                    fast_clock_ghz: vec![0.0],
                    ..DesignSpace::default()
                },
                &["fast_clock_ghz"],
            ),
            // Finite and positive as written, but not once scaled: a
            // 0 m ring and an infinite clock.
            (
                DesignSpace {
                    ring_radius_um: vec![10.0, 1e-320],
                    ..DesignSpace::default()
                },
                &["ring_radius_um", "1e-320"],
            ),
            (
                DesignSpace {
                    fast_clock_ghz: vec![1e300],
                    ..DesignSpace::default()
                },
                &["fast_clock_ghz", "inf Hz"],
            ),
            (
                DesignSpace {
                    n_input_dacs: vec![0],
                    ..DesignSpace::default()
                },
                &[],
            ),
            // 1 024 values on five knobs: a 2^30-slot electronic table,
            // which `grid_sweep` once tried to allocate.
            (
                DesignSpace {
                    n_input_dacs: ints(1024),
                    n_adcs: ints(1024),
                    fast_clock_ghz: floats(1024),
                    channel_spacing_ghz: floats(1024),
                    ring_radius_um: floats(1024),
                    ..DesignSpace::default()
                },
                &[
                    "electronic",
                    "n_input_dacs (1024)",
                    "n_adcs (1024)",
                    "fast_clock_ghz (1024)",
                ],
            ),
            // Every part table at exactly MAX_PART_SLOTS, but 2^64 points.
            (
                DesignSpace {
                    n_input_dacs: ints(1024),
                    n_adcs: ints(1024),
                    adc_bits: vec![8; 1 << 24],
                    fast_clock_ghz: vec![5.0],
                    allocations: vec![AllocationPolicy::Filtered],
                    channel_spacing_ghz: floats(1024),
                    ring_radius_um: floats(1024),
                    ..DesignSpace::default()
                },
                &["u64::MAX points", "adc_bits (16777216)"],
            ),
        ] {
            // The searches validate before they allocate anything.
            let ev = crate::Evaluator::lenet5();
            let t = std::time::Instant::now();
            assert!(crate::grid_sweep(&space, &ev, 1).is_err());
            assert!(crate::evolve(&space, &ev, &crate::EvolutionConfig::default()).is_err());
            let Err(DseError::InvalidSpace { reason }) = space.validate() else {
                panic!("{:?} passed validation", space.knob_sizes());
            };
            assert!(t.elapsed().as_secs_f64() < 0.25, "{reason}");
            for name in names {
                assert!(reason.contains(name), "{reason:?} names no {name}");
            }
        }
    }
}
