//! The end-to-end broadcast-and-weight MAC datapath.
//!
//! [`BroadcastWeightLink`] wires the device models together exactly as the
//! paper's Figure 1/4 describe: laser diodes emit one carrier per input
//! value, Mach-Zehnder modulators imprint the (DAC-supplied) input
//! amplitudes, the WDM bundle is broadcast over a splitter tree to `K`
//! microring weight banks (one per kernel), and each bank's balanced
//! photodiode pair produces a photocurrent proportional to the signed dot
//! product of its weights with the shared input vector.
//!
//! The link exposes both an ideal path ([`BroadcastWeightLink::mac_ideal`],
//! deterministic: device non-idealities only) and a noisy path
//! ([`BroadcastWeightLink::mac_noisy`]: RIN, shot and thermal noise sampled
//! per evaluation), plus the normalisation the electronic back end applies
//! to convert photocurrent back into numbers.

use rand::Rng;

use crate::laser::{LaserArray, LaserDiode};
use crate::microring::RingParams;
use crate::modulator::Mzm;
use crate::photodiode::BalancedPair;
use crate::waveguide::WaveguideModel;
use crate::wavelength::WdmGrid;
use crate::weight_bank::{CalibrationReport, MrrWeightBank};
use crate::{PhotonicError, Result};

/// Configuration of a broadcast-and-weight link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Microring parameters for every ring of every bank.
    pub ring: RingParams,
    /// Input Mach-Zehnder modulator model.
    pub mzm: Mzm,
    /// Per-channel laser diode model.
    pub laser: LaserDiode,
    /// Balanced receiver model.
    pub receiver: BalancedPair,
    /// Passive routing model.
    pub waveguide: WaveguideModel,
    /// WDM channel spacing, Hz.
    pub channel_spacing_hz: f64,
    /// Physical route length laser → bank, cm.
    pub route_length_cm: f64,
    /// Receiver detection bandwidth, Hz (the fast clock).
    pub detection_bandwidth_hz: f64,
    /// Weight-bank calibration tolerance (max-norm on physical weights).
    pub calibration_tolerance: f64,
    /// Calibration iteration cap.
    pub calibration_max_iters: usize,
}

impl Default for LinkConfig {
    /// Paper-aligned defaults: 5 GHz detection bandwidth (the fast clock
    /// domain), 50 GHz WDM grid, 12-bit heater DACs, 16-bit input drive.
    fn default() -> Self {
        LinkConfig {
            ring: RingParams {
                tuning_bits: Some(12),
                ..RingParams::default()
            },
            mzm: Mzm::default(),
            laser: LaserDiode::default(),
            receiver: BalancedPair::default(),
            waveguide: WaveguideModel::default(),
            channel_spacing_hz: 50e9,
            route_length_cm: 0.5,
            detection_bandwidth_hz: 5e9,
            calibration_tolerance: 5e-3,
            calibration_max_iters: 150,
        }
    }
}

/// A laser → MZM → broadcast → MRR banks → balanced-PD analog MAC unit.
#[derive(Debug, Clone)]
pub struct BroadcastWeightLink {
    config: LinkConfig,
    grid: WdmGrid,
    lasers: LaserArray,
    banks: Vec<MrrWeightBank>,
    /// Logical→physical weight scale (max realisable |weight|).
    weight_scale: f64,
    /// Per-bank path transmission laser → bank input.
    path_transmission: f64,
    /// Latest calibration outcome per bank.
    calibration: Vec<Option<CalibrationReport>>,
}

impl BroadcastWeightLink {
    /// Builds a link with `channels` carriers feeding `banks` weight banks.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] if any device parameter
    /// fails validation or `banks` is zero.
    pub fn new(config: LinkConfig, channels: usize, banks: usize) -> Result<Self> {
        config.ring.validate()?;
        config.mzm.validate()?;
        config.laser.validate()?;
        config.receiver.diode.validate()?;
        config.waveguide.validate()?;
        if banks == 0 {
            return Err(PhotonicError::InvalidParameter {
                reason: "link needs at least one weight bank".to_owned(),
            });
        }
        let grid = WdmGrid::new(1550e-9, config.channel_spacing_hz, channels)?;
        let lasers = LaserArray::new(config.laser, channels)?;
        let bank_vec = (0..banks)
            .map(|_| MrrWeightBank::new(grid, config.ring))
            .collect::<Result<Vec<_>>>()?;
        let (lo, hi) = bank_vec[0].weight_range();
        let weight_scale = (-lo).min(hi).max(f64::MIN_POSITIVE) * 0.999;
        let path_transmission = config
            .waveguide
            .path_transmission(config.route_length_cm, banks);
        Ok(BroadcastWeightLink {
            config,
            grid,
            lasers,
            banks: bank_vec,
            weight_scale,
            path_transmission,
            calibration: vec![None; banks],
        })
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Number of WDM channels (inputs).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.grid.channels()
    }

    /// Number of weight banks (kernels computed in parallel).
    #[must_use]
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The logical weight range this link realises exactly: `[-1, 1]`
    /// scaled internally by [`Self::weight_scale`].
    #[must_use]
    pub fn weight_scale(&self) -> f64 {
        self.weight_scale
    }

    /// Laser-to-bank path transmission (linear), including the broadcast
    /// splitter tree for the configured fan-out.
    #[must_use]
    pub fn path_transmission(&self) -> f64 {
        self.path_transmission
    }

    /// Latest calibration report for a bank, if it has been programmed.
    #[must_use]
    pub fn calibration_report(&self, bank: usize) -> Option<CalibrationReport> {
        self.calibration.get(bank).copied().flatten()
    }

    /// Programs logical weights in `[-1, 1]` into bank `bank`, running the
    /// crosstalk-correcting calibration loop (best effort: with quantized
    /// heater DACs the loop converges to the quantization floor, which the
    /// report records).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::BankOutOfRange`],
    /// [`PhotonicError::ChannelCountMismatch`] or
    /// [`PhotonicError::WeightOutOfRange`] (logical |w| > 1).
    pub fn set_weights(&mut self, bank: usize, weights: &[f64]) -> Result<()> {
        let n_banks = self.banks.len();
        let b = self
            .banks
            .get_mut(bank)
            .ok_or(PhotonicError::BankOutOfRange {
                index: bank,
                banks: n_banks,
            })?;
        if weights.len() != b.len() {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: b.len(),
                actual: weights.len(),
            });
        }
        for &w in weights {
            if !(-1.0..=1.0).contains(&w) {
                return Err(PhotonicError::WeightOutOfRange {
                    weight: w,
                    min: -1.0,
                    max: 1.0,
                });
            }
        }
        let physical: Vec<f64> = weights.iter().map(|&w| w * self.weight_scale).collect();
        let report = match b.calibrate(
            &physical,
            self.config.calibration_tolerance,
            self.config.calibration_max_iters,
        ) {
            Ok(report) => report,
            // Quantized tuners bottom out above very tight tolerances; the
            // bank is left at its best-effort state, which we keep.
            Err(PhotonicError::CalibrationDiverged { residual, .. }) => CalibrationReport {
                iterations: self.config.calibration_max_iters,
                residual,
            },
            Err(other) => return Err(other),
        };
        self.calibration[bank] = Some(report);
        Ok(())
    }

    /// The effective logical weights of a bank (crosstalk-inclusive,
    /// normalised back by the weight scale).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::BankOutOfRange`] for a bad index.
    pub fn effective_weights(&self, bank: usize) -> Result<Vec<f64>> {
        let b = self.banks.get(bank).ok_or(PhotonicError::BankOutOfRange {
            index: bank,
            banks: self.banks.len(),
        })?;
        Ok(b.effective_weights()
            .into_iter()
            .map(|w| w / self.weight_scale)
            .collect())
    }

    /// Bank-input per-channel powers for normalized inputs `x ∈ [0,1]`,
    /// given per-channel laser powers.
    fn bank_input_powers(&self, inputs: &[f64], laser_powers: &[f64]) -> Vec<f64> {
        inputs
            .iter()
            .zip(laser_powers)
            .map(|(&x, &p)| p * self.config.mzm.modulate(x) * self.path_transmission)
            .collect()
    }

    /// Normalisation factor converting differential photocurrent into a
    /// logical dot product: full-scale single-channel current.
    fn normalization_a(&self) -> f64 {
        self.config.receiver.diode.responsivity_a_w
            * self.config.laser.power_w
            * self.config.mzm.insertion
            * self.path_transmission
            * self.weight_scale
    }

    /// Deterministic MAC: returns, per bank, the logical dot product
    /// `Σ_j x_j · w_j` as recovered from the balanced photocurrent. Device
    /// non-idealities (MZM quantization, heater quantization, crosstalk
    /// residue, insertion losses) are included; stochastic noise is not.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] if `inputs` length
    /// differs from the channel count.
    pub fn mac_ideal(&self, inputs: &[f64]) -> Result<Vec<f64>> {
        self.check_inputs(inputs)?;
        let laser_powers = self.lasers.mean_powers_w();
        let powers = self.bank_input_powers(inputs, &laser_powers);
        let norm = self.normalization_a();
        self.banks
            .iter()
            .map(|bank| {
                let (drops, thrus) = bank.propagate(&powers)?;
                let plus: f64 = drops.iter().sum();
                let minus: f64 = thrus.iter().sum();
                let current = self.config.receiver.differential_current_a(plus, minus);
                Ok(current / norm)
            })
            .collect()
    }

    /// Stochastic MAC: like [`Self::mac_ideal`] but sampling laser RIN and
    /// receiver shot/thermal noise over the detection bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] if `inputs` length
    /// differs from the channel count.
    pub fn mac_noisy(&self, inputs: &[f64], rng: &mut impl Rng) -> Result<Vec<f64>> {
        self.check_inputs(inputs)?;
        let bw = self.config.detection_bandwidth_hz;
        let laser_powers = self.lasers.sample_powers_w(bw, rng);
        let powers = self.bank_input_powers(inputs, &laser_powers);
        let norm = self.normalization_a();
        self.banks
            .iter()
            .map(|bank| {
                let (drops, thrus) = bank.propagate(&powers)?;
                let plus: f64 = drops.iter().sum();
                let minus: f64 = thrus.iter().sum();
                let current = self
                    .config
                    .receiver
                    .sample_differential_a(plus, minus, bw, rng);
                Ok(current / norm)
            })
            .collect()
    }

    /// Signal-to-noise ratio (linear) of a full-scale single-channel MAC at
    /// the configured detection bandwidth — the analog precision headline.
    #[must_use]
    pub fn full_scale_snr(&self) -> f64 {
        let signal = self.normalization_a();
        let full_power =
            self.config.laser.power_w * self.config.mzm.insertion * self.path_transmission;
        let bw = self.config.detection_bandwidth_hz;
        let noise_var = self.config.receiver.noise_variance(full_power, 0.0, bw)
            + self.config.receiver.diode.responsivity_a_w.powi(2)
                * self.config.laser.rin_power_variance(bw)
                * self.path_transmission.powi(2)
                * self.config.mzm.insertion.powi(2);
        signal * signal / noise_var
    }

    /// Total electrical power draw of the photonic front end: lasers plus
    /// all bank heaters, watts.
    #[must_use]
    pub fn electrical_power_w(&self) -> f64 {
        self.lasers.electrical_power_w()
            + self
                .banks
                .iter()
                .map(MrrWeightBank::heater_power_w)
                .sum::<f64>()
    }

    fn check_inputs(&self, inputs: &[f64]) -> Result<()> {
        if inputs.len() != self.channels() {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.channels(),
                actual: inputs.len(),
            });
        }
        Ok(())
    }

    /// Freezes the current weight-bank state into a [`CompiledLink`] whose
    /// MAC evaluation is `O(channels)` per bank instead of `O(channels²)`.
    /// Use after programming weights, before sweeping many input vectors
    /// (the weight banks are static across a CNN layer — paper §IV).
    #[must_use]
    pub fn compile(&self) -> CompiledLink {
        let coeffs = self
            .banks
            .iter()
            .map(MrrWeightBank::channel_coefficients)
            .collect();
        CompiledLink {
            config: self.config,
            channels: self.channels(),
            coeffs,
            weight_scale: self.weight_scale,
            path_transmission: self.path_transmission,
        }
    }
}

/// A frozen broadcast-and-weight link: per-bank linear transfer coefficients
/// captured from the (calibrated) ring state, evaluated in `O(channels)`
/// per bank. Produces bit-identical results to the parent link's
/// [`BroadcastWeightLink::mac_ideal`] and statistically identical
/// [`BroadcastWeightLink::mac_noisy`] samples.
#[derive(Debug, Clone)]
pub struct CompiledLink {
    config: LinkConfig,
    channels: usize,
    /// Per bank: (drop coefficients, through coefficients) per channel.
    coeffs: Vec<(Vec<f64>, Vec<f64>)>,
    weight_scale: f64,
    path_transmission: f64,
}

impl CompiledLink {
    /// Number of WDM channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.coeffs.len()
    }

    fn normalization_a(&self) -> f64 {
        self.config.receiver.diode.responsivity_a_w
            * self.config.laser.power_w
            * self.config.mzm.insertion
            * self.path_transmission
            * self.weight_scale
    }

    /// Deterministic MAC (see [`BroadcastWeightLink::mac_ideal`]).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] on a length mismatch.
    pub fn mac_ideal(&self, inputs: &[f64]) -> Result<Vec<f64>> {
        if inputs.len() != self.channels {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.channels,
                actual: inputs.len(),
            });
        }
        let powers: Vec<f64> = inputs
            .iter()
            .map(|&x| {
                self.config.laser.power_w * self.config.mzm.modulate(x) * self.path_transmission
            })
            .collect();
        let norm = self.normalization_a();
        Ok(self
            .coeffs
            .iter()
            .map(|(drops, thrus)| {
                let plus: f64 = powers.iter().zip(drops).map(|(&p, &d)| p * d).sum();
                let minus: f64 = powers.iter().zip(thrus).map(|(&p, &t)| p * t).sum();
                self.config.receiver.differential_current_a(plus, minus) / norm
            })
            .collect())
    }

    /// Stochastic MAC (see [`BroadcastWeightLink::mac_noisy`]).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ChannelCountMismatch`] on a length mismatch.
    pub fn mac_noisy(&self, inputs: &[f64], rng: &mut impl Rng) -> Result<Vec<f64>> {
        if inputs.len() != self.channels {
            return Err(PhotonicError::ChannelCountMismatch {
                expected: self.channels,
                actual: inputs.len(),
            });
        }
        let bw = self.config.detection_bandwidth_hz;
        let powers: Vec<f64> = inputs
            .iter()
            .map(|&x| {
                self.config.laser.sample_power(bw, rng)
                    * self.config.mzm.modulate(x)
                    * self.path_transmission
            })
            .collect();
        let norm = self.normalization_a();
        Ok(self
            .coeffs
            .iter()
            .map(|(drops, thrus)| {
                let plus: f64 = powers.iter().zip(drops).map(|(&p, &d)| p * d).sum();
                let minus: f64 = powers.iter().zip(thrus).map(|(&p, &t)| p * t).sum();
                self.config
                    .receiver
                    .sample_differential_a(plus, minus, bw, rng)
                    / norm
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn link(channels: usize, banks: usize) -> BroadcastWeightLink {
        BroadcastWeightLink::new(LinkConfig::default(), channels, banks).unwrap()
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    #[test]
    fn construction_validates() {
        assert!(BroadcastWeightLink::new(LinkConfig::default(), 4, 0).is_err());
        let bad = LinkConfig {
            laser: LaserDiode {
                power_w: -1.0,
                ..LaserDiode::default()
            },
            ..LinkConfig::default()
        };
        assert!(BroadcastWeightLink::new(bad, 4, 1).is_err());
    }

    #[test]
    fn mac_ideal_matches_dot_product() {
        let mut l = link(8, 1);
        let w: Vec<f64> = (0..8).map(|i| -1.0 + 0.25 * i as f64).collect();
        l.set_weights(0, &w).unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i as f64 + 1.0) / 8.0).collect();
        let out = l.mac_ideal(&x).unwrap();
        let expect = dot(&x, &w);
        assert!(
            (out[0] - expect).abs() < 0.02,
            "mac {} vs ideal {expect}",
            out[0]
        );
    }

    #[test]
    fn multiple_banks_compute_in_parallel() {
        let mut l = link(6, 3);
        let ws = [
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.5, 0.0, -0.5, 0.0],
            vec![-0.2; 6],
        ];
        for (i, w) in ws.iter().enumerate() {
            l.set_weights(i, w).unwrap();
        }
        let x = [0.9, 0.1, 0.8, 0.2, 0.7, 0.3];
        let out = l.mac_ideal(&x).unwrap();
        assert_eq!(out.len(), 3);
        for (o, w) in out.iter().zip(&ws) {
            let expect = dot(&x, w);
            assert!((o - expect).abs() < 0.02, "bank out {o} vs {expect}");
        }
    }

    #[test]
    fn zero_inputs_give_near_zero_output() {
        let mut l = link(4, 1);
        l.set_weights(0, &[0.7, -0.7, 0.3, -0.3]).unwrap();
        let out = l.mac_ideal(&[0.0; 4]).unwrap();
        // MZM extinction floor leaks a little light; stays small.
        assert!(out[0].abs() < 0.02, "leakage {}", out[0]);
    }

    #[test]
    fn weight_out_of_logical_range_rejected() {
        let mut l = link(4, 1);
        assert!(l.set_weights(0, &[1.2, 0.0, 0.0, 0.0]).is_err());
        assert!(l.set_weights(0, &[-1.2, 0.0, 0.0, 0.0]).is_err());
        assert!(l.set_weights(1, &[0.0; 4]).is_err()); // bad bank
        assert!(l.set_weights(0, &[0.0; 3]).is_err()); // bad length
    }

    #[test]
    fn input_length_checked() {
        let l = link(4, 1);
        assert!(l.mac_ideal(&[0.0; 3]).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(l.mac_noisy(&[0.0; 5], &mut rng).is_err());
    }

    #[test]
    fn effective_weights_close_to_programmed() {
        let mut l = link(8, 1);
        let w: Vec<f64> = (0..8).map(|i| 0.8 - 0.2 * i as f64).collect();
        l.set_weights(0, &w).unwrap();
        let eff = l.effective_weights(0).unwrap();
        for (e, t) in eff.iter().zip(&w) {
            assert!((e - t).abs() < 0.02, "eff {e} vs target {t}");
        }
        assert!(l.calibration_report(0).is_some());
    }

    #[test]
    fn noisy_mac_is_unbiased_and_spread() {
        let mut l = link(4, 1);
        l.set_weights(0, &[0.5, -0.5, 0.25, 0.75]).unwrap();
        let x = [0.6, 0.4, 0.8, 0.2];
        let ideal = l.mac_ideal(&x).unwrap()[0];
        let mut rng = StdRng::seed_from_u64(7);
        let n = 2000;
        let samples: Vec<f64> = (0..n)
            .map(|_| l.mac_noisy(&x, &mut rng).unwrap()[0])
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - ideal).abs() < 0.01, "mean {mean} vs ideal {ideal}");
        assert!(var > 0.0, "noise must add spread");
    }

    #[test]
    fn full_scale_snr_is_large_at_1mw() {
        let l = link(4, 1);
        let snr = l.full_scale_snr();
        assert!(snr > 1e3, "SNR {snr} too small for 1 mW launch");
    }

    #[test]
    fn snr_degrades_with_fanout() {
        // More banks = deeper splitter tree = less power per bank.
        let l1 = link(4, 1);
        let l64 = link(4, 64);
        assert!(l1.full_scale_snr() > l64.full_scale_snr());
    }

    #[test]
    fn electrical_power_includes_lasers() {
        let l = link(8, 2);
        assert!(l.electrical_power_w() >= l.lasers.electrical_power_w());
    }

    #[test]
    fn compiled_link_matches_full_propagation() {
        let mut l = link(8, 3);
        for b in 0..3 {
            let w: Vec<f64> = (0..8).map(|i| 0.6 - 0.15 * (i + b) as f64).collect();
            l.set_weights(b, &w).unwrap();
        }
        let compiled = l.compile();
        let x: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
        let full = l.mac_ideal(&x).unwrap();
        let fast = compiled.mac_ideal(&x).unwrap();
        for (a, b) in full.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-12, "full {a} vs compiled {b}");
        }
    }

    #[test]
    fn compiled_link_checks_lengths() {
        let l = link(4, 1);
        let c = l.compile();
        assert_eq!(c.channels(), 4);
        assert_eq!(c.banks(), 1);
        assert!(c.mac_ideal(&[0.0; 3]).is_err());
    }

    #[test]
    fn compiled_noisy_mac_is_unbiased() {
        let mut l = link(4, 1);
        l.set_weights(0, &[0.4, -0.2, 0.6, -0.8]).unwrap();
        let c = l.compile();
        let x = [0.5, 0.5, 0.5, 0.5];
        let ideal = c.mac_ideal(&x).unwrap()[0];
        let mut rng = StdRng::seed_from_u64(11);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| c.mac_noisy(&x, &mut rng).unwrap()[0])
            .sum::<f64>()
            / n as f64;
        assert!((mean - ideal).abs() < 0.01);
    }
}
