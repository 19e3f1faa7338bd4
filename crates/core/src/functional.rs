//! Functional photonic inference: convolutions computed *through the device
//! models*.
//!
//! The paper never demonstrates that the broadcast-and-weight MAC computes
//! correct convolutions — it assumes so and evaluates ring counts and
//! timing. This module closes that gap: it maps a convolution layer onto a
//! [`BroadcastWeightLink`] (one WDM carrier per receptive-field value, one
//! calibrated MRR bank per kernel), drives every kernel location through the
//! analog datapath, and scores the resulting feature map against the
//! ground-truth reference convolution.
//!
//! ## Signed-value encoding
//!
//! Optical intensities are non-negative. Weights get their sign from
//! balanced detection (drop minus through). Inputs use *offset encoding*:
//! `x' = (x/xs + 1)/2 ∈ [0,1]`, with the electronic back end removing the
//! offset using the known per-bank weight sum:
//! `Σ w·x = xs·ws·(2·Σ wl·x' − Σ wl)`.

use crate::config::PcnnaConfig;
use crate::scheduler::LocationSchedule;
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::quantize::Quantizer;
use pcnna_cnn::reference;
use pcnna_cnn::tensor::Tensor;
use pcnna_photonics::link::BroadcastWeightLink;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Options for a functional run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionalOptions {
    /// Sample stochastic noise (RIN, shot, thermal) per MAC evaluation.
    pub noise: bool,
    /// Quantize the digitized outputs with the configured ADC resolution.
    pub adc_quantization: bool,
    /// Quantize the DAC-driven inputs with the configured DAC resolution.
    pub dac_quantization: bool,
    /// RNG seed for noise sampling.
    pub seed: u64,
}

impl Default for FunctionalOptions {
    fn default() -> Self {
        FunctionalOptions {
            noise: false,
            adc_quantization: true,
            dac_quantization: true,
            seed: 0,
        }
    }
}

/// Error metrics of a photonic feature map against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Maximum absolute error.
    pub max_abs_error: f32,
    /// Root-mean-square error.
    pub rmse: f32,
    /// Reference signal RMS (for relative scaling).
    pub reference_rms: f32,
    /// Signal-to-error ratio in dB (`20·log10(ref_rms / rmse)`).
    pub snr_db: f32,
}

impl AccuracyReport {
    fn from_tensors(photonic: &Tensor, reference: &Tensor) -> Result<Self> {
        let rmse = photonic.rmse(reference)?;
        let ref_rms = (reference.as_slice().iter().map(|v| v * v).sum::<f32>()
            / reference.len().max(1) as f32)
            .sqrt();
        let snr_db = if rmse > 0.0 {
            20.0 * (ref_rms / rmse).log10()
        } else {
            f32::INFINITY
        };
        Ok(AccuracyReport {
            max_abs_error: photonic.sub(reference)?.max_abs(),
            rmse,
            reference_rms: ref_rms,
            snr_db,
        })
    }
}

/// Result of running one conv layer through the photonic datapath.
#[derive(Debug, Clone)]
pub struct PhotonicConvResult {
    /// The photonic output feature map, `(k, o, o)`.
    pub output: Tensor,
    /// The reference output feature map.
    pub reference: Tensor,
    /// Error metrics.
    pub accuracy: AccuracyReport,
    /// Worst calibration residual across banks (logical weight units).
    pub worst_calibration_residual: f64,
}

/// Executes convolution layers through the photonic device models.
#[derive(Debug, Clone)]
pub struct PhotonicConvExecutor {
    config: PcnnaConfig,
}

impl PhotonicConvExecutor {
    /// Creates an executor.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid configurations.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        config.validate()?;
        Ok(PhotonicConvExecutor { config })
    }

    /// Runs one layer: programs `kernels` into MRR banks, drives `input`
    /// location by location, digitizes, and compares with the reference.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the CNN substrate and device
    /// failures from the photonic substrate.
    pub fn run_layer(
        &self,
        g: &ConvGeometry,
        input: &Tensor,
        kernels: &Tensor,
        opts: &FunctionalOptions,
    ) -> Result<PhotonicConvResult> {
        let reference = reference::conv2d_direct(g, input, kernels)?;
        let channels = g.n_kernel() as usize;
        let k = g.kernels();

        // Normalisation scales; all-zero tensors normalise over unit scale
        // (everything downstream then sees zeros, which is exact).
        let x_scale = match f64::from(input.max_abs()) {
            s if s > 0.0 => s,
            _ => 1.0,
        };
        let w_scale = match f64::from(kernels.max_abs()) {
            s if s > 0.0 => s,
            _ => 1.0,
        };

        // Program one calibrated bank per kernel.
        let mut link = BroadcastWeightLink::new(self.config.link, channels, k)?;
        let mut weight_sums = Vec::with_capacity(k);
        let mut worst_residual = 0.0f64;
        let kdata = kernels.as_slice();
        for kk in 0..k {
            let logical: Vec<f64> = kdata[kk * channels..(kk + 1) * channels]
                .iter()
                .map(|&w| f64::from(w) / w_scale)
                .collect();
            link.set_weights(kk, &logical)?;
            if let Some(rep) = link.calibration_report(kk) {
                worst_residual = worst_residual.max(rep.residual / link.weight_scale());
            }
            weight_sums.push(logical.iter().sum::<f64>());
        }
        let compiled = link.compile();

        let dac_q = Quantizer::new(self.config.input_dac.bits, 1.0);
        let schedule = LocationSchedule::new(*g, self.config.scan);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let o = g.output_side();
        let mut output = Tensor::zeros(&[k, o, o]);

        // Per-bank ADC full-scale range: the largest |dot| the bank can
        // produce given |x| ≤ x_scale (per-channel programmable gain).
        let adc_ranges: Vec<f32> = (0..k)
            .map(|kk| {
                let sum_abs: f64 = kdata[kk * channels..(kk + 1) * channels]
                    .iter()
                    .map(|&w| f64::from(w.abs()) / w_scale)
                    .sum();
                ((sum_abs.max(1e-9)) * x_scale * w_scale) as f32
            })
            .collect();

        for &loc in schedule.locations() {
            let field = reference::receptive_field(g, input, loc.oy, loc.ox)?;
            // Offset-encode into [0, 1] and apply DAC quantization.
            let encoded: Vec<f64> = field
                .iter()
                .map(|&v| {
                    let xn = (f64::from(v) / x_scale + 1.0) / 2.0;
                    if opts.dac_quantization {
                        f64::from(dac_q.quantize(xn as f32))
                    } else {
                        xn
                    }
                })
                .collect();
            let macs = if opts.noise {
                compiled.mac_noisy(&encoded, &mut rng)?
            } else {
                compiled.mac_ideal(&encoded)?
            };
            for (kk, &d) in macs.iter().enumerate() {
                // Remove the offset: Σ w·x = xs·ws·(2·Σ wl·x' − Σ wl).
                let mut value = (x_scale * w_scale * (2.0 * d - weight_sums[kk])) as f32;
                if opts.adc_quantization {
                    let q = Quantizer::new(self.config.adc.bits, adc_ranges[kk]);
                    value = q.quantize(value);
                }
                *output.at3_mut(kk, loc.oy, loc.ox) = value;
            }
        }

        let accuracy = AccuracyReport::from_tensors(&output, &reference)?;
        Ok(PhotonicConvResult {
            output,
            reference,
            accuracy,
            worst_calibration_residual: worst_residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::workload::Workload;

    fn executor() -> PhotonicConvExecutor {
        PhotonicConvExecutor::new(PcnnaConfig::default()).unwrap()
    }

    fn tiny() -> ConvGeometry {
        ConvGeometry::new(6, 3, 0, 1, 2, 3).unwrap()
    }

    #[test]
    fn ideal_run_tracks_reference_closely() {
        let g = tiny();
        let wl = Workload::uniform(&g, 5);
        let r = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        assert_eq!(r.output.shape(), r.reference.shape());
        assert!(
            r.accuracy.snr_db > 25.0,
            "photonic conv SNR {} dB too low (rmse {})",
            r.accuracy.snr_db,
            r.accuracy.rmse
        );
    }

    #[test]
    fn noiseless_unquantized_is_even_closer() {
        let g = tiny();
        let wl = Workload::uniform(&g, 6);
        let opts = FunctionalOptions {
            adc_quantization: false,
            dac_quantization: false,
            ..FunctionalOptions::default()
        };
        let clean = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &opts)
            .unwrap();
        let quantized = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        assert!(clean.accuracy.rmse <= quantized.accuracy.rmse * 1.5 + 1e-9);
        assert!(clean.accuracy.snr_db > 30.0);
    }

    #[test]
    fn noisy_run_is_worse_but_reasonable() {
        let g = tiny();
        let wl = Workload::uniform(&g, 7);
        let clean = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        let noisy_opts = FunctionalOptions {
            noise: true,
            seed: 42,
            ..FunctionalOptions::default()
        };
        let noisy = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &noisy_opts)
            .unwrap();
        assert!(noisy.accuracy.rmse >= clean.accuracy.rmse);
        // 1 mW lasers keep the analog MAC usable.
        assert!(
            noisy.accuracy.snr_db > 15.0,
            "noisy SNR {} dB",
            noisy.accuracy.snr_db
        );
    }

    #[test]
    fn noise_is_reproducible_by_seed() {
        let g = tiny();
        let wl = Workload::uniform(&g, 8);
        let opts = FunctionalOptions {
            noise: true,
            seed: 9,
            ..FunctionalOptions::default()
        };
        let a = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &opts)
            .unwrap();
        let b = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &opts)
            .unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn signed_inputs_are_handled_by_offset_encoding() {
        // Gaussian inputs are signed; offset encoding must still decode.
        let g = ConvGeometry::new(5, 3, 1, 2, 1, 2).unwrap();
        let wl = Workload::gaussian(&g, 11);
        let r = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        assert!(r.accuracy.snr_db > 20.0, "SNR {}", r.accuracy.snr_db);
    }

    #[test]
    fn calibration_residual_reported() {
        let g = tiny();
        let wl = Workload::uniform(&g, 12);
        let r = executor()
            .run_layer(&g, &wl.input, &wl.kernels, &FunctionalOptions::default())
            .unwrap();
        assert!(r.worst_calibration_residual > 0.0);
        assert!(r.worst_calibration_residual < 0.05);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = tiny();
        let wl = Workload::uniform(&g, 13);
        let bad_input = Tensor::zeros(&[1, 6, 6]);
        assert!(executor()
            .run_layer(&g, &bad_input, &wl.kernels, &FunctionalOptions::default())
            .is_err());
    }

    #[test]
    fn accuracy_report_math() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let rep = AccuracyReport::from_tensors(&a, &b).unwrap();
        assert_eq!(rep.max_abs_error, 0.0);
        assert!(rep.snr_db.is_infinite());
    }
}
