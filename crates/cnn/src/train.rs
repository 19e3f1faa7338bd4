//! Minimal in-repo training: a tiny conv-net, plain SGD, synthetic data.
//!
//! The PCNNA paper evaluates timing on untrained (weight-agnostic) layers.
//! To ask the question it leaves open — *does a network still classify
//! correctly when its convolutions run on the analog photonic substrate?* —
//! we need a genuinely trained model. No ML framework is available offline,
//! so this module implements exactly enough: a fixed small architecture
//! (conv 3×3 → ReLU → 2×2 average pool → fully connected), softmax
//! cross-entropy, manual backprop, and SGD, trained on a synthetic
//! two-class orientation task. The functional simulator then swaps the
//! conv layer's output for the photonic one and re-measures accuracy
//! (`tests/trained_accuracy.rs`).

use crate::geometry::ConvGeometry;
use crate::quantize::Quantizer;
use crate::reference;
use crate::tensor::Tensor;
use crate::{CnnError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled dataset of `(image, class)` pairs; images are `(1, n, n)`.
pub type Dataset = Vec<(Tensor, usize)>;

/// Generates the synthetic two-class orientation task: class 0 images carry
/// horizontal stripes, class 1 vertical stripes, both with additive noise.
#[must_use]
pub fn orientation_dataset(n_samples: usize, side: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_samples)
        .map(|i| {
            let class = i % 2;
            let phase: usize = rng.gen_range(0..4);
            let period: usize = rng.gen_range(2..4);
            let mut img = Tensor::zeros(&[1, side, side]);
            for y in 0..side {
                for x in 0..side {
                    let stripe_coord = if class == 0 { y } else { x };
                    let stripe = ((stripe_coord + phase) / period).is_multiple_of(2);
                    let noise: f32 = rng.gen_range(-0.15..0.15);
                    *img.at3_mut(0, y, x) = if stripe { 0.9 } else { 0.1 } + noise;
                }
            }
            (img, class)
        })
        .collect()
}

/// The fixed tiny architecture: conv(1→k, 3×3, pad 1) → ReLU → avgpool 2×2
/// → FC(→classes).
///
/// Every pass is the [`crate::reference`] composition `conv2d_direct → relu
/// → avgpool(2, 2) → fully_connected`, and [`TinyConvNet::sgd_step`] is its
/// hand-written backward pass.
#[derive(Debug, Clone)]
pub struct TinyConvNet {
    /// Conv geometry (fixed stride 1, pad 1, single input channel).
    pub geometry: ConvGeometry,
    /// Conv kernels `(k, 1, 3, 3)`.
    pub kernels: Tensor,
    /// FC weights `(classes, k·(side/2)²)`.
    pub fc: Tensor,
    classes: usize,
    pooled_side: usize,
}

/// The activations one forward pass keeps for its backward pass.
struct Forward {
    /// ReLU of the conv output `(k, side, side)`.
    relu: Tensor,
    /// Pooled activations `(k, side/2, side/2)`, the FC input.
    pooled: Tensor,
    logits: Vec<f32>,
}

impl TinyConvNet {
    /// Creates a randomly initialised net for `side`×`side` inputs,
    /// `k` conv kernels and `classes` outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] if `side` is odd or too small
    /// (the 2×2 pool needs an even conv output).
    pub fn new(side: usize, k: usize, classes: usize, seed: u64) -> Result<Self> {
        if side < 4 || !side.is_multiple_of(2) {
            return Err(CnnError::InvalidGeometry {
                reason: format!("side must be even and ≥ 4, got {side}"),
            });
        }
        let geometry = ConvGeometry::new(side, 3, 1, 1, 1, k)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kernels = Tensor::zeros(&[k, 1, 3, 3]);
        let scale = (2.0 / 9.0f32).sqrt();
        for v in kernels.as_mut_slice() {
            *v = rng.gen_range(-scale..scale);
        }
        let pooled_side = side / 2;
        let fc_inputs = k * pooled_side * pooled_side;
        let fc_scale = (2.0 / fc_inputs as f32).sqrt();
        let mut fc = Tensor::zeros(&[classes, fc_inputs]);
        for v in fc.as_mut_slice() {
            *v = rng.gen_range(-fc_scale..fc_scale);
        }
        Ok(TinyConvNet {
            geometry,
            kernels,
            fc,
            classes,
            pooled_side,
        })
    }

    /// Number of output classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `Ok` if the public weight fields still have the shapes the passes
    /// index by. A wrong `fc` row count would otherwise yield logits of
    /// the wrong length, and a label that passes the class check could
    /// then index past them.
    fn check_weights(&self) -> Result<()> {
        let fc_inputs = self.geometry.kernels() * self.pooled_side * self.pooled_side;
        expect_shape(&self.kernels, &self.geometry.kernel_shape())?;
        expect_shape(&self.fc, &[self.classes, fc_inputs])
    }

    /// Conv, then the ReLU → pool → FC head.
    fn forward(&self, input: &Tensor) -> Result<Forward> {
        self.check_weights()?;
        let conv_out = reference::conv2d_direct(&self.geometry, input, &self.kernels)?;
        self.head(&conv_out)
    }

    /// ReLU → pool → FC over a conv output of the checked shape.
    fn head(&self, conv_out: &Tensor) -> Result<Forward> {
        let relu = reference::relu(conv_out);
        let pooled = reference::avgpool(&relu, 2, 2)?;
        let logits = reference::fully_connected(&self.fc, &pooled)?.into_vec();
        Ok(Forward {
            relu,
            pooled,
            logits,
        })
    }

    /// Class logits for one image.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs or weights.
    pub fn logits(&self, input: &Tensor) -> Result<Vec<f32>> {
        Ok(self.forward(input)?.logits)
    }

    /// Classifies the *post-conv* path: takes an externally produced conv
    /// feature map (e.g. the photonic one) and runs the rest of the network.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched feature maps or weights.
    pub fn logits_from_conv_output(&self, conv_out: &Tensor) -> Result<Vec<f32>> {
        expect_shape(conv_out, &self.geometry.output_shape())?;
        self.check_weights()?;
        Ok(self.head(conv_out)?.logits)
    }

    /// Fraction of the dataset classified correctly.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs or weights.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        self.check_weights()?;
        let mut correct = 0usize;
        for (img, label) in data {
            if crate::metrics::argmax(&self.logits(img)?).unwrap_or(0) == *label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// One SGD step on one sample; returns the cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs or weights and
    /// [`CnnError::IndexOutOfBounds`] for a label that is not a class.
    pub fn sgd_step(&mut self, input: &Tensor, label: usize, lr: f32) -> Result<f32> {
        if label >= self.classes {
            return Err(CnnError::IndexOutOfBounds {
                index: format!("label {label}"),
                shape: format!("[{}]", self.classes),
            });
        }
        let Forward {
            relu,
            pooled,
            logits,
        } = self.forward(input)?;
        let probs = softmax(&logits);
        let loss = -probs[label].max(1e-12).ln();
        // dL/dlogits = probs − onehot
        let mut dlogits = probs;
        dlogits[label] -= 1.0;

        // FC: dflat = Wᵀ dlogits, read before each weight is stepped by
        // dW[c, j] = dlogits[c] · flat[j].
        let flat = pooled.as_slice();
        let mut dflat = vec![0.0f32; flat.len()];
        for (row, &dl) in self
            .fc
            .as_mut_slice()
            .chunks_exact_mut(flat.len())
            .zip(&dlogits)
        {
            for ((w, d), &x) in row.iter_mut().zip(&mut dflat).zip(flat) {
                *d += *w * dl;
                *w -= lr * dl * x;
            }
        }

        // avgpool backward (each pooled grad spreads /4 into its window)
        // through the ReLU mask.
        let k = self.geometry.kernels();
        let n = self.geometry.input_side();
        let ps = self.pooled_side;
        let mut dconv = Tensor::zeros(&[k, n, n]);
        for kk in 0..k {
            for y in 0..n {
                for x in 0..n {
                    if relu.at3(kk, y, x) > 0.0 {
                        *dconv.at3_mut(kk, y, x) = dflat[(kk * ps + y / 2) * ps + x / 2] / 4.0;
                    }
                }
            }
        }

        // conv weights: dw[k, ky, kx] = Σ dconv[k, oy, ox] · x[oy+ky−1, ox+kx−1]
        // over the in-image positions, row-major.
        let in_image = |o: usize, t: usize| (o + t).checked_sub(1).filter(|&i| i < n);
        for (kk, w) in self.kernels.as_mut_slice().chunks_exact_mut(9).enumerate() {
            for (tap, w) in w.iter_mut().enumerate() {
                let (ky, kx) = (tap / 3, tap % 3);
                let mut grad = 0.0f32;
                for oy in 0..n {
                    let Some(y) = in_image(oy, ky) else { continue };
                    for ox in 0..n {
                        let Some(x) = in_image(ox, kx) else { continue };
                        grad += dconv.at3(kk, oy, ox) * input.at3(0, y, x);
                    }
                }
                *w -= lr * grad;
            }
        }
        Ok(loss)
    }

    /// Trains for `epochs` passes over `data`, returning the mean loss of
    /// the final epoch.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs or weights and
    /// [`CnnError::IndexOutOfBounds`] for a label that is not a class.
    pub fn train(&mut self, data: &Dataset, epochs: usize, lr: f32) -> Result<f32> {
        self.check_weights()?;
        let mut last = 0.0f32;
        for _ in 0..epochs {
            let mut total = 0.0f32;
            for (img, label) in data {
                total += self.sgd_step(img, *label, lr)?;
            }
            last = total / data.len().max(1) as f32;
        }
        Ok(last)
    }
}

/// `Ok` if `t` has exactly `shape`.
fn expect_shape(t: &Tensor, shape: &[usize]) -> Result<()> {
    if t.shape() == shape {
        Ok(())
    } else {
        Err(CnnError::ShapeMismatch {
            expected: format!("{shape:?}"),
            actual: format!("{:?}", t.shape()),
        })
    }
}

/// Generates the synthetic four-class *small-signal* stripe task the proxy
/// accuracy ladder is measured on: orientation (horizontal/vertical) ×
/// stripe period (2/3), with low contrast (±0.08) on a 0.5 DC pedestal and
/// matched noise. The small informative swing on a large offset mirrors
/// the regime where converter resolution genuinely limits a photonic
/// datapath — the decision margins sit only a few LSB above the
/// quantization floor at realistic effective bit widths, where the
/// high-contrast [`orientation_dataset`] saturates by 2 bits.
#[must_use]
pub fn small_signal_dataset(n_samples: usize, side: usize, seed: u64) -> Dataset {
    const CONTRAST: f32 = 0.08;
    const NOISE: f32 = 0.08;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_samples)
        .map(|i| {
            let class = i % 4;
            let (vertical, period) = (class % 2 == 1, if class < 2 { 2 } else { 3 });
            let phase: usize = rng.gen_range(0..4);
            let mut img = Tensor::zeros(&[1, side, side]);
            for y in 0..side {
                for x in 0..side {
                    let stripe_coord = if vertical { x } else { y };
                    let stripe = ((stripe_coord + phase) / period).is_multiple_of(2);
                    let noise: f32 = rng.gen_range(-NOISE..NOISE);
                    *img.at3_mut(0, y, x) = if stripe {
                        0.5 + CONTRAST
                    } else {
                        0.5 - CONTRAST
                    } + noise;
                }
            }
            (img, class)
        })
        .collect()
}

/// Highest bit width the proxy accuracy ladder measures; above this the
/// quantization floor is far below the task's decision margins (and real
/// converters top out near it — the paper's storage words are 16-bit, and
/// multi-GSa/s ADC ENOB is well under 12).
pub const PROXY_MAX_BITS: u8 = 12;

/// How many held-out test images the proxy ladder is measured on.
pub const PROXY_TEST_IMAGES: u32 = 200;

/// The proxy ladder, compiled: correct answers out of
/// [`PROXY_TEST_IMAGES`] through the float datapath, and through the
/// quantized datapath at `1..=PROXY_MAX_BITS` bits after the lower
/// envelope. [`measure_proxy_ladder`] is the oracle of these counts: it
/// trains the net from its fixed seeds and must reproduce every rung bit
/// for bit. When the proxy's training or evaluation changes, run
/// `cargo run --release -p pcnna-cnn --example proxy_ladder_dump` and
/// paste the counts it prints here.
const PRISTINE_HITS: u32 = 178;
const LADDER_HITS: [u32; PROXY_MAX_BITS as usize] =
    [50, 50, 64, 154, 164, 177, 177, 177, 177, 177, 177, 178];

// A hand edit that breaks the ladder's shape fails the build: the
// serving quote's property tests rely on accuracy never rising as bits
// fall, and on no datapath beating the float one.
const _: () = {
    assert!(PRISTINE_HITS <= PROXY_TEST_IMAGES);
    let mut b = 0;
    while b < LADDER_HITS.len() {
        assert!(LADDER_HITS[b] <= PRISTINE_HITS, "a rung beats pristine");
        assert!(
            b == 0 || LADDER_HITS[b - 1] <= LADDER_HITS[b],
            "a rung falls as bits grow"
        );
        b += 1;
    }
};

/// A proxy ladder: a trained net's top-1 accuracy as a function of the
/// effective bit width of its conv datapath.
#[derive(Debug, Clone, Copy)]
pub struct ProxyLadder {
    /// Top-1 through the float (unquantized) datapath.
    pub pristine: f64,
    /// Top-1 at `bits = index + 1`, lower-enveloped: a coarser datapath
    /// never scores above a finer one or above `pristine`.
    pub top1: [f64; PROXY_MAX_BITS as usize],
}

/// `hits` correct answers as a top-1 fraction of the test set: the
/// division [`measure_proxy_ladder`] performs, so every compiled rung is
/// bit-identical to the measured one.
const fn top1_of(hits: u32) -> f64 {
    hits as f64 / PROXY_TEST_IMAGES as f64
}

/// One image through the conv at `bits` of the functional photonic
/// simulator's converter geometry (`pcnna_core::functional`): the input is
/// offset-encoded into the DAC's fixed `[0, 1]` full scale
/// (`x' = (x/xs + 1)/2`, `xs = max|x|`), ring weights carry `bits` of
/// precision over the kernel full scale, and each bank's ADC full scale is
/// sized for the worst-case accumulation `Σ|w|·xs` — not the typical
/// signal.
fn photonic_conv(net: &TinyConvNet, img: &Tensor, bits: u8) -> Result<Tensor> {
    let xs = img.max_abs().max(1e-9);
    let dac = Quantizer::new(bits, 1.0);
    let img_q = img.map(|v| (2.0 * dac.quantize((v / xs + 1.0) / 2.0) - 1.0) * xs);
    let kernels_q =
        Quantizer::new(bits, net.kernels.max_abs().max(1e-9)).quantize_tensor(&net.kernels);
    let mut conv = reference::conv2d_direct(&net.geometry, &img_q, &kernels_q)?;
    let plane = conv.len() / net.geometry.kernels();
    for (out, bank) in conv
        .as_mut_slice()
        .chunks_exact_mut(plane)
        .zip(kernels_q.as_slice().chunks_exact(9))
    {
        let abs_sum: f32 = bank.iter().map(|w| w.abs()).sum();
        Quantizer::new(bits, (abs_sum * xs).max(1e-9)).quantize_slice(out);
    }
    Ok(conv)
}

/// How many of `data` the net classifies correctly through the quantized
/// datapath of each bit width `1..=PROXY_MAX_BITS`.
fn quantized_correct(
    net: &TinyConvNet,
    data: &Dataset,
) -> Result<[usize; PROXY_MAX_BITS as usize]> {
    let mut correct = [0usize; PROXY_MAX_BITS as usize];
    for (bits, hits) in (1..=PROXY_MAX_BITS).zip(&mut correct) {
        for (img, label) in data {
            let logits = net.logits_from_conv_output(&photonic_conv(net, img, bits)?)?;
            if crate::metrics::argmax(&logits).unwrap_or(0) == *label {
                *hits += 1;
            }
        }
    }
    Ok(correct)
}

/// Trains the fixed proxy net and measures its top-1 accuracy at every
/// bit width: the oracle of the compiled ladder that [`quantized_top1`]
/// and [`pristine_top1`] read. Deterministic: fixed seeds, fixed
/// architecture, fixed evaluation order — the ladder is the same in every
/// process and on every thread.
///
/// The 3 200 SGD steps and 2 600 evaluated images run [`TinyConvNet`]'s
/// [`crate::reference`] composition.
///
/// # Errors
///
/// Returns the net's geometry or shape errors; the fixed architecture
/// and datasets raise none.
pub fn measure_proxy_ladder() -> Result<ProxyLadder> {
    let mut net = TinyConvNet::new(12, 6, 4, 7)?;
    let train = small_signal_dataset(160, 12, 11);
    net.train(&train, 20, 0.05)?;
    let test = small_signal_dataset(PROXY_TEST_IMAGES as usize, 12, 99);
    let pristine = net.accuracy(&test)?;
    let correct = quantized_correct(&net, &test)?;

    // Lower envelope sweeping bits downward: a coarser datapath never
    // quotes better accuracy than a finer one. This pins the
    // monotonicity the serving-quote property tests rely on even if a
    // single bit width gets lucky on the small test set.
    let mut top1 = correct.map(|hits| hits as f64 / test.len() as f64);
    let mut cap = pristine;
    for b in (0..PROXY_MAX_BITS as usize).rev() {
        cap = cap.min(top1[b]);
        top1[b] = cap;
    }
    Ok(ProxyLadder { pristine, top1 })
}

/// Top-1 accuracy of the trained proxy net when its conv datapath — DAC
/// inputs, ring weights, and ADC outputs — carries `bits` of effective
/// resolution under the functional simulator's converter geometry.
/// Monotone non-increasing as `bits` falls; `bits` is clamped to
/// `[1, PROXY_MAX_BITS]`.
///
/// This is the measured end of the serving accuracy quote: photonic health
/// maps to effective bits via the SNR budget, and effective bits map to
/// top-1 here. It reads the compiled ladder; [`measure_proxy_ladder`]
/// reproduces it.
#[must_use]
pub const fn quantized_top1(bits: u8) -> f64 {
    let rung = if bits < 1 {
        1
    } else if bits > PROXY_MAX_BITS {
        PROXY_MAX_BITS
    } else {
        bits
    };
    top1_of(LADDER_HITS[rung as usize - 1])
}

/// Top-1 accuracy of the trained proxy net with a float (unquantized)
/// datapath — the ceiling of [`quantized_top1`].
#[must_use]
pub const fn pristine_top1() -> f64 {
    top1_of(PRISTINE_HITS)
}

/// Numerically stable softmax.
#[must_use]
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut probs: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = probs.iter().sum();
    for p in &mut probs {
        *p /= sum.max(1e-12);
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_balanced_and_deterministic() {
        let a = orientation_dataset(40, 12, 3);
        let b = orientation_dataset(40, 12, 3);
        assert_eq!(a.len(), 40);
        assert_eq!(a.iter().filter(|(_, c)| *c == 0).count(), 20);
        for ((ia, ca), (ib, cb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 3.0, 2.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[1] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn construction_validates() {
        assert!(TinyConvNet::new(5, 4, 2, 0).is_err()); // odd side
        assert!(TinyConvNet::new(2, 4, 2, 0).is_err()); // too small
        assert!(TinyConvNet::new(12, 4, 2, 0).is_ok());
    }

    #[test]
    fn sgd_reduces_loss_on_one_sample() {
        let mut net = TinyConvNet::new(8, 4, 2, 1).unwrap();
        let data = orientation_dataset(2, 8, 2);
        let (img, label) = &data[0];
        let first = net.sgd_step(img, *label, 0.05).unwrap();
        let mut last = first;
        for _ in 0..20 {
            last = net.sgd_step(img, *label, 0.05).unwrap();
        }
        assert!(last < first, "loss {first} -> {last} did not drop");
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let mut net = TinyConvNet::new(12, 4, 2, 7).unwrap();
        let train = orientation_dataset(80, 12, 11);
        let test = orientation_dataset(40, 12, 99);
        let untrained = net.accuracy(&test).unwrap();
        net.train(&train, 12, 0.05).unwrap();
        let trained = net.accuracy(&test).unwrap();
        assert!(
            trained > 0.9,
            "trained accuracy {trained} (untrained was {untrained})"
        );
        assert!(trained > untrained);
    }

    #[test]
    fn proxy_ladder_is_monotone_and_tops_out_near_pristine() {
        let pristine = pristine_top1();
        assert!(pristine > 0.8, "proxy net trained poorly: {pristine}");
        let mut prev = 0.0f64;
        for bits in 1..=PROXY_MAX_BITS {
            let acc = quantized_top1(bits);
            assert!((0.0..=1.0).contains(&acc));
            assert!(
                acc >= prev,
                "ladder not monotone: {bits} bits -> {acc} < {prev}"
            );
            assert!(acc <= pristine, "{bits} bits beats pristine");
            prev = acc;
        }
        assert!(
            quantized_top1(PROXY_MAX_BITS) > pristine - 0.05,
            "a {PROXY_MAX_BITS}-bit datapath should be within noise of float: {} vs {pristine}",
            quantized_top1(PROXY_MAX_BITS)
        );
        // clamping: out-of-ladder widths saturate, never panic
        assert_eq!(quantized_top1(0), quantized_top1(1));
        assert_eq!(quantized_top1(31), quantized_top1(PROXY_MAX_BITS));
    }

    #[test]
    fn proxy_ladder_actually_degrades_at_low_bits() {
        // the serving stories need real slope: a visibly degraded rung in
        // the 4–5 bit band the chaos scenarios reach, and a cliff below
        assert!(
            quantized_top1(4) < quantized_top1(PROXY_MAX_BITS) - 0.05,
            "4-bit rung should sit visibly below nominal: {} vs {}",
            quantized_top1(4),
            quantized_top1(PROXY_MAX_BITS)
        );
        assert!(
            quantized_top1(2) < 0.5,
            "2-bit rung should be near chance: {}",
            quantized_top1(2)
        );
    }

    #[test]
    fn small_signal_dataset_is_balanced_and_deterministic() {
        let a = small_signal_dataset(40, 12, 3);
        let b = small_signal_dataset(40, 12, 3);
        assert_eq!(a.len(), 40);
        for class in 0..4 {
            assert_eq!(a.iter().filter(|(_, c)| *c == class).count(), 10);
        }
        for ((ia, ca), (ib, cb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn logits_from_conv_output_matches_forward() {
        let net = TinyConvNet::new(8, 3, 2, 5).unwrap();
        let data = orientation_dataset(2, 8, 6);
        let (img, _) = &data[0];
        let direct = net.logits(img).unwrap();
        let conv = reference::conv2d_direct(&net.geometry, img, &net.kernels).unwrap();
        let via_conv = net.logits_from_conv_output(&conv).unwrap();
        assert_eq!(bits(&direct), bits(&via_conv));
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn proxy_ladder_is_pinned_bit_for_bit() {
        // The compiled table against its oracle: retrain the proxy and
        // re-measure every rung. Any change to the proxy's training or
        // evaluation arithmetic moves these, and with them every
        // accuracy quote, until the table is regenerated.
        let measured = measure_proxy_ladder().unwrap();
        let (got, want) = (measured.pristine, pristine_top1());
        assert_eq!(got.to_bits(), want.to_bits(), "pristine: {got} vs {want}");
        for (bits, got) in (1..=PROXY_MAX_BITS).zip(measured.top1) {
            let want = quantized_top1(bits);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{bits} bits: {got} vs {want}"
            );
        }
    }

    #[test]
    fn kernels_reject_mismatched_shapes_and_labels() {
        let mut net = TinyConvNet::new(8, 2, 3, 1).unwrap();
        let wrong = Tensor::zeros(&[1, 6, 6]);
        assert!(net.logits(&wrong).is_err());
        assert!(net.sgd_step(&wrong, 0, 0.1).is_err());
        assert!(net
            .logits_from_conv_output(&Tensor::zeros(&[2, 6, 6]))
            .is_err());
        let img = Tensor::zeros(&[1, 8, 8]);
        assert!(matches!(
            net.sgd_step(&img, 3, 0.1),
            Err(CnnError::IndexOutOfBounds { .. })
        ));
        net.fc = Tensor::zeros(&[3, 5]);
        assert!(net.logits(&img).is_err());
        // The right FC width but one class short: the logits would be 2
        // long, so label 2 passes the class check, and only the weight
        // shape check keeps the loss from indexing past them.
        net.fc = Tensor::zeros(&[2, 32]);
        assert!(net.sgd_step(&img, 2, 0.1).is_err());
        assert!(net.logits(&img).is_err());
        assert!(net.train(&vec![(img.clone(), 2)], 1, 0.1).is_err());
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        // Spot-check one kernel weight's analytic gradient against a
        // central finite difference of the loss.
        let net = TinyConvNet::new(8, 2, 2, 9).unwrap();
        let data = orientation_dataset(2, 8, 10);
        let (img, label) = &data[0];
        let loss_at = |n: &TinyConvNet| {
            let l = n.logits(img).unwrap();
            -softmax(&l)[*label].max(1e-12).ln()
        };
        let eps = 1e-3f32;
        let idx = 4; // center tap of kernel 0
        let mut plus = net.clone();
        plus.kernels.as_mut_slice()[idx] += eps;
        let mut minus = net.clone();
        minus.kernels.as_mut_slice()[idx] -= eps;
        let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps);
        // analytic: run one sgd step with lr so weight delta = -lr·grad
        let mut stepped = net.clone();
        let lr = 1e-3f32;
        stepped.sgd_step(img, *label, lr).unwrap();
        let analytic = (net.kernels.as_slice()[idx] - stepped.kernels.as_slice()[idx]) / lr;
        assert!(
            (numeric - analytic).abs() < 0.05 * numeric.abs().max(0.1),
            "numeric {numeric} vs analytic {analytic}"
        );
    }
}
