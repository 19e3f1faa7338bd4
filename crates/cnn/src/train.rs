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
//! (`examples/trained_inference.rs`).

use crate::geometry::ConvGeometry;
use crate::quantize::Quantizer;
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
/// Every pass runs fused slice kernels over one reusable scratch: no
/// per-image tensors, and the conv skips its zero-padding taps instead of
/// multiplying them. Each output keeps the f32 operation order of the
/// [`crate::reference`] composition `conv2d_direct → relu → avgpool(2, 2) →
/// fully_connected` (and of its hand-written backward pass), so weights,
/// logits and losses are bit-identical to it; the unit tests pin that.
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

/// Buffers one fused pass works in, sized once per net and reused across
/// images and SGD steps.
struct Scratch {
    /// Conv output `(k, side, side)`; overwritten by its gradient in
    /// [`TinyConvNet::backward`].
    conv: Vec<f32>,
    /// Pooled activations `(k, side/2, side/2)`, the FC input.
    pooled: Vec<f32>,
    /// Logits; softmax probabilities and then their gradient in `sgd`.
    logits: Vec<f32>,
    /// Gradient of the loss with respect to `pooled`.
    dpooled: Vec<f32>,
    /// A quantized copy of the input image (proxy-ladder evaluation).
    image: Vec<f32>,
}

/// Stride-1, pad-1 3×3 convolution of one `n×n` channel `x` by the
/// `(k, 3, 3)` stack `kernels` into `out` (`(k, n, n)`).
///
/// Each output accumulates its taps in `(ky, kx)` order from +0, as
/// `reference::conv2d_direct` does, but only the taps inside the image:
/// the top and bottom output rows meet two input rows, and [`conv_row`]
/// skips the padding column at each row end. Skipping is exact: the
/// padding taps add `0·w = ±0`, and an accumulator that starts at +0
/// never becomes −0, so adding ±0 never changes it.
fn conv3x3_pad1(x: &[f32], n: usize, kernels: &[f32], out: &mut [f32]) {
    let row = |y: usize| &x[y * n..(y + 1) * n];
    for (w, plane) in kernels.chunks_exact(9).zip(out.chunks_exact_mut(n * n)) {
        for (oy, out_row) in plane.chunks_exact_mut(n).enumerate() {
            if oy == 0 {
                conv_row(out_row, [row(0), row(1)], &w[3..]);
            } else if oy + 1 == n {
                conv_row(out_row, [row(n - 2), row(n - 1)], &w[..6]);
            } else {
                conv_row(out_row, [row(oy - 1), row(oy), row(oy + 1)], w);
            }
        }
    }
}

/// One output row of [`conv3x3_pad1`] from the `R` input rows it meets
/// and their `3R` kernel taps `w`: `out[ox] = Σ rows[r][ox+kx−1] · w[3r+kx]`
/// in `(r, kx)` order over the in-row taps.
#[inline]
fn conv_row<const R: usize>(out: &mut [f32], rows: [&[f32]; R], w: &[f32]) {
    let n = out.len();
    let rows = rows.map(|x| &x[..n]);
    let w = &w[..3 * R];
    let mut acc = 0.0f32;
    for r in 0..R {
        acc += rows[r][0] * w[3 * r + 1];
        acc += rows[r][1] * w[3 * r + 2];
    }
    out[0] = acc;
    for ox in 1..n - 1 {
        let mut acc = 0.0f32;
        for r in 0..R {
            let x = rows[r];
            acc += x[ox - 1] * w[3 * r];
            acc += x[ox] * w[3 * r + 1];
            acc += x[ox + 1] * w[3 * r + 2];
        }
        out[ox] = acc;
    }
    let mut acc = 0.0f32;
    for r in 0..R {
        acc += rows[r][n - 2] * w[3 * r];
        acc += rows[r][n - 1] * w[3 * r + 1];
    }
    out[n - 1] = acc;
}

/// The gradient of one 3×3 kernel of a stride-1, pad-1 conv from the
/// gradient `dconv` of its `n×n` output plane and the input `x`:
/// `g[ky·3 + kx] = Σ dconv[oy, ox] · x[oy+ky−1, ox+kx−1]`, each summed over
/// its in-image positions in row-major order, as the bounds-tested loop
/// of the reference backward pass does, but with no bounds tests.
fn conv3x3_pad1_kernel_grad(x: &[f32], n: usize, dconv: &[f32]) -> [f32; 9] {
    let row = |y: usize| &x[y * n..(y + 1) * n];
    let mut g = [0.0f32; 9];
    for (oy, d) in dconv.chunks_exact(n).enumerate() {
        if oy == 0 {
            grad_row(&mut g[3..], d, [row(0), row(1)]);
        } else if oy + 1 == n {
            grad_row(&mut g[..6], d, [row(n - 2), row(n - 1)]);
        } else {
            grad_row(&mut g, d, [row(oy - 1), row(oy), row(oy + 1)]);
        }
    }
    g
}

/// Adds one output row's share `Σ d[ox] · rows[r][ox+kx−1]` to the `3R`
/// tap gradients `g` of the `R` input rows it meets, each in ascending
/// `ox` over its in-row positions. The `3R` sums are independent, so they
/// advance together.
#[inline]
fn grad_row<const R: usize>(g: &mut [f32], d: &[f32], rows: [&[f32]; R]) {
    let n = d.len();
    let rows = rows.map(|x| &x[..n]);
    let mut acc = [[0.0f32; 3]; R];
    for r in 0..R {
        acc[r].copy_from_slice(&g[3 * r..3 * r + 3]);
    }
    for r in 0..R {
        acc[r][1] += d[0] * rows[r][0];
        acc[r][2] += d[0] * rows[r][1];
    }
    for ox in 1..n - 1 {
        for r in 0..R {
            acc[r][0] += d[ox] * rows[r][ox - 1];
            acc[r][1] += d[ox] * rows[r][ox];
            acc[r][2] += d[ox] * rows[r][ox + 1];
        }
    }
    for r in 0..R {
        acc[r][0] += d[n - 1] * rows[r][n - 2];
        acc[r][1] += d[n - 1] * rows[r][n - 1];
    }
    for r in 0..R {
        g[3 * r..3 * r + 3].copy_from_slice(&acc[r]);
    }
}

/// ReLU → 2×2 average pool of `conv` (`(k, n, n)`) into `pooled`
/// (`(k, n/2, n/2)`), summing each window row-major as
/// `reference::avgpool` does.
fn relu_avgpool2(conv: &[f32], n: usize, pooled: &mut [f32]) {
    let ps = n / 2;
    for (plane, out) in conv
        .chunks_exact(n * n)
        .zip(pooled.chunks_exact_mut(ps * ps))
    {
        for (py, out_row) in out.chunks_exact_mut(ps).enumerate() {
            let (top, bottom) = plane[2 * py * n..(2 * py + 2) * n].split_at(n);
            for (px, o) in out_row.iter_mut().enumerate() {
                let mut sum = 0.0f32;
                sum += top[2 * px].max(0.0);
                sum += top[2 * px + 1].max(0.0);
                sum += bottom[2 * px].max(0.0);
                sum += bottom[2 * px + 1].max(0.0);
                *o = sum / 4.0;
            }
        }
    }
}

/// `logits = fc · flat`, one row dot product per class, summed as
/// `reference::fully_connected` does.
fn fully_connected(fc: &[f32], flat: &[f32], logits: &mut [f32]) {
    for (l, row) in logits.iter_mut().zip(fc.chunks_exact(flat.len())) {
        *l = row.iter().zip(flat).map(|(&a, &b)| a * b).sum();
    }
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

    /// Fresh scratch for this net's passes, after checking that the public
    /// weight fields still have the shapes the kernels index by.
    fn scratch(&self) -> Result<Scratch> {
        let fc_shape = [self.classes, self.fc_inputs()];
        expect_shape(&self.kernels, &self.geometry.kernel_shape())?;
        expect_shape(&self.fc, &fc_shape)?;
        let n = self.geometry.input_side();
        Ok(Scratch {
            conv: vec![0.0; self.geometry.kernels() * n * n],
            pooled: vec![0.0; self.fc_inputs()],
            logits: vec![0.0; self.classes],
            dpooled: vec![0.0; self.fc_inputs()],
            image: Vec::with_capacity(n * n),
        })
    }

    fn fc_inputs(&self) -> usize {
        self.geometry.kernels() * self.pooled_side * self.pooled_side
    }

    /// The pixels of a `(1, side, side)` input image.
    fn pixels<'a>(&self, input: &'a Tensor) -> Result<&'a [f32]> {
        expect_shape(input, &self.geometry.input_shape())?;
        Ok(input.as_slice())
    }

    /// Conv, then the ReLU → pool → FC head; leaves the conv output,
    /// pooled activations and logits in `s`.
    fn forward(&self, pixels: &[f32], s: &mut Scratch) {
        let n = self.geometry.input_side();
        conv3x3_pad1(pixels, n, self.kernels.as_slice(), &mut s.conv);
        self.head(s);
    }

    /// ReLU → pool → FC over the conv output already in `s.conv`.
    fn head(&self, s: &mut Scratch) {
        relu_avgpool2(&s.conv, self.geometry.input_side(), &mut s.pooled);
        fully_connected(self.fc.as_slice(), &s.pooled, &mut s.logits);
    }

    /// Class logits for one image.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs.
    pub fn logits(&self, input: &Tensor) -> Result<Vec<f32>> {
        let mut s = self.scratch()?;
        self.forward(self.pixels(input)?, &mut s);
        Ok(s.logits)
    }

    /// Classifies the *post-conv* path: takes an externally produced conv
    /// feature map (e.g. the photonic one) and runs the rest of the network.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched feature maps.
    pub fn logits_from_conv_output(&self, conv_out: &Tensor) -> Result<Vec<f32>> {
        expect_shape(conv_out, &self.geometry.output_shape())?;
        let mut s = self.scratch()?;
        s.conv.copy_from_slice(conv_out.as_slice());
        self.head(&mut s);
        Ok(s.logits)
    }

    /// Fraction of the dataset classified correctly.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        let mut s = self.scratch()?;
        let mut correct = 0usize;
        for (img, label) in data {
            self.forward(self.pixels(img)?, &mut s);
            if crate::metrics::argmax(&s.logits).unwrap_or(0) == *label {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// One SGD step on one sample; returns the cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs and
    /// [`CnnError::IndexOutOfBounds`] for a label that is not a class.
    pub fn sgd_step(&mut self, input: &Tensor, label: usize, lr: f32) -> Result<f32> {
        let mut s = self.scratch()?;
        self.sgd(input, label, lr, &mut s)
    }

    /// Trains for `epochs` passes over `data`, returning the mean loss of
    /// the final epoch.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched inputs and
    /// [`CnnError::IndexOutOfBounds`] for a label that is not a class.
    pub fn train(&mut self, data: &Dataset, epochs: usize, lr: f32) -> Result<f32> {
        let mut s = self.scratch()?;
        let mut last = 0.0f32;
        for _ in 0..epochs {
            let mut total = 0.0f32;
            for (img, label) in data {
                total += self.sgd(img, *label, lr, &mut s)?;
            }
            last = total / data.len().max(1) as f32;
        }
        Ok(last)
    }

    /// [`TinyConvNet::sgd_step`] in caller-owned scratch.
    fn sgd(&mut self, input: &Tensor, label: usize, lr: f32, s: &mut Scratch) -> Result<f32> {
        if label >= self.classes {
            return Err(CnnError::IndexOutOfBounds {
                index: format!("label {label}"),
                shape: format!("[{}]", self.classes),
            });
        }
        let pixels = self.pixels(input)?;
        self.forward(pixels, s);
        softmax_in_place(&mut s.logits);
        let loss = -s.logits[label].max(1e-12).ln();
        // dL/dlogits = probs − onehot
        s.logits[label] -= 1.0;
        self.backward(pixels, lr, s);
        Ok(loss)
    }

    /// Backpropagates the logit gradient in `s.logits` through the head
    /// and the conv, updating the FC weights and then the kernels.
    fn backward(&mut self, pixels: &[f32], lr: f32, s: &mut Scratch) {
        // FC: dpooled = Wᵀ dlogits, read before each weight is stepped by
        // dW[c, j] = dlogits[c] · pooled[j].
        s.dpooled.fill(0.0);
        for (row, &dl) in self
            .fc
            .as_mut_slice()
            .chunks_exact_mut(s.pooled.len())
            .zip(&s.logits)
        {
            let step = lr * dl;
            for ((w, d), &x) in row.iter_mut().zip(&mut s.dpooled).zip(&s.pooled) {
                *d += *w * dl;
                *w -= step * x;
            }
        }

        // avgpool backward (each pooled grad spreads /4 into its window)
        // through the ReLU mask, in place of the conv output it masks by.
        let n = self.geometry.input_side();
        let ps = self.pooled_side;
        for (plane, dp) in s
            .conv
            .chunks_exact_mut(n * n)
            .zip(s.dpooled.chunks_exact(ps * ps))
        {
            for (y, row) in plane.chunks_exact_mut(n).enumerate() {
                for (pair, &g) in row.chunks_exact_mut(2).zip(&dp[y / 2 * ps..]) {
                    let g = g / 4.0;
                    for v in pair {
                        *v = if *v > 0.0 { g } else { 0.0 };
                    }
                }
            }
        }

        // conv weights: dw[k, ky, kx] = Σ dconv[k, oy, ox] · x[oy+ky−1, ox+kx−1]
        // over the in-image positions, row-major.
        for (w, dconv) in self
            .kernels
            .as_mut_slice()
            .chunks_exact_mut(9)
            .zip(s.conv.chunks_exact(n * n))
        {
            for (w, grad) in w.iter_mut().zip(conv3x3_pad1_kernel_grad(pixels, n, dconv)) {
                *w -= lr * grad;
            }
        }
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

/// One bit width of the functional photonic simulator's converter
/// geometry (`pcnna_core::functional`), as the proxy ladder evaluates it:
/// inputs are offset-encoded into the DAC's fixed `[0, 1]` full scale
/// (`x' = (x/xs + 1)/2`), ring weights carry `bits` of precision over the
/// kernel full scale, and each bank's ADC full scale is sized for the
/// worst-case accumulation `Σ|w|·xs` — not the typical signal.
struct PhotonicDatapath {
    bits: u8,
    dac: Quantizer,
    /// The ring weights, quantized.
    kernels: Vec<f32>,
    /// `Σ|w|` per bank of quantized weights; times an image's `xs` it is
    /// that bank's ADC full scale.
    bank_abs_sums: Vec<f32>,
}

impl PhotonicDatapath {
    fn new(net: &TinyConvNet, bits: u8) -> Self {
        let mut kernels = net.kernels.as_slice().to_vec();
        Quantizer::new(bits, net.kernels.max_abs().max(1e-9)).quantize_slice(&mut kernels);
        let bank_abs_sums = kernels
            .chunks_exact(9)
            .map(|bank| bank.iter().map(|w| w.abs()).sum())
            .collect();
        PhotonicDatapath {
            bits,
            dac: Quantizer::new(bits, 1.0),
            kernels,
            bank_abs_sums,
        }
    }

    /// Runs one image through the quantized conv, leaving the quantized
    /// feature map in `s.conv`; `xs` is the image's full scale,
    /// `max|x|` floored at 1e-9.
    fn conv(&self, net: &TinyConvNet, pixels: &[f32], xs: f32, s: &mut Scratch) {
        s.image.clear();
        s.image.extend(pixels.iter().map(|&v| (v / xs + 1.0) / 2.0));
        self.dac.quantize_slice(&mut s.image);
        for v in &mut s.image {
            *v = (2.0 * *v - 1.0) * xs;
        }
        let n = net.geometry.input_side();
        conv3x3_pad1(&s.image, n, &self.kernels, &mut s.conv);
        for (plane, &abs_sum) in s.conv.chunks_exact_mut(n * n).zip(&self.bank_abs_sums) {
            Quantizer::new(self.bits, (abs_sum * xs).max(1e-9)).quantize_slice(plane);
        }
    }
}

/// How many of `data` the net classifies correctly through the quantized
/// datapath of each bit width `1..=PROXY_MAX_BITS`.
fn quantized_correct(
    net: &TinyConvNet,
    data: &Dataset,
) -> Result<[usize; PROXY_MAX_BITS as usize]> {
    let mut s = net.scratch()?;
    let images = data
        .iter()
        .map(|(img, label)| Ok((net.pixels(img)?, img.max_abs().max(1e-9), *label)))
        .collect::<Result<Vec<_>>>()?;
    let mut correct = [0usize; PROXY_MAX_BITS as usize];
    for (bits, hits) in (1..=PROXY_MAX_BITS).zip(&mut correct) {
        let path = PhotonicDatapath::new(net, bits);
        for &(pixels, xs, label) in &images {
            path.conv(net, pixels, xs, &mut s);
            net.head(&mut s);
            if crate::metrics::argmax(&s.logits).unwrap_or(0) == label {
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
/// fused kernels in one reused scratch, allocating nothing per image.
/// What a bit width shares across images (the quantized kernels and each
/// bank's `Σ|w|`) is derived once per width, and each image's full scale
/// once for all widths: 12 derivations instead of 2 400. Every f32
/// operation keeps the order of the per-image [`crate::reference`] tensor
/// composition these kernels replaced, so the ladder is bit-identical to
/// the one it measured; the tests pin both.
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
    let mut probs = logits.to_vec();
    softmax_in_place(&mut probs);
    probs
}

/// [`softmax`] overwriting its input.
fn softmax_in_place(values: &mut [f32]) {
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = values.iter().sum();
    for v in values {
        *v /= sum.max(1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

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

    /// The tensor composition the fused forward pass replaces, kept as its
    /// oracle: `(relu_out, pooled, logits)`.
    fn oracle_forward(net: &TinyConvNet, input: &Tensor) -> (Tensor, Tensor, Vec<f32>) {
        let conv_out = reference::conv2d_direct(&net.geometry, input, &net.kernels).unwrap();
        let relu_out = reference::relu(&conv_out);
        let pooled = reference::avgpool(&relu_out, 2, 2).unwrap();
        let flat = pooled.clone().reshape(&[pooled.len()]).unwrap();
        let logits = reference::fully_connected(&net.fc, &flat).unwrap();
        (relu_out, pooled, logits.into_vec())
    }

    /// The hand-written backward pass the fused one replaces, over
    /// [`oracle_forward`]: one SGD step, returning the loss.
    fn oracle_sgd_step(net: &mut TinyConvNet, input: &Tensor, label: usize, lr: f32) -> f32 {
        let (relu_out, pooled, logits) = oracle_forward(net, input);
        let probs = softmax(&logits);
        let loss = -probs[label].max(1e-12).ln();
        let mut dlogits = probs;
        dlogits[label] -= 1.0;

        let flat = pooled.as_slice();
        let fc_inputs = flat.len();
        let mut dflat = vec![0.0f32; fc_inputs];
        let w = net.fc.as_mut_slice();
        for (c, &dl) in dlogits.iter().enumerate() {
            for j in 0..fc_inputs {
                dflat[j] += w[c * fc_inputs + j] * dl;
                w[c * fc_inputs + j] -= lr * dl * flat[j];
            }
        }

        let k = net.geometry.kernels();
        let side = net.geometry.output_side();
        let ps = net.pooled_side;
        let mut dconv = Tensor::zeros(&[k, side, side]);
        for kk in 0..k {
            for py in 0..ps {
                for px in 0..ps {
                    let g = dflat[(kk * ps + py) * ps + px] / 4.0;
                    for wy in 0..2 {
                        for wx in 0..2 {
                            let (y, x) = (py * 2 + wy, px * 2 + wx);
                            if relu_out.at3(kk, y, x) > 0.0 {
                                *dconv.at3_mut(kk, y, x) = g;
                            }
                        }
                    }
                }
            }
        }

        let n = net.geometry.input_side();
        let kw = net.kernels.as_mut_slice();
        for kk in 0..k {
            for ky in 0..3 {
                for kx in 0..3 {
                    let mut grad = 0.0f32;
                    for oy in 0..side {
                        for ox in 0..side {
                            let y = oy as isize + ky as isize - 1;
                            let x = ox as isize + kx as isize - 1;
                            if y < 0 || x < 0 || y as usize >= n || x as usize >= n {
                                continue;
                            }
                            grad += dconv.at3(kk, oy, ox) * input.at3(0, y as usize, x as usize);
                        }
                    }
                    kw[(kk * 3 + ky) * 3 + kx] -= lr * grad;
                }
            }
        }
        loss
    }

    /// The per-image tensor version of [`PhotonicDatapath::conv`], kept as
    /// its oracle.
    fn oracle_photonic_conv(net: &TinyConvNet, img: &Tensor, bits: u8) -> Tensor {
        let xs = img.max_abs().max(1e-9);
        let ws = net.kernels.max_abs().max(1e-9);
        let dac = Quantizer::new(bits, 1.0);
        let img_q = img.map(|v| {
            let encoded = (v / xs + 1.0) / 2.0;
            (2.0 * dac.quantize(encoded) - 1.0) * xs
        });
        let kernels_q = Quantizer::new(bits, ws).quantize_tensor(&net.kernels);
        let mut conv = reference::conv2d_direct(&net.geometry, &img_q, &kernels_q).unwrap();
        let side = net.geometry.output_side();
        for kk in 0..net.geometry.kernels() {
            let sum_abs: f32 = kernels_q.as_slice()[kk * 9..(kk + 1) * 9]
                .iter()
                .map(|w| w.abs())
                .sum();
            let adc = Quantizer::new(bits, (sum_abs * xs).max(1e-9));
            for y in 0..side {
                for x in 0..side {
                    *conv.at3_mut(kk, y, x) = adc.quantize(conv.at3(kk, y, x));
                }
            }
        }
        conv
    }

    /// `(side, k, classes, seed)` nets the kernel/oracle tests run over,
    /// from the smallest legal image up to the proxy net's shape.
    const SHAPES: [(usize, usize, usize, u64); 5] = [
        (4, 1, 2, 0),
        (6, 5, 3, 21),
        (8, 3, 2, 5),
        (10, 2, 4, 13),
        (12, 6, 4, 7),
    ];

    #[test]
    fn fused_kernels_are_bit_identical_to_the_tensor_oracle() {
        for (side, k, classes, seed) in SHAPES {
            let data: Dataset = small_signal_dataset(24, side, seed + 1)
                .into_iter()
                .map(|(img, label)| (img, label % classes))
                .collect();
            let shape = format!("shape {side}/{k}/{classes}/{seed}");
            let mut stepped = TinyConvNet::new(side, k, classes, seed).unwrap();
            let mut trained = stepped.clone();
            let mut oracle = stepped.clone();
            for (img, _) in &data {
                let want = oracle_forward(&oracle, img).2;
                assert_eq!(bits(&stepped.logits(img).unwrap()), bits(&want), "{shape}");
            }
            for _ in 0..3 {
                for (img, label) in &data {
                    let fused = stepped.sgd_step(img, *label, 0.05).unwrap();
                    let want = oracle_sgd_step(&mut oracle, img, *label, 0.05);
                    assert_eq!(fused.to_bits(), want.to_bits(), "loss, {shape}");
                }
            }
            trained.train(&data, 3, 0.05).unwrap();
            for net in [&stepped, &trained] {
                assert_eq!(
                    bits(net.kernels.as_slice()),
                    bits(oracle.kernels.as_slice()),
                    "{shape}"
                );
                assert_eq!(
                    bits(net.fc.as_slice()),
                    bits(oracle.fc.as_slice()),
                    "{shape}"
                );
                for (img, _) in &data {
                    let want = oracle_forward(&oracle, img).2;
                    assert_eq!(bits(&net.logits(img).unwrap()), bits(&want), "{shape}");
                }
            }
        }
    }

    #[test]
    fn photonic_datapath_is_bit_identical_to_the_tensor_oracle() {
        for (side, k, classes, seed) in SHAPES {
            let mut net = TinyConvNet::new(side, k, classes, seed).unwrap();
            let data: Dataset = small_signal_dataset(8, side, seed + 2)
                .into_iter()
                .map(|(img, label)| (img, label % classes))
                .collect();
            net.train(&data, 2, 0.05).unwrap();
            let mut s = net.scratch().unwrap();
            for bits_wide in 1..=PROXY_MAX_BITS {
                let path = PhotonicDatapath::new(&net, bits_wide);
                for (img, _) in &data {
                    let xs = img.max_abs().max(1e-9);
                    path.conv(&net, img.as_slice(), xs, &mut s);
                    let want = oracle_photonic_conv(&net, img, bits_wide);
                    assert_eq!(bits(&s.conv), bits(want.as_slice()), "{bits_wide} bits");
                }
            }
        }
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
