//! Deterministic synthetic workload generation.
//!
//! The paper's timing and area results are data-independent, and its
//! functional behaviour only needs statistically representative tensors, so
//! ImageNet inputs are substituted by seeded generators. Every generator
//! takes an explicit seed so that tests, examples and benches are
//! reproducible bit-for-bit.

use crate::geometry::ConvGeometry;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A matched `(input, kernels)` pair for one convolution layer.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Input feature map of shape `(nc, n, n)`.
    pub input: Tensor,
    /// Kernel stack of shape `(k, nc, m, m)`.
    pub kernels: Tensor,
}

impl Workload {
    /// Standard-normal input activations and Xavier-scaled kernels.
    #[must_use]
    pub fn gaussian(g: &ConvGeometry, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = gaussian_tensor(&g.input_shape(), 0.0, 1.0, &mut rng);
        let fan_in = g.n_kernel() as f32;
        let scale = (2.0 / fan_in).sqrt();
        let kernels = gaussian_tensor(&g.kernel_shape(), 0.0, scale, &mut rng);
        Workload { input, kernels }
    }

    /// Uniform activations in `[0, 1)` (post-ReLU-like) and uniform kernels
    /// in `[-w, w)` with Xavier bound `w`.
    #[must_use]
    pub fn uniform(g: &ConvGeometry, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = uniform_tensor(&g.input_shape(), 0.0, 1.0, &mut rng);
        let bound = (6.0 / (g.n_kernel() as f32 + g.kernels() as f32)).sqrt();
        let kernels = uniform_tensor(&g.kernel_shape(), -bound, bound, &mut rng);
        Workload { input, kernels }
    }

    /// A structured "natural-image-like" input (smooth blobs and an edge)
    /// with Gabor-like oriented edge kernels — exercises spatial correlation
    /// paths that pure noise misses.
    #[must_use]
    pub fn structured(g: &ConvGeometry, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = blob_image(&g.input_shape(), &mut rng);
        let kernels = oriented_kernels(&g.kernel_shape(), &mut rng);
        Workload { input, kernels }
    }
}

/// Tensor of i.i.d. normal samples (Box-Muller; deterministic given the rng).
fn gaussian_tensor(shape: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(shape);
    for pair in t.as_mut_slice().chunks_mut(2) {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f32::consts::PI * u2;
        pair[0] = mean + std * r * theta.cos();
        if let Some(v) = pair.get_mut(1) {
            *v = mean + std * r * theta.sin();
        }
    }
    t
}

/// Tensor of i.i.d. uniform samples in `[lo, hi)`.
fn uniform_tensor(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::zeros(shape);
    for v in t.as_mut_slice() {
        *v = rng.gen_range(lo..hi);
    }
    t
}

/// Smooth random blobs plus one hard vertical edge per channel, normalised
/// to `[0, 1]`.
fn blob_image(shape: &[usize; 3], rng: &mut StdRng) -> Tensor {
    let (nc, h, w) = (shape[0], shape[1], shape[2]);
    let mut t = Tensor::zeros(shape);
    for c in 0..nc {
        let n_blobs = 3 + (c % 3);
        let centers: Vec<(f32, f32, f32)> = (0..n_blobs)
            .map(|_| {
                (
                    rng.gen_range(0.0..h as f32),
                    rng.gen_range(0.0..w as f32),
                    rng.gen_range(1.0..(h.max(4) as f32 / 2.0)),
                )
            })
            .collect();
        let edge_col = rng.gen_range(0..w);
        for y in 0..h {
            for x in 0..w {
                let mut v = 0.0f32;
                for &(cy, cx, sigma) in &centers {
                    let d2 = (y as f32 - cy).powi(2) + (x as f32 - cx).powi(2);
                    v += (-d2 / (2.0 * sigma * sigma)).exp();
                }
                if x >= edge_col {
                    v += 0.5;
                }
                *t.at3_mut(c, y, x) = v;
            }
        }
    }
    let max = t.max_abs().max(1e-9);
    t.map_inplace(|v| v / max);
    t
}

/// Oriented difference kernels (crude Gabor family) with random orientation
/// per output channel.
fn oriented_kernels(shape: &[usize; 4], rng: &mut StdRng) -> Tensor {
    let (k, nc, m, _) = (shape[0], shape[1], shape[2], shape[3]);
    let mut t = Tensor::zeros(shape);
    let data = t.as_mut_slice();
    for kk in 0..k {
        let theta: f32 = rng.gen_range(0.0..core::f32::consts::PI);
        let (st, ct) = theta.sin_cos();
        for c in 0..nc {
            for ky in 0..m {
                for kx in 0..m {
                    let y = ky as f32 - (m as f32 - 1.0) / 2.0;
                    let x = kx as f32 - (m as f32 - 1.0) / 2.0;
                    let along = x * ct + y * st;
                    let across = -x * st + y * ct;
                    let v = along * (-(across * across) / 2.0).exp() / (m as f32 / 2.0).max(1.0);
                    data[((kk * nc + c) * m + ky) * m + kx] = v;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> ConvGeometry {
        ConvGeometry::new(12, 3, 1, 1, 3, 4).unwrap()
    }

    #[test]
    fn gaussian_is_deterministic_per_seed() {
        let a = Workload::gaussian(&g(), 1);
        let b = Workload::gaussian(&g(), 1);
        assert_eq!(a.input, b.input);
        assert_eq!(a.kernels, b.kernels);
        let c = Workload::gaussian(&g(), 2);
        assert_ne!(a.input, c.input);
    }

    #[test]
    fn gaussian_shapes_match_geometry() {
        let wl = Workload::gaussian(&g(), 3);
        assert_eq!(wl.input.shape(), g().input_shape());
        assert_eq!(wl.kernels.shape(), g().kernel_shape());
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let geo = ConvGeometry::new(32, 3, 0, 1, 8, 4).unwrap();
        let wl = Workload::gaussian(&geo, 5);
        let mean = wl.input.mean();
        assert!(mean.abs() < 0.1, "input mean {mean} too far from 0");
        let var: f32 = wl
            .input
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / wl.input.len() as f32;
        assert!((var - 1.0).abs() < 0.15, "input variance {var} far from 1");
    }

    #[test]
    fn uniform_ranges_hold() {
        let wl = Workload::uniform(&g(), 11);
        assert!(wl.input.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
        let bound = (6.0 / (g().n_kernel() as f32 + g().kernels() as f32)).sqrt();
        assert!(wl.kernels.as_slice().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn structured_is_normalised_and_deterministic() {
        let a = Workload::structured(&g(), 21);
        let b = Workload::structured(&g(), 21);
        assert_eq!(a.input, b.input);
        assert!(a.input.max_abs() <= 1.0 + 1e-6);
        assert!(a.input.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn oriented_kernels_have_zero_ish_mean() {
        let wl = Workload::structured(&g(), 33);
        // Odd-symmetric edge kernels should be near zero-mean.
        assert!(wl.kernels.mean().abs() < 0.05);
    }
}
