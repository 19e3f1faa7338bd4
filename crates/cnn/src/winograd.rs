//! Winograd F(2×2, 3×3) convolution.
//!
//! A third, algorithmically independent implementation of the 3×3/stride-1
//! convolution (after direct and im2col): each 2×2 output tile is computed
//! from a 4×4 input tile with 16 multiplies instead of 36, via
//! `Y = Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A`. Three-way agreement between direct,
//! im2col and Winograd is the strongest correctness evidence this crate can
//! give the ground-truth engine the photonic datapath is judged against —
//! and the electronic baselines in the benches get a realistic fast kernel.

use crate::geometry::ConvGeometry;
use crate::tensor::Tensor;
use crate::{CnnError, Result};

/// Whether a geometry is eligible for this transform (3×3 kernel, stride 1).
#[must_use]
pub fn supports(g: &ConvGeometry) -> bool {
    g.kernel_side() == 3 && g.stride() == 1
}

/// `G·g·Gᵀ`: transforms one 3×3 kernel tap into the 4×4 Winograd domain.
fn transform_kernel(g: &[f32]) -> [f32; 16] {
    // G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]
    let mut tmp = [0.0f32; 12]; // G·g : 4x3
    for col in 0..3 {
        let (a, b, c) = (g[col], g[3 + col], g[6 + col]);
        tmp[col] = a;
        tmp[3 + col] = 0.5 * (a + b + c);
        tmp[6 + col] = 0.5 * (a - b + c);
        tmp[9 + col] = c;
    }
    let mut out = [0.0f32; 16]; // (G·g)·Gᵀ : 4x4
    for row in 0..4 {
        let (a, b, c) = (tmp[row * 3], tmp[row * 3 + 1], tmp[row * 3 + 2]);
        out[row * 4] = a;
        out[row * 4 + 1] = 0.5 * (a + b + c);
        out[row * 4 + 2] = 0.5 * (a - b + c);
        out[row * 4 + 3] = c;
    }
    out
}

/// `Bᵀ·d·B`: transforms one 4×4 input tile.
fn transform_input(d: &[f32; 16]) -> [f32; 16] {
    // Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
    let mut tmp = [0.0f32; 16]; // Bᵀ·d
    for col in 0..4 {
        let (d0, d1, d2, d3) = (d[col], d[4 + col], d[8 + col], d[12 + col]);
        tmp[col] = d0 - d2;
        tmp[4 + col] = d1 + d2;
        tmp[8 + col] = d2 - d1;
        tmp[12 + col] = d1 - d3;
    }
    let mut out = [0.0f32; 16]; // (Bᵀ·d)·B
    for row in 0..4 {
        let (t0, t1, t2, t3) = (
            tmp[row * 4],
            tmp[row * 4 + 1],
            tmp[row * 4 + 2],
            tmp[row * 4 + 3],
        );
        out[row * 4] = t0 - t2;
        out[row * 4 + 1] = t1 + t2;
        out[row * 4 + 2] = t2 - t1;
        out[row * 4 + 3] = t1 - t3;
    }
    out
}

/// `Aᵀ·m·A`: collapses a 4×4 Winograd-domain product into the 2×2 output.
fn transform_output(m: &[f32; 16]) -> [f32; 4] {
    // Aᵀ = [[1,1,1,0],[0,1,-1,-1]]
    let mut tmp = [0.0f32; 8]; // Aᵀ·m : 2x4
    for col in 0..4 {
        let (m0, m1, m2, m3) = (m[col], m[4 + col], m[8 + col], m[12 + col]);
        tmp[col] = m0 + m1 + m2;
        tmp[4 + col] = m1 - m2 - m3;
    }
    let mut out = [0.0f32; 4];
    for row in 0..2 {
        let (t0, t1, t2, t3) = (
            tmp[row * 4],
            tmp[row * 4 + 1],
            tmp[row * 4 + 2],
            tmp[row * 4 + 3],
        );
        out[row * 2] = t0 + t1 + t2;
        out[row * 2 + 1] = t1 - t2 - t3;
    }
    out
}

/// Winograd convolution for 3×3 stride-1 layers.
///
/// # Errors
///
/// Returns [`CnnError::InvalidGeometry`] if [`supports`] is false, and
/// shape errors if tensors do not match `g`.
pub fn conv2d_winograd(g: &ConvGeometry, input: &Tensor, kernels: &Tensor) -> Result<Tensor> {
    if !supports(g) {
        return Err(CnnError::InvalidGeometry {
            reason: format!(
                "winograd F(2,3) needs m=3, s=1; got m={}, s={}",
                g.kernel_side(),
                g.stride()
            ),
        });
    }
    if input.shape() != g.input_shape() {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{:?}", g.input_shape()),
            actual: format!("{:?}", input.shape()),
        });
    }
    if kernels.shape() != g.kernel_shape() {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{:?}", g.kernel_shape()),
            actual: format!("{:?}", kernels.shape()),
        });
    }
    let (n, nc, k, p, o) = (
        g.input_side(),
        g.channels(),
        g.kernels(),
        g.padding() as isize,
        g.output_side(),
    );

    // Pre-transform every kernel plane.
    let u: Vec<[f32; 16]> = kernels
        .as_slice()
        .chunks_exact(9)
        .map(transform_kernel)
        .collect();

    let tiles = o.div_ceil(2);
    let mut out = Tensor::zeros(&[k, o, o]);
    let mut v = vec![[0.0f32; 16]; nc];
    for ty in 0..tiles {
        for tx in 0..tiles {
            // Gather the 4x4 input tile per channel (zero padding applied).
            let base_y = (2 * ty) as isize - p;
            let base_x = (2 * tx) as isize - p;
            for (c, vc) in v.iter_mut().enumerate() {
                let mut d = [0.0f32; 16];
                for dy in 0..4 {
                    let y = base_y + dy as isize;
                    if y < 0 || y as usize >= n {
                        continue;
                    }
                    for dx in 0..4 {
                        let x = base_x + dx as isize;
                        if x < 0 || x as usize >= n {
                            continue;
                        }
                        d[dy * 4 + dx] = input.at3(c, y as usize, x as usize);
                    }
                }
                *vc = transform_input(&d);
            }
            for kk in 0..k {
                let mut m = [0.0f32; 16];
                for (c, vc) in v.iter().enumerate() {
                    let uc = &u[kk * nc + c];
                    for i in 0..16 {
                        m[i] += uc[i] * vc[i];
                    }
                }
                let y4 = transform_output(&m);
                for dy in 0..2 {
                    let oy = 2 * ty + dy;
                    if oy >= o {
                        continue;
                    }
                    for dx in 0..2 {
                        let ox = 2 * tx + dx;
                        if ox >= o {
                            continue;
                        }
                        *out.at3_mut(kk, oy, ox) = y4[dy * 2 + dx];
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_direct;
    use crate::workload::Workload;

    #[test]
    fn supports_only_3x3_stride_1() {
        assert!(supports(&ConvGeometry::new(8, 3, 1, 1, 2, 4).unwrap()));
        assert!(!supports(&ConvGeometry::new(8, 5, 2, 1, 2, 4).unwrap()));
        assert!(!supports(&ConvGeometry::new(8, 3, 1, 2, 2, 4).unwrap()));
    }

    #[test]
    fn rejects_unsupported_geometry() {
        let g = ConvGeometry::new(8, 5, 2, 1, 1, 1).unwrap();
        let wl = Workload::gaussian(&g, 0);
        assert!(conv2d_winograd(&g, &wl.input, &wl.kernels).is_err());
    }

    #[test]
    fn identity_kernel_roundtrip() {
        let g = ConvGeometry::new(6, 3, 1, 1, 1, 1).unwrap();
        let input = Tensor::from_vec(&[1, 6, 6], (0..36).map(|v| v as f32).collect()).unwrap();
        let mut kernels = Tensor::zeros(&[1, 1, 3, 3]);
        kernels.set(&[0, 0, 1, 1], 1.0).unwrap();
        let out = conv2d_winograd(&g, &input, &kernels).unwrap();
        assert!(out.approx_eq(&input, 1e-4), "identity failed");
    }

    #[test]
    fn matches_direct_on_even_output() {
        let g = ConvGeometry::new(10, 3, 1, 1, 3, 4).unwrap(); // out 10 (even)
        let wl = Workload::gaussian(&g, 5);
        let a = conv2d_direct(&g, &wl.input, &wl.kernels).unwrap();
        let b = conv2d_winograd(&g, &wl.input, &wl.kernels).unwrap();
        assert!(
            a.approx_eq(&b, 1e-3 * (1.0 + a.max_abs())),
            "rmse {}",
            a.rmse(&b).unwrap()
        );
    }

    #[test]
    fn matches_direct_on_odd_output() {
        // 13x13 output (AlexNet conv3 shape family): last tile row/col clip.
        let g = ConvGeometry::new(13, 3, 1, 1, 4, 3).unwrap();
        let wl = Workload::gaussian(&g, 6);
        let a = conv2d_direct(&g, &wl.input, &wl.kernels).unwrap();
        let b = conv2d_winograd(&g, &wl.input, &wl.kernels).unwrap();
        assert!(
            a.approx_eq(&b, 1e-3 * (1.0 + a.max_abs())),
            "rmse {}",
            a.rmse(&b).unwrap()
        );
    }

    #[test]
    fn matches_direct_without_padding() {
        let g = ConvGeometry::new(9, 3, 0, 1, 2, 2).unwrap(); // out 7
        let wl = Workload::uniform(&g, 7);
        let a = conv2d_direct(&g, &wl.input, &wl.kernels).unwrap();
        let b = conv2d_winograd(&g, &wl.input, &wl.kernels).unwrap();
        assert!(a.approx_eq(&b, 1e-3 * (1.0 + a.max_abs())));
    }

    #[test]
    fn alexnet_conv3_slice_three_way_agreement() {
        let g = ConvGeometry::new(13, 3, 1, 1, 16, 8).unwrap();
        let wl = Workload::gaussian(&g, 8);
        let direct = conv2d_direct(&g, &wl.input, &wl.kernels).unwrap();
        let im2col = crate::reference::conv2d_im2col(&g, &wl.input, &wl.kernels).unwrap();
        let wino = conv2d_winograd(&g, &wl.input, &wl.kernels).unwrap();
        let tol = 1e-3 * (1.0 + direct.max_abs());
        assert!(direct.approx_eq(&im2col, tol));
        assert!(direct.approx_eq(&wino, tol));
    }

    #[test]
    fn shape_validation() {
        let g = ConvGeometry::new(8, 3, 1, 1, 2, 2).unwrap();
        let wl = Workload::gaussian(&g, 9);
        let bad = Tensor::zeros(&[3, 8, 8]);
        assert!(conv2d_winograd(&g, &bad, &wl.kernels).is_err());
        let badk = Tensor::zeros(&[2, 2, 4, 4]);
        assert!(conv2d_winograd(&g, &wl.input, &badk).is_err());
    }
}
