//! Ground-truth functional kernels.
//!
//! These CPU implementations define the *correct answer* for every operation
//! PCNNA accelerates or that surrounds it in a network. The photonic
//! functional simulator in `pcnna-core` is validated against
//! [`conv2d_direct`]; [`conv2d_im2col`] is an independent second
//! implementation used to cross-check the first (and as the electronic
//! baseline's compute kernel in the benches).

use crate::geometry::ConvGeometry;
use crate::tensor::Tensor;
use crate::{CnnError, Result};

/// Checks that `input` and `kernels` match the geometry `g`.
fn check_conv_shapes(g: &ConvGeometry, input: &Tensor, kernels: &Tensor) -> Result<()> {
    let want_in = g.input_shape();
    if input.shape() != want_in {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{want_in:?}"),
            actual: format!("{:?}", input.shape()),
        });
    }
    let want_k = g.kernel_shape();
    if kernels.shape() != want_k {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{want_k:?}"),
            actual: format!("{:?}", kernels.shape()),
        });
    }
    Ok(())
}

/// Reads the padded input at `(c, y, x)` where `y`/`x` are coordinates in the
/// padded frame; out-of-range reads return the zero padding value.
#[inline]
fn padded_at(input: &Tensor, c: usize, y: isize, x: isize, side: usize) -> f32 {
    if y < 0 || x < 0 || y as usize >= side || x as usize >= side {
        0.0
    } else {
        input.at3(c, y as usize, x as usize)
    }
}

/// Direct (sliding-window) 2-D convolution.
///
/// `input` is `(nc, n, n)`, `kernels` is `(k, nc, m, m)`; the result is
/// `(k, o, o)` with `o = g.output_side()`. This is the paper's 4-D
/// convolution (batch of one): cross-correlation orientation, as in every
/// inference framework.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if the tensors do not match `g`.
pub fn conv2d_direct(g: &ConvGeometry, input: &Tensor, kernels: &Tensor) -> Result<Tensor> {
    check_conv_shapes(g, input, kernels)?;
    let o = g.output_side();
    let (m, nc, k, s, p, n) = (
        g.kernel_side(),
        g.channels(),
        g.kernels(),
        g.stride(),
        g.padding() as isize,
        g.input_side(),
    );
    let mut out = Tensor::zeros(&[k, o, o]);
    for kk in 0..k {
        for oy in 0..o {
            for ox in 0..o {
                let base_y = (oy * s) as isize - p;
                let base_x = (ox * s) as isize - p;
                let mut acc = 0.0f32;
                for c in 0..nc {
                    for ky in 0..m {
                        for kx in 0..m {
                            let iv =
                                padded_at(input, c, base_y + ky as isize, base_x + kx as isize, n);
                            acc += iv * kernels.at4(kk, c, ky, kx);
                        }
                    }
                }
                *out.at3_mut(kk, oy, ox) = acc;
            }
        }
    }
    Ok(out)
}

/// Lowers the input into an im2col matrix of shape
/// `(nc·m·m, o·o)` stored row-major, column `j` holding the receptive field
/// of output location `j` (row-major over output locations).
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if `input` does not match `g`.
pub fn im2col(g: &ConvGeometry, input: &Tensor) -> Result<Tensor> {
    let mut buf = Vec::new();
    im2col_into(g, input, &mut buf)?;
    let o = g.output_side();
    let rows = g.n_kernel() as usize;
    Tensor::from_vec(&[rows, o * o], buf)
}

/// Lowers the input into a caller-provided im2col buffer (same layout as
/// [`im2col`]): `out` is resized to `(nc·m·m) · (o·o)` and filled. A warm
/// buffer makes repeated lowering allocation-free.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if `input` does not match `g`.
pub fn im2col_into(g: &ConvGeometry, input: &Tensor, out: &mut Vec<f32>) -> Result<()> {
    let want_in = g.input_shape();
    if input.shape() != want_in {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{want_in:?}"),
            actual: format!("{:?}", input.shape()),
        });
    }
    let o = g.output_side();
    let (m, nc, s, p, n) = (
        g.kernel_side(),
        g.channels(),
        g.stride(),
        g.padding() as isize,
        g.input_side(),
    );
    let rows = nc * m * m;
    let cols = o * o;
    out.clear();
    out.resize(rows * cols, 0.0);
    for c in 0..nc {
        for ky in 0..m {
            for kx in 0..m {
                let row = (c * m + ky) * m + kx;
                for oy in 0..o {
                    for ox in 0..o {
                        let col = oy * o + ox;
                        let y = (oy * s) as isize - p + ky as isize;
                        let x = (ox * s) as isize - p + kx as isize;
                        out[row * cols + col] = padded_at(input, c, y, x, n);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Reusable scratch buffers for [`conv2d_im2col_scratch`]: the im2col
/// matrix and the output accumulator. Capacity survives across calls, so
/// a warm scratch makes the whole convolution allocation-free — the form
/// the electronic-baseline benches run in steady state.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    im2col: Vec<f32>,
    out: Vec<f32>,
}

impl ConvScratch {
    /// Empty scratch (buffers grow on first use, then stay warm).
    #[must_use]
    pub fn new() -> Self {
        ConvScratch::default()
    }

    /// The output of the last [`conv2d_im2col_scratch`] call, row-major
    /// `(k, o, o)`.
    #[must_use]
    pub fn output(&self) -> &[f32] {
        &self.out
    }
}

/// How many columns of the im2col matrix one GEMM tile spans: small
/// enough that a four-row output tile plus a [`ROW_BLOCK`]-row B block
/// (~35 KiB) sits in L1 while the micro-kernel streams over it.
const COL_TILE: usize = 128;
/// How many im2col rows one GEMM pass accumulates before touching the
/// next block (with [`COL_TILE`], bounds the working set per pass).
const ROW_BLOCK: usize = 64;

/// Cache-blocked GEMM: `out(k × cols) += a(k × rows) · b(rows × cols)`,
/// all row-major. Columns are tiled, rows are blocked, and four output
/// rows are accumulated per pass so each loaded `b` segment feeds four
/// multiply-adds — the classic register-tiled axpy kernel. Accumulation
/// order over `r` is ascending for every output element, so results are
/// bit-identical to the naive row-major loop.
fn gemm_blocked(a: &[f32], b: &[f32], out: &mut [f32], k: usize, rows: usize, cols: usize) {
    for col0 in (0..cols).step_by(COL_TILE) {
        let col1 = (col0 + COL_TILE).min(cols);
        for r0 in (0..rows).step_by(ROW_BLOCK) {
            let r1 = (r0 + ROW_BLOCK).min(rows);
            let mut kk = 0;
            // 4-row micro-kernel.
            while kk + 4 <= k {
                let (a0, a1, a2, a3) = (
                    &a[kk * rows..(kk + 1) * rows],
                    &a[(kk + 1) * rows..(kk + 2) * rows],
                    &a[(kk + 2) * rows..(kk + 3) * rows],
                    &a[(kk + 3) * rows..(kk + 4) * rows],
                );
                let (head, rest) = out[kk * cols..].split_at_mut(cols);
                let (row1, rest) = rest.split_at_mut(cols);
                let (row2, rest) = rest.split_at_mut(cols);
                let o0 = &mut head[col0..col1];
                let o1 = &mut row1[col0..col1];
                let o2 = &mut row2[col0..col1];
                let o3 = &mut rest[col0..col1];
                for r in r0..r1 {
                    let (w0, w1, w2, w3) = (a0[r], a1[r], a2[r], a3[r]);
                    if w0 == 0.0 && w1 == 0.0 && w2 == 0.0 && w3 == 0.0 {
                        continue;
                    }
                    let brow = &b[r * cols + col0..r * cols + col1];
                    // Zip (not indexing) so the compiler sees equal
                    // lengths and vectorizes without bounds checks.
                    let acc = o0
                        .iter_mut()
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut().zip(o3.iter_mut()));
                    for (((x0, x1), (x2, x3)), &bv) in acc.zip(brow) {
                        *x0 += w0 * bv;
                        *x1 += w1 * bv;
                        *x2 += w2 * bv;
                        *x3 += w3 * bv;
                    }
                }
                kk += 4;
            }
            // Remainder rows: plain axpy.
            for kk in kk..k {
                let arow = &a[kk * rows..(kk + 1) * rows];
                let orow = &mut out[kk * cols + col0..kk * cols + col1];
                for r in r0..r1 {
                    let w = arow[r];
                    if w == 0.0 {
                        continue;
                    }
                    let brow = &b[r * cols + col0..r * cols + col1];
                    for (oval, &bval) in orow.iter_mut().zip(brow) {
                        *oval += w * bval;
                    }
                }
            }
        }
    }
}

/// [`conv2d_im2col`] with caller-provided scratch: the im2col matrix and
/// the output live in `scratch` (read the result via
/// [`ConvScratch::output`]), so a warm scratch makes repeated
/// convolutions completely allocation-free. The multiply is the
/// cache-blocked `gemm_blocked` kernel.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if the tensors do not match `g`.
pub fn conv2d_im2col_scratch(
    g: &ConvGeometry,
    input: &Tensor,
    kernels: &Tensor,
    scratch: &mut ConvScratch,
) -> Result<()> {
    check_conv_shapes(g, input, kernels)?;
    let o = g.output_side();
    let k = g.kernels();
    let rows = g.n_kernel() as usize; // nc*m*m
    let cols = o * o;
    let ConvScratch { im2col, out } = scratch;
    im2col_into(g, input, im2col)?;
    out.clear();
    out.resize(k * cols, 0.0);
    gemm_blocked(kernels.as_slice(), im2col, out, k, rows, cols);
    Ok(())
}

/// im2col-based convolution: lowers the input, flattens the kernels into a
/// `(k, nc·m·m)` matrix and multiplies with a cache-blocked GEMM.
/// Numerically equivalent to [`conv2d_direct`] up to f32 summation-order
/// effects. Allocates fresh buffers per call — hot loops should hold a
/// [`ConvScratch`] and call [`conv2d_im2col_scratch`] instead.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if the tensors do not match `g`.
pub fn conv2d_im2col(g: &ConvGeometry, input: &Tensor, kernels: &Tensor) -> Result<Tensor> {
    let mut scratch = ConvScratch::new();
    conv2d_im2col_scratch(g, input, kernels, &mut scratch)?;
    let o = g.output_side();
    Tensor::from_vec(&[g.kernels(), o, o], scratch.out)
}

/// Extracts the receptive field of output location `(oy, ox)` as a flat
/// vector in `(c, ky, kx)` order — exactly the value ordering the PCNNA
/// input DACs present to the Mach-Zehnder modulators.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if `input` does not match `g`, or
/// [`CnnError::IndexOutOfBounds`] if `(oy, ox)` is not a valid location.
pub fn receptive_field(g: &ConvGeometry, input: &Tensor, oy: usize, ox: usize) -> Result<Vec<f32>> {
    let want_in = g.input_shape();
    if input.shape() != want_in {
        return Err(CnnError::ShapeMismatch {
            expected: format!("{want_in:?}"),
            actual: format!("{:?}", input.shape()),
        });
    }
    let o = g.output_side();
    if oy >= o || ox >= o {
        return Err(CnnError::IndexOutOfBounds {
            index: format!("({oy}, {ox})"),
            shape: format!("({o}, {o}) locations"),
        });
    }
    let (m, nc, s, p, n) = (
        g.kernel_side(),
        g.channels(),
        g.stride(),
        g.padding() as isize,
        g.input_side(),
    );
    let mut field = Vec::with_capacity(g.n_kernel() as usize);
    let base_y = (oy * s) as isize - p;
    let base_x = (ox * s) as isize - p;
    for c in 0..nc {
        for ky in 0..m {
            for kx in 0..m {
                field.push(padded_at(
                    input,
                    c,
                    base_y + ky as isize,
                    base_x + kx as isize,
                    n,
                ));
            }
        }
    }
    Ok(field)
}

/// Elementwise ReLU.
#[must_use]
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|v| v.max(0.0))
}

/// Max pooling over `(c, h, w)` volumes.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] for non-3-D input and
/// [`CnnError::InvalidGeometry`] when the window does not fit.
pub fn maxpool(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    pool(input, window, stride, true)
}

/// Average pooling over `(c, h, w)` volumes.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] for non-3-D input and
/// [`CnnError::InvalidGeometry`] when the window does not fit.
pub fn avgpool(input: &Tensor, window: usize, stride: usize) -> Result<Tensor> {
    pool(input, window, stride, false)
}

fn pool(input: &Tensor, window: usize, stride: usize, take_max: bool) -> Result<Tensor> {
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(CnnError::ShapeMismatch {
            expected: "(c, h, w) volume".to_owned(),
            actual: format!("{shape:?}"),
        });
    }
    let (nc, h, w) = (shape[0], shape[1], shape[2]);
    if window == 0 || stride == 0 || window > h || window > w {
        return Err(CnnError::InvalidGeometry {
            reason: format!("pool window {window} / stride {stride} vs input {h}x{w}"),
        });
    }
    let oh = (h - window) / stride + 1;
    let ow = (w - window) / stride + 1;
    let mut out = Tensor::zeros(&[nc, oh, ow]);
    for c in 0..nc {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut sum = 0.0f32;
                for wy in 0..window {
                    for wx in 0..window {
                        let v = input.at3(c, oy * stride + wy, ox * stride + wx);
                        best = best.max(v);
                        sum += v;
                    }
                }
                *out.at3_mut(c, oy, ox) = if take_max {
                    best
                } else {
                    sum / (window * window) as f32
                };
            }
        }
    }
    Ok(out)
}

/// Fully connected layer: `out = W · x` with `W` of shape
/// `(outputs, inputs)` and `x` flat of length `inputs`.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if dimensions disagree.
pub fn fully_connected(weights: &Tensor, input: &Tensor) -> Result<Tensor> {
    let wshape = weights.shape();
    if wshape.len() != 2 {
        return Err(CnnError::ShapeMismatch {
            expected: "(outputs, inputs) weight matrix".to_owned(),
            actual: format!("{wshape:?}"),
        });
    }
    let (outputs, inputs) = (wshape[0], wshape[1]);
    if input.len() != inputs {
        return Err(CnnError::ShapeMismatch {
            expected: format!("flat input of {inputs}"),
            actual: format!("{} elements", input.len()),
        });
    }
    let w = weights.as_slice();
    let x = input.as_slice();
    let mut out = vec![0.0f32; outputs];
    for (i, oval) in out.iter_mut().enumerate() {
        let row = &w[i * inputs..(i + 1) * inputs];
        *oval = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
    }
    Tensor::from_vec(&[outputs], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Workload};

    fn tiny_geometry() -> ConvGeometry {
        ConvGeometry::new(4, 3, 0, 1, 1, 1).unwrap()
    }

    #[test]
    fn conv_identity_kernel_extracts_center() {
        // 3x3 kernel with a 1 in the middle reproduces the valid interior.
        let g = tiny_geometry();
        let input = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let mut kernels = Tensor::zeros(&[1, 1, 3, 3]);
        kernels.set(&[0, 0, 1, 1], 1.0).unwrap();
        let out = conv2d_direct(&g, &input, &kernels).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        // interior of the 4x4 ramp: rows 1..3, cols 1..3
        assert_eq!(out.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn conv_box_kernel_sums_window() {
        let g = tiny_geometry();
        let input = Tensor::full(&[1, 4, 4], 1.0);
        let kernels = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d_direct(&g, &input, &kernels).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn conv_respects_padding_with_zeros() {
        let g = ConvGeometry::new(2, 3, 1, 1, 1, 1).unwrap();
        let input = Tensor::full(&[1, 2, 2], 1.0);
        let kernels = Tensor::full(&[1, 1, 3, 3], 1.0);
        let out = conv2d_direct(&g, &input, &kernels).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        // every 3x3 window sees exactly the four ones (corners of padding)
        assert!(out.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn conv_stride_subsamples() {
        let g = ConvGeometry::new(5, 1, 0, 2, 1, 1).unwrap();
        let input = Tensor::from_vec(&[1, 5, 5], (0..25).map(|v| v as f32).collect()).unwrap();
        let kernels = Tensor::full(&[1, 1, 1, 1], 1.0);
        let out = conv2d_direct(&g, &input, &kernels).unwrap();
        assert_eq!(out.shape(), &[1, 3, 3]);
        assert_eq!(
            out.as_slice(),
            &[0.0, 2.0, 4.0, 10.0, 12.0, 14.0, 20.0, 22.0, 24.0]
        );
    }

    #[test]
    fn conv_multi_channel_accumulates() {
        let g = ConvGeometry::new(3, 3, 0, 1, 2, 1).unwrap();
        let input = Tensor::full(&[2, 3, 3], 2.0);
        let kernels = Tensor::full(&[1, 2, 3, 3], 0.5);
        let out = conv2d_direct(&g, &input, &kernels).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert!((out.as_slice()[0] - 18.0).abs() < 1e-5);
    }

    #[test]
    fn im2col_matches_direct_on_random_layers() {
        let cases = [
            ConvGeometry::new(8, 3, 0, 1, 3, 4).unwrap(),
            ConvGeometry::new(9, 3, 1, 2, 2, 5).unwrap(),
            ConvGeometry::new(12, 5, 2, 3, 1, 2).unwrap(),
            ConvGeometry::new(16, 1, 0, 1, 4, 8).unwrap(),
        ];
        for (i, g) in cases.iter().enumerate() {
            let wl = Workload::gaussian(g, 42 + i as u64);
            let a = conv2d_direct(g, &wl.input, &wl.kernels).unwrap();
            let b = conv2d_im2col(g, &wl.input, &wl.kernels).unwrap();
            assert!(
                a.approx_eq(&b, 1e-3),
                "direct vs im2col mismatch for {g} (rmse {})",
                a.rmse(&b).unwrap()
            );
        }
    }

    #[test]
    fn receptive_field_matches_im2col_column() {
        let g = ConvGeometry::new(7, 3, 1, 2, 2, 3).unwrap();
        let wl = Workload::gaussian(&g, 7);
        let mat = im2col(&g, &wl.input).unwrap();
        let o = g.output_side();
        let cols = o * o;
        for oy in 0..o {
            for ox in 0..o {
                let field = receptive_field(&g, &wl.input, oy, ox).unwrap();
                let col = oy * o + ox;
                for (r, &v) in field.iter().enumerate() {
                    assert_eq!(v, mat.as_slice()[r * cols + col]);
                }
            }
        }
    }

    #[test]
    fn receptive_field_rejects_bad_location() {
        let g = tiny_geometry();
        let input = Tensor::zeros(&[1, 4, 4]);
        assert!(receptive_field(&g, &input, 2, 0).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let out = maxpool(&input, 2, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avgpool_takes_window_mean() {
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let out = avgpool(&input, 2, 2).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn pool_overlapping_windows() {
        // AlexNet uses 3x3 windows with stride 2 (overlapping).
        let input = Tensor::from_vec(&[1, 5, 5], (0..25).map(|v| v as f32).collect()).unwrap();
        let out = maxpool(&input, 3, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn pool_rejects_bad_window() {
        let input = Tensor::zeros(&[1, 2, 2]);
        assert!(maxpool(&input, 3, 1).is_err());
        assert!(maxpool(&input, 0, 1).is_err());
        assert!(maxpool(&Tensor::zeros(&[4]), 1, 1).is_err());
    }

    #[test]
    fn fully_connected_computes_matvec() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]).unwrap();
        let x = Tensor::from_vec(&[3], vec![2.0, 3.0, 4.0]).unwrap();
        let y = fully_connected(&w, &x).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 7.0]);
    }

    #[test]
    fn fully_connected_rejects_mismatch() {
        let w = Tensor::zeros(&[2, 3]);
        let x = Tensor::zeros(&[4]);
        assert!(fully_connected(&w, &x).is_err());
        assert!(fully_connected(&Tensor::zeros(&[6]), &x).is_err());
    }

    #[test]
    fn conv_rejects_wrong_shapes() {
        let g = tiny_geometry();
        let bad_input = Tensor::zeros(&[2, 4, 4]);
        let kernels = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(conv2d_direct(&g, &bad_input, &kernels).is_err());
        let input = Tensor::zeros(&[1, 4, 4]);
        let bad_kernels = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(conv2d_direct(&g, &input, &bad_kernels).is_err());
        assert!(conv2d_im2col(&g, &bad_input, &kernels).is_err());
    }

    #[test]
    fn workload_determinism_same_seed_same_conv() {
        let g = ConvGeometry::new(6, 3, 0, 1, 2, 2).unwrap();
        let a = workload::Workload::gaussian(&g, 99);
        let b = workload::Workload::gaussian(&g, 99);
        let ca = conv2d_direct(&g, &a.input, &a.kernels).unwrap();
        let cb = conv2d_direct(&g, &b.input, &b.kernels).unwrap();
        assert_eq!(ca, cb);
    }
}
