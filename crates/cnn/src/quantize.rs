//! Fixed-point quantization.
//!
//! The paper sizes the PCNNA cache as "128kb capacity that can store 8
//! thousand 16bit values" (§V-B), i.e. activations and weights live as 16-bit
//! fixed-point words between DRAM and the converters. This module provides
//! the symmetric quantizer used by the electronic datapath models and the
//! functional photonic simulator (whose DAC/ADC resolutions are configurable
//! but default to the paper's converters).

use crate::tensor::Tensor;

/// Symmetric linear quantizer over `[-range, +range]` with `bits` of
/// resolution (one bit of which is the sign).
///
/// A 1-bit quantizer is all sign bit: its only level is 0, so it maps every
/// input to 0.0 and its worst in-range error is the whole `range`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u8,
    range: f32,
}

impl Quantizer {
    /// Creates a quantizer with the given bit width and full-scale range.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31, or if `range` is not a
    /// positive finite number — these are programming errors, not data
    /// errors.
    #[must_use]
    pub fn new(bits: u8, range: f32) -> Self {
        assert!(bits > 0 && bits < 32, "bits must be in 1..=31, got {bits}");
        assert!(
            range.is_finite() && range > 0.0,
            "range must be positive and finite, got {range}"
        );
        Quantizer { bits, range }
    }

    /// Bit width.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale range (values are clipped to `[-range, +range]`).
    #[must_use]
    pub fn range(&self) -> f32 {
        self.range
    }

    /// Number of positive quantization levels, `2^(bits-1) - 1`.
    #[must_use]
    pub fn max_level(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// The quantization step size (LSB), `range / max_level`; `range` for
    /// a 1-bit quantizer, which has no level but 0.
    #[must_use]
    pub fn step(&self) -> f32 {
        match self.max_level() {
            0 => self.range,
            max => self.range / max as f32,
        }
    }

    /// Quantizes a value to an integer code, clipping to full scale.
    #[must_use]
    pub fn encode(&self, value: f32) -> i32 {
        encode_with(value, self.step(), self.max_level() as f32)
    }

    /// Reconstructs a value from an integer code.
    #[must_use]
    pub fn decode(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Rounds a value to its nearest representable level (encode∘decode).
    #[must_use]
    pub fn quantize(&self, value: f32) -> f32 {
        self.decode(self.encode(value))
    }

    /// Quantizes every element of a tensor.
    #[must_use]
    pub fn quantize_tensor(&self, t: &Tensor) -> Tensor {
        let mut q = t.clone();
        self.quantize_slice(q.as_mut_slice());
        q
    }

    /// [`Quantizer::quantize`] over a slice in place, bit-identical to it
    /// per element; the step is derived once per call, not per value.
    pub fn quantize_slice(&self, values: &mut [f32]) {
        let (step, max) = (self.step(), self.max_level() as f32);
        for v in values {
            *v = encode_with(*v, step, max) as f32 * step;
        }
    }

    /// Worst-case absolute rounding error for in-range values: half an LSB,
    /// or the whole `range` for a 1-bit quantizer (everything maps to 0).
    #[must_use]
    pub fn max_error(&self) -> f32 {
        match self.max_level() {
            0 => self.range,
            _ => self.step() / 2.0,
        }
    }
}

/// The code of `value` on a grid of `step` clipped to `±max`: `value/step`
/// rounded half away from zero (as [`f32::round`]), then clamped; NaN
/// maps to 0.
///
/// Clamping first gives the same code, since the bounds are integers, and
/// keeps the value inside `i32`, where truncation and the fraction it
/// drops are exact, so rounding needs no `roundf` call and the loop in
/// [`Quantizer::quantize_slice`] vectorizes. The `as` cast sends NaN to 0.
#[inline]
fn encode_with(value: f32, step: f32, max: f32) -> i32 {
    let scaled = (value / step).clamp(-max, max);
    let whole = scaled as i32;
    let frac = scaled - whole as f32;
    whole + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_and_levels_for_int16() {
        let q = Quantizer::new(16, 1.0);
        assert_eq!(q.bits(), 16);
        assert_eq!(q.max_level(), 32767);
        assert!((q.step() - 1.0 / 32767.0).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_roundtrip_on_grid() {
        let q = Quantizer::new(8, 2.0);
        for code in [-127, -64, 0, 1, 100, 127] {
            let v = q.decode(code);
            assert_eq!(q.encode(v), code);
        }
    }

    #[test]
    fn quantize_is_idempotent() {
        let q = Quantizer::new(6, 1.0);
        for &v in &[0.013, -0.77, 0.5, 0.999, -1.0] {
            let once = q.quantize(v);
            assert_eq!(q.quantize(once), once);
        }
    }

    #[test]
    fn clipping_at_full_scale() {
        let q = Quantizer::new(8, 1.0);
        assert_eq!(q.quantize(5.0), q.decode(q.max_level()));
        assert_eq!(q.quantize(-5.0), q.decode(-q.max_level()));
    }

    #[test]
    fn nan_encodes_to_zero() {
        let q = Quantizer::new(8, 1.0);
        assert_eq!(q.encode(f32::NAN), 0);
    }

    #[test]
    fn in_range_error_bounded_by_half_lsb() {
        let q = Quantizer::new(10, 1.0);
        for i in 0..1000 {
            let v = -1.0 + 2.0 * (i as f32) / 999.0;
            let err = (v - q.quantize(v)).abs();
            assert!(
                err <= q.max_error() + 1e-7,
                "error {err} exceeds half-LSB {} at {v}",
                q.max_error()
            );
        }
    }

    #[test]
    fn encode_rounds_like_round_then_clamp() {
        // The textbook encode: round half away from zero, then clip.
        let oracle = |q: &Quantizer, v: f32| {
            let max = q.max_level() as f32;
            let scaled = (v / q.step()).round();
            if scaled.is_nan() {
                0
            } else {
                scaled.clamp(-max, max) as i32
            }
        };
        let mut values = vec![0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for k in -300..=300 {
            let half = k as f32 + 0.5;
            let (below, above) = (
                f32::from_bits(half.to_bits() - 1),
                f32::from_bits(half.to_bits() + 1),
            );
            values.extend([half, below, above, -half, -below, -above]);
        }
        let mut x = 0x9e37_79b9u32;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            values.push(f32::from_bits(x));
        }
        for bits in [1, 2, 3, 8, 12, 16, 24, 31] {
            for q in [Quantizer::new(bits, 1.0), Quantizer::new(bits, 300.0)] {
                for &v in &values {
                    assert_eq!(q.encode(v), oracle(&q, v), "{bits} bits, {v:e}");
                }
            }
        }
    }

    #[test]
    fn one_bit_maps_everything_to_zero() {
        let q = Quantizer::new(1, 2.0);
        assert_eq!(q.max_level(), 0);
        assert_eq!(q.step(), 2.0);
        assert_eq!(q.max_error(), 2.0);
        for v in [-5.0, -2.0, -0.3, 0.0, 0.7, 2.0, 9.0, f32::NAN] {
            assert_eq!(q.quantize(v).to_bits(), 0.0f32.to_bits(), "{v}");
        }
    }

    #[test]
    fn quantize_slice_matches_per_value_quantize() {
        for bits in [1, 2, 5, 8, 16] {
            let q = Quantizer::new(bits, 1.3);
            let values: Vec<f32> = (0..200).map(|i| -2.0 + 0.0203 * i as f32).collect();
            let mut fused = values.clone();
            fused.push(-0.0);
            fused.push(f32::NAN);
            let want: Vec<u32> = fused.iter().map(|&v| q.quantize(v).to_bits()).collect();
            q.quantize_slice(&mut fused);
            let got: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{bits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=31")]
    fn zero_bits_panics() {
        let _ = Quantizer::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn nonpositive_range_panics() {
        let _ = Quantizer::new(8, 0.0);
    }
}
