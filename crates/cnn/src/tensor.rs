//! A minimal dense, row-major, `f32` tensor.
//!
//! The PCNNA models only need a handful of tensor operations (indexing,
//! elementwise maps, comparisons and simple reductions), so rather than pull
//! in an array library we provide exactly those, fully tested.

use crate::{CnnError, Result};

/// Dense row-major tensor of `f32` values.
///
/// The last axis is contiguous. Feature maps use `(channels, height, width)`
/// order; kernel stacks use `(k, channels, height, width)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use pcnna_cnn::tensor::Tensor;
    /// let t = Tensor::zeros(&[3, 4, 4]);
    /// assert_eq!(t.len(), 48);
    /// ```
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant value.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from raw data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(CnnError::ShapeMismatch {
                expected: format!("{expected} elements for shape {shape:?}"),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of axes.
    #[must_use]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its data.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Computes the flat offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::IndexOutOfBounds`] if the index rank or any
    /// component is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(CnnError::IndexOutOfBounds {
                index: format!("{index:?}"),
                shape: format!("{:?}", self.shape),
            });
        }
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            if ix >= dim {
                return Err(CnnError::IndexOutOfBounds {
                    index: format!("{index:?} (axis {i})"),
                    shape: format!("{:?}", self.shape),
                });
            }
            off = off * dim + ix;
        }
        Ok(off)
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::IndexOutOfBounds`] on a bad index.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::IndexOutOfBounds`] on a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Fast unchecked-ish accessor for `(c, y, x)` tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or the index is out of range.
    #[must_use]
    pub fn at3(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3, "at3 requires a 3-D tensor");
        let (h, w) = (self.shape[1], self.shape[2]);
        self.data[(c * h + y) * w + x]
    }

    /// Mutable counterpart of [`Tensor::at3`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 3-dimensional or the index is out of range.
    pub fn at3_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3, "at3_mut requires a 3-D tensor");
        let (h, w) = (self.shape[1], self.shape[2]);
        &mut self.data[(c * h + y) * w + x]
    }

    /// Fast accessor for `(k, c, y, x)` tensors (kernel stacks).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-dimensional or the index is out of range.
    #[must_use]
    pub fn at4(&self, k: usize, c: usize, y: usize, x: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4, "at4 requires a 4-D tensor");
        let (nc, h, w) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((k * nc + c) * h + y) * w + x]
    }

    /// Applies a function to every element, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise sum with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(CnnError::ShapeMismatch {
                expected: format!("{:?}", self.shape),
                actual: format!("{:?}", other.shape),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Maximum absolute value over all elements (0 for empty tensors).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |acc, &v| acc.max(v.abs()))
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Root-mean-square difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::ShapeMismatch`] if shapes differ.
    pub fn rmse(&self, other: &Tensor) -> Result<f32> {
        let diff = self.sub(other)?;
        let ss: f32 = diff.data.iter().map(|v| v * v).sum();
        Ok((ss / diff.data.len().max(1) as f32).sqrt())
    }

    /// Whether every element is within `tol` of the corresponding element of
    /// `other`. Shapes must match, otherwise returns `false`.
    #[must_use]
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_len_and_values() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(&[2, 2], vec![1.0; 5]),
            Err(CnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn offset_is_row_major() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|v| v as f32).collect()).unwrap();
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[0, 2]).unwrap(), 2.0);
        assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
    }

    #[test]
    fn get_rejects_bad_rank_and_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(matches!(
            t.get(&[0]),
            Err(CnnError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            t.get(&[0, 2]),
            Err(CnnError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn set_then_get_roundtrip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
    }

    #[test]
    fn at3_matches_get() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 9.0).unwrap();
        assert_eq!(t.at3(1, 2, 3), 9.0);
        *t.at3_mut(0, 1, 2) = 4.0;
        assert_eq!(t.get(&[0, 1, 2]).unwrap(), 4.0);
    }

    #[test]
    fn at4_matches_get() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        t.set(&[1, 2, 3, 4], 11.0).unwrap();
        assert_eq!(t.at4(1, 2, 3, 4), 11.0);
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let t = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let mapped = t.map(f32::abs);
        let mut inplace = t.clone();
        inplace.map_inplace(f32::abs);
        assert_eq!(mapped, inplace);
        assert_eq!(mapped.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn add_sub_shapes_must_match() {
        let a = Tensor::full(&[2, 2], 3.0);
        let b = Tensor::full(&[2, 2], 1.0);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0; 4]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[2.0; 4]);
        let c = Tensor::zeros(&[4]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
    }

    #[test]
    fn rmse_zero_for_identical() {
        let t = Tensor::full(&[3, 3], 2.5);
        assert_eq!(t.rmse(&t).unwrap(), 0.0);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Tensor::full(&[2], 1.0);
        let b = Tensor::full(&[2], 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
        let c = Tensor::full(&[3], 1.0);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn empty_tensor_behaves() {
        let t = Tensor::zeros(&[0]);
        assert!(t.is_empty());
        assert_eq!(t.max_abs(), 0.0);
        assert_eq!(t.mean(), 0.0);
    }
}
