//! Task-level agreement metrics between two feature maps.
//!
//! RMSE answers "how far apart are the numbers"; these metrics answer the
//! question a CNN user actually cares about when the convolutions run on a
//! noisy analog substrate: *would the network still make the same
//! decisions?* Used by the accuracy tests to score photonic feature maps
//! and logits against the reference.

use crate::tensor::Tensor;
use crate::{CnnError, Result};

/// Index of the maximum element (first of ties); `None` for empty input.
#[must_use]
pub fn argmax(values: &[f32]) -> Option<usize> {
    // strictly-greater replacement keeps the first of ties
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) if v > bv => best = Some((i, v)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Per-position channel-argmax agreement between two `(c, h, w)` feature
/// maps: the fraction of spatial positions whose strongest channel matches.
///
/// # Errors
///
/// Returns [`CnnError::ShapeMismatch`] if the maps differ in shape or are
/// not 3-dimensional.
pub fn channel_argmax_agreement(a: &Tensor, b: &Tensor) -> Result<f64> {
    if a.shape() != b.shape() || a.ndim() != 3 {
        return Err(CnnError::ShapeMismatch {
            expected: format!("matching (c,h,w), got {:?}", a.shape()),
            actual: format!("{:?}", b.shape()),
        });
    }
    let (c, h, w) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let mut agree = 0usize;
    for y in 0..h {
        for x in 0..w {
            let col_a: Vec<f32> = (0..c).map(|ch| a.at3(ch, y, x)).collect();
            let col_b: Vec<f32> = (0..c).map(|ch| b.at3(ch, y, x)).collect();
            if argmax(&col_a) == argmax(&col_b) {
                agree += 1;
            }
        }
    }
    Ok(agree as f64 / (h * w) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        // first of ties
        assert_eq!(argmax(&[5.0, 5.0]), Some(0));
    }

    #[test]
    fn agreement_of_identical_maps_is_one() {
        let t = Tensor::from_vec(&[2, 2, 2], vec![1., 2., 3., 4., 0., 1., 5., 2.]).unwrap();
        assert_eq!(channel_argmax_agreement(&t, &t).unwrap(), 1.0);
    }

    #[test]
    fn agreement_detects_flips() {
        let a = Tensor::from_vec(&[2, 1, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(&[2, 1, 2], vec![0.0, 0.0, 1.0, 1.0]).unwrap();
        // position 0: a→ch0, b→ch1 (disagree); position 1: both ch1 (agree)
        assert!((channel_argmax_agreement(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn agreement_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2, 2]);
        let b = Tensor::zeros(&[2, 2, 3]);
        assert!(channel_argmax_agreement(&a, &b).is_err());
        let flat = Tensor::zeros(&[8]);
        assert!(channel_argmax_agreement(&flat, &flat).is_err());
    }
}
