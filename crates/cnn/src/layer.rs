//! Typed CNN layer descriptions with shape inference.
//!
//! A [`Layer`] describes one stage of a network. Convolution layers carry a
//! full [`ConvGeometry`]; the remaining layer kinds carry just enough
//! structure to propagate feature-map shapes through the network and to run
//! the functional reference kernels.

use crate::geometry::ConvGeometry;
use crate::{CnnError, Result};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Average,
}

/// Pooling layer over square windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolLayer {
    /// Pooling flavour.
    pub kind: PoolKind,
    /// Window side length.
    pub window: usize,
    /// Stride between windows.
    pub stride: usize,
}

impl PoolLayer {
    /// Creates a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] if window or stride is zero.
    pub fn new(kind: PoolKind, window: usize, stride: usize) -> Result<Self> {
        if window == 0 || stride == 0 {
            return Err(CnnError::InvalidGeometry {
                reason: format!("pool window ({window}) and stride ({stride}) must be nonzero"),
            });
        }
        Ok(PoolLayer {
            kind,
            window,
            stride,
        })
    }

    /// Output side for a given input side.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] if the window exceeds the input.
    pub fn output_side(&self, input_side: usize) -> Result<usize> {
        if self.window > input_side {
            return Err(CnnError::InvalidGeometry {
                reason: format!(
                    "pool window {} exceeds input side {input_side}",
                    self.window
                ),
            });
        }
        Ok((input_side - self.window) / self.stride + 1)
    }
}

/// Convolution layer: geometry plus a human-readable name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvLayer {
    /// Layer name, e.g. `"conv1"`.
    pub name: String,
    /// Full Table-I geometry.
    pub geometry: ConvGeometry,
}

impl ConvLayer {
    /// Creates a named convolution layer.
    #[must_use]
    pub fn new(name: impl Into<String>, geometry: ConvGeometry) -> Self {
        ConvLayer {
            name: name.into(),
            geometry,
        }
    }
}

/// One stage of a CNN.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Layer {
    /// 2-D convolution (the layer kind PCNNA accelerates).
    Conv(ConvLayer),
    /// Pooling.
    Pool(PoolLayer),
    /// Rectified linear unit, elementwise.
    Relu,
    /// Local response normalisation (AlexNet-style), parameterised by
    /// `(radius, alpha, beta, bias)`.
    LocalResponseNorm {
        /// Half-width of the channel window.
        radius: usize,
        /// Scale parameter.
        alpha: f32,
        /// Exponent parameter.
        beta: f32,
        /// Additive bias.
        bias: f32,
    },
    /// Flattens `(c, h, w)` into a vector.
    Flatten,
    /// Fully connected layer with the given output width.
    FullyConnected {
        /// Name, e.g. `"fc6"`.
        name: String,
        /// Number of output neurons.
        outputs: usize,
    },
}

/// A feature-map shape flowing between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureShape {
    /// A `(channels, side, side)` volume.
    Volume {
        /// Channel count.
        channels: usize,
        /// Spatial side length.
        side: usize,
    },
    /// A flat vector of the given length.
    Flat {
        /// Vector length.
        len: usize,
    },
}

impl FeatureShape {
    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            FeatureShape::Volume { channels, side } => channels * side * side,
            FeatureShape::Flat { len } => len,
        }
    }

    /// Whether the shape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl core::fmt::Display for FeatureShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            FeatureShape::Volume { channels, side } => write!(f, "{side}x{side}x{channels}"),
            FeatureShape::Flat { len } => write!(f, "flat[{len}]"),
        }
    }
}

impl Layer {
    /// Short human-readable kind tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv(_) => "conv",
            Layer::Pool(p) => match p.kind {
                PoolKind::Max => "maxpool",
                PoolKind::Average => "avgpool",
            },
            Layer::Relu => "relu",
            Layer::LocalResponseNorm { .. } => "lrn",
            Layer::Flatten => "flatten",
            Layer::FullyConnected { .. } => "fc",
        }
    }

    /// Infers the output shape of this layer for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::ShapeMismatch`] when the input shape is
    /// incompatible with the layer (wrong channel count, flat input to a
    /// spatial layer, …) and [`CnnError::InvalidGeometry`] when the spatial
    /// math does not work out.
    pub fn output_shape(&self, input: FeatureShape) -> Result<FeatureShape> {
        match self {
            Layer::Conv(conv) => match input {
                FeatureShape::Volume { channels, side } => {
                    let g = &conv.geometry;
                    if channels != g.channels() || side != g.input_side() {
                        return Err(CnnError::ShapeMismatch {
                            expected: format!(
                                "{}x{}x{}",
                                g.input_side(),
                                g.input_side(),
                                g.channels()
                            ),
                            actual: input.to_string(),
                        });
                    }
                    Ok(FeatureShape::Volume {
                        channels: g.kernels(),
                        side: g.output_side(),
                    })
                }
                FeatureShape::Flat { .. } => Err(CnnError::ShapeMismatch {
                    expected: "volume input for conv".to_owned(),
                    actual: input.to_string(),
                }),
            },
            Layer::Pool(p) => match input {
                FeatureShape::Volume { channels, side } => Ok(FeatureShape::Volume {
                    channels,
                    side: p.output_side(side)?,
                }),
                FeatureShape::Flat { .. } => Err(CnnError::ShapeMismatch {
                    expected: "volume input for pool".to_owned(),
                    actual: input.to_string(),
                }),
            },
            Layer::Relu | Layer::LocalResponseNorm { .. } => Ok(input),
            Layer::Flatten => Ok(FeatureShape::Flat { len: input.len() }),
            Layer::FullyConnected { outputs, .. } => Ok(FeatureShape::Flat { len: *outputs }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol(channels: usize, side: usize) -> FeatureShape {
        FeatureShape::Volume { channels, side }
    }

    #[test]
    fn pool_layer_validates() {
        assert!(PoolLayer::new(PoolKind::Max, 0, 1).is_err());
        assert!(PoolLayer::new(PoolKind::Max, 2, 0).is_err());
        let p = PoolLayer::new(PoolKind::Max, 3, 2).unwrap();
        assert_eq!(p.output_side(55).unwrap(), 27);
        assert!(p.output_side(2).is_err());
    }

    #[test]
    fn conv_shape_inference_happy_path() {
        let g = ConvGeometry::new(224, 11, 2, 4, 3, 96).unwrap();
        let layer = Layer::Conv(ConvLayer::new("conv1", g));
        let out = layer.output_shape(vol(3, 224)).unwrap();
        assert_eq!(out, vol(96, 55));
    }

    #[test]
    fn conv_rejects_wrong_input() {
        let g = ConvGeometry::new(16, 3, 0, 1, 4, 8).unwrap();
        let layer = Layer::Conv(ConvLayer::new("c", g));
        assert!(layer.output_shape(vol(3, 16)).is_err());
        assert!(layer.output_shape(vol(4, 15)).is_err());
        assert!(layer.output_shape(FeatureShape::Flat { len: 100 }).is_err());
    }

    #[test]
    fn relu_and_lrn_preserve_shape() {
        let shape = vol(96, 55);
        assert_eq!(Layer::Relu.output_shape(shape).unwrap(), shape);
        let lrn = Layer::LocalResponseNorm {
            radius: 2,
            alpha: 1e-4,
            beta: 0.75,
            bias: 2.0,
        };
        assert_eq!(lrn.output_shape(shape).unwrap(), shape);
    }

    #[test]
    fn flatten_and_fc_shapes() {
        let out = Layer::Flatten.output_shape(vol(256, 6)).unwrap();
        assert_eq!(out, FeatureShape::Flat { len: 9216 });
        let fc = Layer::FullyConnected {
            name: "fc6".to_owned(),
            outputs: 4096,
        };
        assert_eq!(
            fc.output_shape(out).unwrap(),
            FeatureShape::Flat { len: 4096 }
        );
    }

    #[test]
    fn pool_rejects_flat_input() {
        let p = Layer::Pool(PoolLayer::new(PoolKind::Max, 2, 2).unwrap());
        assert!(p.output_shape(FeatureShape::Flat { len: 8 }).is_err());
    }

    #[test]
    fn feature_shape_len_and_display() {
        assert_eq!(vol(3, 4).len(), 48);
        assert_eq!(FeatureShape::Flat { len: 7 }.len(), 7);
        assert_eq!(vol(3, 16).to_string(), "16x16x3");
        assert!(!vol(1, 1).is_empty());
    }

    #[test]
    fn layer_kind_tags() {
        assert_eq!(Layer::Relu.kind(), "relu");
        assert_eq!(
            Layer::Pool(PoolLayer::new(PoolKind::Average, 2, 2).unwrap()).kind(),
            "avgpool"
        );
        assert_eq!(Layer::Flatten.kind(), "flatten");
    }
}
