//! Whole-network containers with shape checking and functional forward pass.

use crate::geometry::ConvGeometry;
use crate::layer::{ConvLayer, FeatureShape, Layer, PoolLayer};
use crate::{CnnError, Result};

/// A feed-forward CNN: an input shape plus an ordered list of layers whose
/// shapes have been verified to chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    input: FeatureShape,
    layers: Vec<Layer>,
}

/// Builder for [`Network`]; validates shape chaining at [`NetworkBuilder::build`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: FeatureShape,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Starts a network taking `(channels, side, side)` volumes.
    #[must_use]
    pub fn new(name: impl Into<String>, channels: usize, side: usize) -> Self {
        NetworkBuilder {
            name: name.into(),
            input: FeatureShape::Volume { channels, side },
            layers: Vec::new(),
        }
    }

    /// Appends a convolution layer.
    #[must_use]
    pub fn conv(mut self, name: impl Into<String>, geometry: ConvGeometry) -> Self {
        self.layers
            .push(Layer::Conv(ConvLayer::new(name, geometry)));
        self
    }

    /// Appends a ReLU.
    #[must_use]
    pub fn relu(mut self) -> Self {
        self.layers.push(Layer::Relu);
        self
    }

    /// Appends a pooling layer.
    #[must_use]
    pub fn pool(mut self, layer: PoolLayer) -> Self {
        self.layers.push(Layer::Pool(layer));
        self
    }

    /// Appends an AlexNet-style LRN with the classic constants.
    #[must_use]
    pub fn lrn(mut self) -> Self {
        self.layers.push(Layer::LocalResponseNorm {
            radius: 2,
            alpha: 1e-4,
            beta: 0.75,
            bias: 2.0,
        });
        self
    }

    /// Appends a flatten layer.
    #[must_use]
    pub fn flatten(mut self) -> Self {
        self.layers.push(Layer::Flatten);
        self
    }

    /// Appends a fully connected layer.
    #[must_use]
    pub fn fully_connected(mut self, name: impl Into<String>, outputs: usize) -> Self {
        self.layers.push(Layer::FullyConnected {
            name: name.into(),
            outputs,
        });
        self
    }

    /// Validates that every layer's input shape matches its predecessor's
    /// output and returns the network.
    ///
    /// # Errors
    ///
    /// Propagates the first shape error encountered while chaining.
    pub fn build(self) -> Result<Network> {
        let mut shape = self.input;
        for (i, layer) in self.layers.iter().enumerate() {
            shape = layer.output_shape(shape).map_err(|e| match e {
                CnnError::ShapeMismatch { expected, actual } => CnnError::ShapeMismatch {
                    expected,
                    actual: format!("{actual} (at layer index {i}, kind {})", layer.kind()),
                },
                other => other,
            })?;
        }
        Ok(Network {
            name: self.name,
            input: self.input,
            layers: self.layers,
        })
    }
}

impl Network {
    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expected input shape.
    #[must_use]
    pub fn input_shape(&self) -> FeatureShape {
        self.input
    }

    /// All layers, in order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterator over just the convolution layers (the ones PCNNA runs).
    pub fn conv_layers(&self) -> impl Iterator<Item = &ConvLayer> {
        self.layers.iter().filter_map(|l| match l {
            Layer::Conv(c) => Some(c),
            _ => None,
        })
    }

    /// The shape produced after every layer, starting with the input shape
    /// (so the result has `layers().len() + 1` entries).
    ///
    /// # Errors
    ///
    /// Never fails for a network produced by [`NetworkBuilder::build`]; kept
    /// fallible for forward compatibility with externally constructed layers.
    pub fn shape_trace(&self) -> Result<Vec<FeatureShape>> {
        let mut shapes = Vec::with_capacity(self.layers.len() + 1);
        let mut shape = self.input;
        shapes.push(shape);
        for layer in &self.layers {
            shape = layer.output_shape(shape)?;
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Final output shape.
    ///
    /// # Errors
    ///
    /// See [`Network::shape_trace`].
    pub fn output_shape(&self) -> Result<FeatureShape> {
        self.layers
            .iter()
            .try_fold(self.input, |shape, layer| layer.output_shape(shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PoolKind;

    fn small_net() -> Network {
        NetworkBuilder::new("tiny", 1, 8)
            .conv("c1", ConvGeometry::new(8, 3, 1, 1, 1, 4).unwrap())
            .relu()
            .pool(PoolLayer::new(PoolKind::Max, 2, 2).unwrap())
            .conv("c2", ConvGeometry::new(4, 3, 1, 1, 4, 8).unwrap())
            .relu()
            .flatten()
            .fully_connected("fc", 10)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_chaining() {
        // conv expects 4 channels but pool output has 4? deliberately break:
        let bad = NetworkBuilder::new("bad", 1, 8)
            .conv("c1", ConvGeometry::new(8, 3, 1, 1, 1, 4).unwrap())
            .conv("c2", ConvGeometry::new(8, 3, 1, 1, 3, 4).unwrap())
            .build();
        assert!(bad.is_err());
    }

    #[test]
    fn shape_trace_has_layer_count_plus_one() {
        let net = small_net();
        let trace = net.shape_trace().unwrap();
        assert_eq!(trace.len(), net.layers().len() + 1);
        assert_eq!(
            trace[0],
            FeatureShape::Volume {
                channels: 1,
                side: 8
            }
        );
        assert_eq!(*trace.last().unwrap(), FeatureShape::Flat { len: 10 });
    }

    #[test]
    fn conv_layers_iterator_finds_all() {
        let net = small_net();
        let names: Vec<&str> = net.conv_layers().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["c1", "c2"]);
    }
}
