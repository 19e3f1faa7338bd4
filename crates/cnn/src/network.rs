//! Whole-network containers with shape checking and functional forward pass.

use crate::geometry::ConvGeometry;
use crate::layer::{ConvLayer, FeatureShape, Layer, PoolLayer};
use crate::reference;
use crate::tensor::Tensor;
use crate::workload::Workload;
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

    /// Runs the reference forward pass.
    ///
    /// Convolution weights are generated deterministically from `seed` per
    /// conv/fc layer (the paper's experiments are weight-agnostic; see
    /// `workload`). Returns the activations after every layer.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `input` does not match the declared input
    /// shape.
    pub fn forward_reference(&self, input: &Tensor, seed: u64) -> Result<Vec<Tensor>> {
        match self.input {
            FeatureShape::Volume { channels, side } => {
                if input.shape() != [channels, side, side] {
                    return Err(CnnError::ShapeMismatch {
                        expected: format!("[{channels}, {side}, {side}]"),
                        actual: format!("{:?}", input.shape()),
                    });
                }
            }
            FeatureShape::Flat { len } => {
                if input.len() != len {
                    return Err(CnnError::ShapeMismatch {
                        expected: format!("flat[{len}]"),
                        actual: format!("{:?}", input.shape()),
                    });
                }
            }
        }
        let mut acts = Vec::with_capacity(self.layers.len());
        let mut current = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let layer_seed = seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            current = match layer {
                Layer::Conv(conv) => {
                    let wl = Workload::gaussian(&conv.geometry, layer_seed);
                    reference::conv2d_direct(&conv.geometry, &current, &wl.kernels)?
                }
                Layer::Pool(p) => match p.kind {
                    crate::layer::PoolKind::Max => {
                        reference::maxpool(&current, p.window, p.stride)?
                    }
                    crate::layer::PoolKind::Average => {
                        reference::avgpool(&current, p.window, p.stride)?
                    }
                },
                Layer::Relu => reference::relu(&current),
                Layer::LocalResponseNorm {
                    radius,
                    alpha,
                    beta,
                    bias,
                } => reference::local_response_norm(&current, *radius, *alpha, *beta, *bias)?,
                Layer::Flatten => {
                    let len = current.len();
                    current.reshape(&[len])?
                }
                Layer::FullyConnected { outputs, .. } => {
                    let inputs = current.len();
                    let g = ConvGeometry::new(1, 1, 0, 1, inputs, *outputs)?;
                    let wl = Workload::gaussian(&g, layer_seed);
                    let w = wl.kernels.reshape(&[*outputs, inputs])?;
                    let flat = current.reshape(&[inputs])?;
                    reference::fully_connected(&w, &flat)?
                }
            };
            acts.push(current.clone());
        }
        Ok(acts)
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

    #[test]
    fn forward_reference_produces_declared_shapes() {
        let net = small_net();
        let input = Tensor::full(&[1, 8, 8], 0.5);
        let acts = net.forward_reference(&input, 7).unwrap();
        assert_eq!(acts.len(), net.layers().len());
        let trace = net.shape_trace().unwrap();
        for (act, shape) in acts.iter().zip(trace.iter().skip(1)) {
            assert_eq!(act.len(), shape.len());
        }
    }

    #[test]
    fn forward_reference_is_deterministic() {
        let net = small_net();
        let input = Tensor::full(&[1, 8, 8], 0.25);
        let a = net.forward_reference(&input, 9).unwrap();
        let b = net.forward_reference(&input, 9).unwrap();
        assert_eq!(a.last(), b.last());
        let c = net.forward_reference(&input, 10).unwrap();
        assert_ne!(a.last(), c.last());
    }

    #[test]
    fn forward_rejects_wrong_input() {
        let net = small_net();
        let input = Tensor::zeros(&[3, 8, 8]);
        assert!(net.forward_reference(&input, 0).is_err());
    }

    #[test]
    fn relu_layers_clamp_in_forward() {
        let net = NetworkBuilder::new("r", 1, 4)
            .conv("c", ConvGeometry::new(4, 3, 1, 1, 1, 2).unwrap())
            .relu()
            .build()
            .unwrap();
        let input = Tensor::full(&[1, 4, 4], 1.0);
        let acts = net.forward_reference(&input, 3).unwrap();
        assert!(acts[1].as_slice().iter().all(|&v| v >= 0.0));
    }
}
