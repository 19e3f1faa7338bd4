//! MAC / weight / activation accounting.
//!
//! The paper motivates PCNNA with the observation that "convolution
//! operations account for roughly 90% of the total operations in a CNN"
//! (§I, citing Cong & Xiao). This module quantifies exactly that for any
//! [`Network`], and provides the per-layer operation counts the baseline
//! accelerator models consume.

use crate::geometry::ConvGeometry;
use crate::layer::Layer;
use crate::network::Network;
use crate::Result;

/// Operation/storage statistics for a single layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerStats {
    /// Layer name or kind tag.
    pub name: String,
    /// Layer kind tag (`"conv"`, `"fc"`, …).
    pub kind: String,
    /// Multiply-accumulate operations.
    pub macs: u64,
    /// Number of weight parameters.
    pub weights: u64,
    /// Number of output activations produced.
    pub activations: u64,
}

/// Statistics for one convolution layer.
#[must_use]
pub fn conv_stats(name: &str, g: &ConvGeometry) -> LayerStats {
    LayerStats {
        name: name.to_owned(),
        kind: "conv".to_owned(),
        macs: g.macs(),
        weights: g.weight_count(),
        activations: g.n_output(),
    }
}

/// Whole-network statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Network name.
    pub network: String,
    /// Per-layer statistics, in network order.
    pub layers: Vec<LayerStats>,
}

impl NetworkStats {
    /// Total MACs across all layers.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total MACs in convolution layers only.
    #[must_use]
    pub fn conv_macs(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind == "conv")
            .map(|l| l.macs)
            .sum()
    }

    /// Fraction of all MACs spent in convolutions (the paper's ~90% claim).
    #[must_use]
    pub fn conv_mac_fraction(&self) -> f64 {
        let total = self.total_macs();
        if total == 0 {
            0.0
        } else {
            self.conv_macs() as f64 / total as f64
        }
    }
}

/// Computes statistics for every layer of a network.
///
/// # Errors
///
/// Propagates shape-tracing errors (impossible for builder-validated
/// networks).
pub fn network_stats(net: &Network) -> Result<NetworkStats> {
    let trace = net.shape_trace()?;
    let mut layers = Vec::with_capacity(net.layers().len());
    for (i, layer) in net.layers().iter().enumerate() {
        let input = trace[i];
        let output = trace[i + 1];
        let stats = match layer {
            Layer::Conv(c) => conv_stats(&c.name, &c.geometry),
            Layer::FullyConnected { name, outputs } => {
                let inputs = input.len() as u64;
                LayerStats {
                    name: name.clone(),
                    kind: "fc".to_owned(),
                    macs: inputs * *outputs as u64,
                    weights: inputs * *outputs as u64,
                    activations: *outputs as u64,
                }
            }
            // Pooling does comparisons/adds, not MACs; all these layer
            // kinds are counted as zero MACs and zero weights.
            Layer::Pool(_) | Layer::Relu | Layer::LocalResponseNorm { .. } | Layer::Flatten => {
                LayerStats {
                    name: format!("{}{}", layer.kind(), i),
                    kind: layer.kind().to_owned(),
                    macs: 0,
                    weights: 0,
                    activations: output.len() as u64,
                }
            }
        };
        layers.push(stats);
    }
    Ok(NetworkStats {
        network: net.name().to_owned(),
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::FeatureShape;
    use crate::zoo;

    #[test]
    fn alexnet_conv_macs_match_known_values() {
        // Classic AlexNet conv MAC counts (dense, 224 input, pad 2):
        // conv1: 55*55*96*363      = 105_415_200
        // conv2: 27*27*256*2400    = 447_897_600
        // conv3: 13*13*384*2304    = 149_520_384
        // conv4: 13*13*384*3456    = 224_280_576
        // conv5: 13*13*256*3456    = 149_520_384
        let layers = zoo::alexnet_conv_layers();
        let macs: Vec<u64> = layers.iter().map(|(_, g)| g.macs()).collect();
        assert_eq!(
            macs,
            vec![
                105_415_200,
                447_897_600,
                149_520_384,
                224_280_576,
                149_520_384
            ]
        );
    }

    #[test]
    fn conv4_has_most_weights_in_alexnet() {
        // §V-A: "the 4th layer of AlexNet ... accounts for the most number
        // of kernel weights".
        let layers = zoo::alexnet_conv_layers();
        let weights: Vec<u64> = layers.iter().map(|(_, g)| g.weight_count()).collect();
        let max = *weights.iter().max().unwrap();
        assert_eq!(weights[3], max);
        assert_eq!(weights[3], 384 * 3 * 3 * 384); // 1_327_104
    }

    #[test]
    fn alexnet_conv_fraction_is_about_90_percent() {
        // The §I claim this reproduction encodes: convs dominate MACs.
        let stats = network_stats(&zoo::alexnet()).unwrap();
        let frac = stats.conv_mac_fraction();
        assert!(
            (0.90..=0.96).contains(&frac),
            "conv MAC fraction {frac} outside the paper's ~90% ballpark"
        );
    }

    #[test]
    fn fc_layers_dominate_weights_in_alexnet() {
        let stats = network_stats(&zoo::alexnet()).unwrap();
        let fc_weights: u64 = stats
            .layers
            .iter()
            .filter(|l| l.kind == "fc")
            .map(|l| l.weights)
            .sum();
        let total: u64 = stats.layers.iter().map(|l| l.weights).sum();
        assert!(fc_weights > total / 2);
    }

    #[test]
    fn pool_and_relu_contribute_no_macs() {
        let stats = network_stats(&zoo::lenet5()).unwrap();
        for l in &stats.layers {
            if l.kind != "conv" && l.kind != "fc" {
                assert_eq!(l.macs, 0, "{} should have 0 MACs", l.name);
            }
        }
    }

    #[test]
    fn activations_match_shape_trace() {
        let net = zoo::cifar_small();
        let stats = network_stats(&net).unwrap();
        let trace = net.shape_trace().unwrap();
        for (l, s) in stats.layers.iter().zip(trace.iter().skip(1)) {
            assert_eq!(l.activations, s.len() as u64);
        }
    }

    #[test]
    fn unused_shape_variable_lint_helper() {
        // FeatureShape is part of the public input of this module through
        // network traces; sanity check Flat length accounting.
        assert_eq!(FeatureShape::Flat { len: 12 }.len(), 12);
    }
}
