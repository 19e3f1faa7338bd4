//! Model zoo: the networks used throughout the evaluation.
//!
//! [`alexnet`] is the paper's evaluation network, encoded exactly as the
//! paper parameterises it: a 224×224×3 input, five convolution layers, and
//! **no channel grouping** — the paper's own numbers (conv1 unfiltered ring
//! count of ~5.2 B, eq. (8)'s `nc = 384` for the largest layer) treat
//! AlexNet's grouped convolutions as dense. `tests/claims.rs` checks both
//! numbers.
//!
//! The other networks extend the evaluation beyond the paper (stretch goals):
//! LeNet-5 for fast functional tests, VGG-16 for a deeper sweep, and a small
//! CIFAR-style CNN sized so the full photonic functional simulation runs in
//! seconds.

use crate::geometry::ConvGeometry;
use crate::layer::{PoolKind, PoolLayer};
use crate::network::{Network, NetworkBuilder};

// The zoo's layer tables are literals and a unit test below builds each
// one, so these three checked constructors cannot fail on them. They hold
// the only `expect`s the fixed shapes need.

/// A zoo conv geometry from its literal `(n, m, p, s, nc, k)`.
#[allow(clippy::expect_used)] // literal shapes, built by the zoo tests
fn conv(n: usize, m: usize, p: usize, s: usize, nc: usize, k: usize) -> ConvGeometry {
    ConvGeometry::new(n, m, p, s, nc, k).expect("zoo geometry is valid")
}

/// A zoo pooling layer from its literal window and stride.
#[allow(clippy::expect_used)] // literal shapes, built by the zoo tests
fn pool(kind: PoolKind, window: usize, stride: usize) -> PoolLayer {
    PoolLayer::new(kind, window, stride).expect("zoo pool is valid")
}

/// A zoo network, shape-checked.
#[allow(clippy::expect_used)] // literal shapes, built by the zoo tests
fn build(net: NetworkBuilder) -> Network {
    net.build().expect("zoo shapes chain by construction")
}

/// Names and geometries of AlexNet's five convolution layers as the paper
/// parameterises them (dense, 224×224 input, pad 2 on conv1).
///
/// | layer | n   | m  | p | s | nc  | K   |
/// |-------|-----|----|---|---|-----|-----|
/// | conv1 | 224 | 11 | 2 | 4 | 3   | 96  |
/// | conv2 | 27  | 5  | 2 | 1 | 96  | 256 |
/// | conv3 | 13  | 3  | 1 | 1 | 256 | 384 |
/// | conv4 | 13  | 3  | 1 | 1 | 384 | 384 |
/// | conv5 | 13  | 3  | 1 | 1 | 384 | 256 |
#[must_use]
pub fn alexnet_conv_layers() -> Vec<(&'static str, ConvGeometry)> {
    vec![
        ("conv1", conv(224, 11, 2, 4, 3, 96)),
        ("conv2", conv(27, 5, 2, 1, 96, 256)),
        ("conv3", conv(13, 3, 1, 1, 256, 384)),
        ("conv4", conv(13, 3, 1, 1, 384, 384)),
        ("conv5", conv(13, 3, 1, 1, 384, 256)),
    ]
}

/// Full AlexNet (conv + pool + LRN + fc stack), shape-checked.
#[must_use]
pub fn alexnet() -> Network {
    let convs = alexnet_conv_layers();
    build(
        NetworkBuilder::new("alexnet", 3, 224)
            .conv(convs[0].0, convs[0].1)
            .relu()
            .lrn()
            .pool(pool(PoolKind::Max, 3, 2))
            .conv(convs[1].0, convs[1].1)
            .relu()
            .lrn()
            .pool(pool(PoolKind::Max, 3, 2))
            .conv(convs[2].0, convs[2].1)
            .relu()
            .conv(convs[3].0, convs[3].1)
            .relu()
            .conv(convs[4].0, convs[4].1)
            .relu()
            .pool(pool(PoolKind::Max, 3, 2))
            .flatten()
            .fully_connected("fc6", 4096)
            .relu()
            .fully_connected("fc7", 4096)
            .relu()
            .fully_connected("fc8", 1000),
    )
}

/// LeNet-5 on 28×28 single-channel inputs (padded conv1) — small enough for
/// end-to-end functional photonic simulation in unit tests.
#[must_use]
pub fn lenet5() -> Network {
    build(
        NetworkBuilder::new("lenet5", 1, 28)
            .conv("c1", conv(28, 5, 2, 1, 1, 6))
            .relu()
            .pool(pool(PoolKind::Average, 2, 2))
            .conv("c3", conv(14, 5, 0, 1, 6, 16))
            .relu()
            .pool(pool(PoolKind::Average, 2, 2))
            .conv("c5", conv(5, 5, 0, 1, 16, 120))
            .relu()
            .flatten()
            .fully_connected("f6", 84)
            .relu()
            .fully_connected("output", 10),
    )
}

/// The thirteen convolution layers of VGG-16 (224×224×3 input).
#[must_use]
pub fn vgg16_conv_layers() -> Vec<(&'static str, ConvGeometry)> {
    let spec: [(&'static str, usize, usize, usize); 13] = [
        // (name, input side, input channels, kernels)
        ("conv1_1", 224, 3, 64),
        ("conv1_2", 224, 64, 64),
        ("conv2_1", 112, 64, 128),
        ("conv2_2", 112, 128, 128),
        ("conv3_1", 56, 128, 256),
        ("conv3_2", 56, 256, 256),
        ("conv3_3", 56, 256, 256),
        ("conv4_1", 28, 256, 512),
        ("conv4_2", 28, 512, 512),
        ("conv4_3", 28, 512, 512),
        ("conv5_1", 14, 512, 512),
        ("conv5_2", 14, 512, 512),
        ("conv5_3", 14, 512, 512),
    ];
    spec.iter()
        .map(|&(name, n, nc, k)| (name, conv(n, 3, 1, 1, nc, k)))
        .collect()
}

/// Full VGG-16 network (conv stacks + pools + fcs), shape-checked.
#[must_use]
pub fn vgg16() -> Network {
    let c = vgg16_conv_layers();
    build(
        NetworkBuilder::new("vgg16", 3, 224)
            .conv(c[0].0, c[0].1)
            .relu()
            .conv(c[1].0, c[1].1)
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv(c[2].0, c[2].1)
            .relu()
            .conv(c[3].0, c[3].1)
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv(c[4].0, c[4].1)
            .relu()
            .conv(c[5].0, c[5].1)
            .relu()
            .conv(c[6].0, c[6].1)
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv(c[7].0, c[7].1)
            .relu()
            .conv(c[8].0, c[8].1)
            .relu()
            .conv(c[9].0, c[9].1)
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv(c[10].0, c[10].1)
            .relu()
            .conv(c[11].0, c[11].1)
            .relu()
            .conv(c[12].0, c[12].1)
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .flatten()
            .fully_connected("fc6", 4096)
            .relu()
            .fully_connected("fc7", 4096)
            .relu()
            .fully_connected("fc8", 1000),
    )
}

/// The convolution layers of GoogLeNet's stem and the first inception
/// module (3a), flattened (the paper cites Szegedy et al. \[13\] as a
/// motivating deep CNN). Inception branches appear as independent conv
/// layers over the same input — exactly how PCNNA would schedule them.
#[must_use]
pub fn googlenet_stem_conv_layers() -> Vec<(&'static str, ConvGeometry)> {
    vec![
        ("conv1/7x7_s2", conv(224, 7, 3, 2, 3, 64)),
        ("conv2/3x3_reduce", conv(56, 1, 0, 1, 64, 64)),
        ("conv2/3x3", conv(56, 3, 1, 1, 64, 192)),
        ("3a/1x1", conv(28, 1, 0, 1, 192, 64)),
        ("3a/3x3_reduce", conv(28, 1, 0, 1, 192, 96)),
        ("3a/3x3", conv(28, 3, 1, 1, 96, 128)),
        ("3a/5x5_reduce", conv(28, 1, 0, 1, 192, 16)),
        ("3a/5x5", conv(28, 5, 2, 1, 16, 32)),
        ("3a/pool_proj", conv(28, 1, 0, 1, 192, 32)),
    ]
}

/// The convolution layers of ResNet-18 (the paper cites He et al. \[1\]).
/// Identity shortcuts carry no weights; the 1×1 projection shortcuts are
/// included as conv layers.
#[must_use]
pub fn resnet18_conv_layers() -> Vec<(&'static str, ConvGeometry)> {
    let mut layers: Vec<(&'static str, ConvGeometry)> = vec![("conv1", conv(224, 7, 3, 2, 3, 64))];
    // (name, input side, input channels, kernels, stride) for each 3x3 conv
    let blocks: [(&'static str, usize, usize, usize, usize); 16] = [
        ("layer1.0.conv1", 56, 64, 64, 1),
        ("layer1.0.conv2", 56, 64, 64, 1),
        ("layer1.1.conv1", 56, 64, 64, 1),
        ("layer1.1.conv2", 56, 64, 64, 1),
        ("layer2.0.conv1", 56, 64, 128, 2),
        ("layer2.0.conv2", 28, 128, 128, 1),
        ("layer2.1.conv1", 28, 128, 128, 1),
        ("layer2.1.conv2", 28, 128, 128, 1),
        ("layer3.0.conv1", 28, 128, 256, 2),
        ("layer3.0.conv2", 14, 256, 256, 1),
        ("layer3.1.conv1", 14, 256, 256, 1),
        ("layer3.1.conv2", 14, 256, 256, 1),
        ("layer4.0.conv1", 14, 256, 512, 2),
        ("layer4.0.conv2", 7, 512, 512, 1),
        ("layer4.1.conv1", 7, 512, 512, 1),
        ("layer4.1.conv2", 7, 512, 512, 1),
    ];
    for &(name, n, nc, k, s) in &blocks {
        layers.push((name, conv(n, 3, 1, s, nc, k)));
    }
    // Projection shortcuts (1x1, stride 2) at each stage transition.
    layers.push(("layer2.0.downsample", conv(56, 1, 0, 2, 64, 128)));
    layers.push(("layer3.0.downsample", conv(28, 1, 0, 2, 128, 256)));
    layers.push(("layer4.0.downsample", conv(14, 1, 0, 2, 256, 512)));
    layers
}

/// A small CIFAR-style CNN (32×32×3) whose every conv layer is cheap enough
/// for full photonic functional simulation with noise.
#[must_use]
pub fn cifar_small() -> Network {
    build(
        NetworkBuilder::new("cifar_small", 3, 32)
            .conv("c1", conv(32, 3, 1, 1, 3, 8))
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv("c2", conv(16, 3, 1, 1, 8, 16))
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .conv("c3", conv(8, 3, 1, 1, 16, 16))
            .relu()
            .pool(pool(PoolKind::Max, 2, 2))
            .flatten()
            .fully_connected("fc", 10),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_conv1_matches_paper_numbers() {
        let layers = alexnet_conv_layers();
        let (name, conv1) = layers[0];
        assert_eq!(name, "conv1");
        assert_eq!(conv1.n_input(), 150_528);
        assert_eq!(conv1.n_kernel(), 363);
        assert_eq!(conv1.output_side(), 55);
        // §V-A: ~5.2 billion rings unfiltered
        let unfiltered = conv1.n_input() * conv1.kernels() as u64 * conv1.n_kernel();
        assert_eq!(unfiltered, 5_245_599_744);
        // §V-A: ~35 thousand rings filtered
        assert_eq!(conv1.weight_count(), 34_848);
    }

    #[test]
    fn alexnet_conv4_is_largest_by_eq8_numerator() {
        // eq. (8): the largest layer has nc*m*s = 384*3*1 = 1152.
        let layers = alexnet_conv_layers();
        let max = layers
            .iter()
            .map(|(_, g)| g.updated_inputs_per_location())
            .max()
            .unwrap();
        assert_eq!(max, 1152);
        assert_eq!(layers[3].1.updated_inputs_per_location(), 1152);
    }

    #[test]
    fn alexnet_spatial_chain() {
        // 224 -(conv1,s4)-> 55 -(pool)-> 27 -(conv2,p2)-> 27 -(pool)-> 13
        let layers = alexnet_conv_layers();
        assert_eq!(layers[0].1.output_side(), 55);
        assert_eq!(layers[1].1.input_side(), 27);
        assert_eq!(layers[1].1.output_side(), 27);
        for (_, g) in &layers[2..] {
            assert_eq!(g.input_side(), 13);
            assert_eq!(g.output_side(), 13);
        }
    }

    #[test]
    fn alexnet_full_network_builds_and_ends_at_1000() {
        let net = alexnet();
        assert_eq!(
            net.output_shape().unwrap(),
            crate::layer::FeatureShape::Flat { len: 1000 }
        );
        assert_eq!(net.conv_layers().count(), 5);
    }

    #[test]
    fn lenet5_builds() {
        let net = lenet5();
        assert_eq!(
            net.output_shape().unwrap(),
            crate::layer::FeatureShape::Flat { len: 10 }
        );
        assert_eq!(net.conv_layers().count(), 3);
    }

    #[test]
    fn vgg16_builds_with_13_convs() {
        let net = vgg16();
        assert_eq!(net.conv_layers().count(), 13);
        assert_eq!(
            net.output_shape().unwrap(),
            crate::layer::FeatureShape::Flat { len: 1000 }
        );
    }

    #[test]
    fn cifar_small_builds() {
        let net = cifar_small();
        assert_eq!(net.conv_layers().count(), 3);
        assert_eq!(
            net.output_shape().unwrap(),
            crate::layer::FeatureShape::Flat { len: 10 }
        );
    }

    #[test]
    fn googlenet_stem_shapes_chain() {
        let layers = googlenet_stem_conv_layers();
        assert_eq!(layers.len(), 9);
        // conv1 7x7/2 on 224 → 112
        assert_eq!(layers[0].1.output_side(), 112);
        // all 3a branches consume the 28x28x192 tensor
        for (name, g) in &layers[3..] {
            if name.starts_with("3a/") && name.contains("reduce") || *name == "3a/1x1" {
                assert_eq!(g.channels(), 192, "{name}");
            }
            assert_eq!(g.output_side(), 28, "{name}");
        }
    }

    #[test]
    fn resnet18_has_20_conv_layers() {
        let layers = resnet18_conv_layers();
        assert_eq!(layers.len(), 1 + 16 + 3);
        // stage transitions halve the spatial side
        let g = layers
            .iter()
            .find(|(n, _)| *n == "layer3.0.conv1")
            .unwrap()
            .1;
        assert_eq!(g.output_side(), 14);
        // total ResNet-18 conv MACs ≈ 1.8 GMACs
        let macs: u64 = layers.iter().map(|(_, g)| g.macs()).sum();
        assert!((1.6e9..2.0e9).contains(&(macs as f64)), "{macs}");
    }

    #[test]
    fn vgg16_layers_all_3x3_s1_p1() {
        for (_, g) in vgg16_conv_layers() {
            assert_eq!(g.kernel_side(), 3);
            assert_eq!(g.stride(), 1);
            assert_eq!(g.padding(), 1);
            assert_eq!(g.output_side(), g.input_side());
        }
    }
}
