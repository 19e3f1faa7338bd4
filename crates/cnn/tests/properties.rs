//! Property-based tests of the CNN substrate's algebraic invariants.

use proptest::prelude::*;

use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::quantize::Quantizer;
use pcnna_cnn::reference;
use pcnna_cnn::tensor::Tensor;
use pcnna_cnn::workload::Workload;

fn geometries() -> impl Strategy<Value = ConvGeometry> {
    (
        3usize..16,
        1usize..6,
        0usize..3,
        1usize..4,
        1usize..4,
        1usize..6,
    )
        .prop_filter_map("kernel must fit padded input", |(n, m, p, s, nc, k)| {
            ConvGeometry::new(n, m, p, s, nc, k).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn geometry_identities(g in geometries()) {
        // Table I identities
        prop_assert_eq!(
            g.n_input(),
            (g.input_side() * g.input_side() * g.channels()) as u64
        );
        prop_assert_eq!(
            g.n_kernel(),
            (g.kernel_side() * g.kernel_side() * g.channels()) as u64
        );
        prop_assert_eq!(g.n_output(), g.n_locations() * g.kernels() as u64);
        prop_assert_eq!(g.macs(), g.n_locations() * g.weight_count());
        // output side from the closed form
        let o = (g.input_side() + 2 * g.padding() - g.kernel_side()) / g.stride() + 1;
        prop_assert_eq!(g.output_side(), o);
    }

    #[test]
    fn larger_stride_never_increases_output(g in geometries()) {
        if let Ok(g2) = g.with_stride(g.stride() + 1) {
            prop_assert!(g2.output_side() <= g.output_side());
            prop_assert!(g2.n_locations() <= g.n_locations());
        }
    }

    #[test]
    fn conv_is_linear_in_input(g in geometries(), seed in 0u64..500, alpha in 0.25f32..4.0) {
        let wl = Workload::gaussian(&g, seed);
        let out1 = reference::conv2d_direct(&g, &wl.input, &wl.kernels).unwrap();
        let scaled_in = wl.input.map(|v| alpha * v);
        let out2 = reference::conv2d_direct(&g, &scaled_in, &wl.kernels).unwrap();
        let expect = out1.map(|v| alpha * v);
        let tol = 1e-3 * (1.0 + expect.max_abs());
        prop_assert!(out2.approx_eq(&expect, tol));
    }

    #[test]
    fn conv_is_additive_in_kernels(g in geometries(), seed in 0u64..500) {
        let a = Workload::gaussian(&g, seed);
        let b = Workload::gaussian(&g, seed.wrapping_add(1));
        let sum_kernels = a.kernels.add(&b.kernels).unwrap();
        let out_sum = reference::conv2d_direct(&g, &a.input, &sum_kernels).unwrap();
        let out_a = reference::conv2d_direct(&g, &a.input, &a.kernels).unwrap();
        let out_b = reference::conv2d_direct(&g, &a.input, &b.kernels).unwrap();
        let expect = out_a.add(&out_b).unwrap();
        let tol = 1e-3 * (1.0 + expect.max_abs());
        prop_assert!(out_sum.approx_eq(&expect, tol));
    }

    #[test]
    fn receptive_field_length_is_nkernel(g in geometries(), seed in 0u64..100) {
        let wl = Workload::uniform(&g, seed);
        let o = g.output_side();
        let field = reference::receptive_field(&g, &wl.input, o / 2, o / 2).unwrap();
        prop_assert_eq!(field.len() as u64, g.n_kernel());
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(shape_seed in 0u64..100) {
        let g = ConvGeometry::new(8, 3, 0, 1, 2, 2).unwrap();
        let wl = Workload::gaussian(&g, shape_seed);
        let once = reference::relu(&wl.input);
        prop_assert!(once.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert_eq!(reference::relu(&once), once);
    }

    #[test]
    fn maxpool_dominates_avgpool(seed in 0u64..100) {
        let g = ConvGeometry::new(8, 3, 0, 1, 2, 2).unwrap();
        let wl = Workload::uniform(&g, seed);
        let mx = reference::maxpool(&wl.input, 2, 2).unwrap();
        let av = reference::avgpool(&wl.input, 2, 2).unwrap();
        for (m, a) in mx.as_slice().iter().zip(av.as_slice()) {
            prop_assert!(m >= a);
        }
    }

    #[test]
    fn quantizer_error_bounded_and_idempotent(
        bits in 1u8..16,
        range in 0.5f32..10.0,
        value in -12.0f32..12.0,
    ) {
        let q = Quantizer::new(bits, range);
        let once = q.quantize(value);
        prop_assert_eq!(q.quantize(once), once);
        if value.abs() <= range {
            prop_assert!((value - once).abs() <= q.max_error() + 1e-6);
        } else {
            // clipped to full scale
            prop_assert!(once.abs() <= range + q.max_error());
        }
    }

    #[test]
    fn tensor_add_sub_roundtrip(seed in 0u64..200) {
        let g = ConvGeometry::new(6, 3, 0, 1, 2, 2).unwrap();
        let a = Workload::gaussian(&g, seed).input;
        let b = Workload::gaussian(&g, seed.wrapping_add(7)).input;
        let roundtrip = a.add(&b).unwrap().sub(&b).unwrap();
        prop_assert!(roundtrip.approx_eq(&a, 1e-4 * (1.0 + a.max_abs())));
    }

    #[test]
    fn im2col_shape_is_consistent(g in geometries(), seed in 0u64..100) {
        let wl = Workload::uniform(&g, seed);
        let mat = reference::im2col(&g, &wl.input).unwrap();
        let o = g.output_side();
        prop_assert_eq!(mat.shape(), &[g.n_kernel() as usize, o * o]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_with_zero_kernels_is_zero(g in geometries(), seed in 0u64..50) {
        let wl = Workload::gaussian(&g, seed);
        let zeros = Tensor::zeros(&g.kernel_shape());
        let out = reference::conv2d_direct(&g, &wl.input, &zeros).unwrap();
        prop_assert_eq!(out.max_abs(), 0.0);
    }

    #[test]
    fn padding_only_adds_border_locations(g in geometries()) {
        if let Ok(padded) = ConvGeometry::new(
            g.input_side(), g.kernel_side(), g.padding() + 1, g.stride(),
            g.channels(), g.kernels(),
        ) {
            prop_assert!(padded.output_side() >= g.output_side());
        }
    }
}
