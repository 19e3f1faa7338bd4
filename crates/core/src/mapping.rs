//! Ring allocation and area: the paper's §V-A (equations (4)–(5), Figure 5).
//!
//! The core optimization of PCNNA is *receptive-field filtering*: instead of
//! assigning a wavelength (and a demultiplexing ring in every bank) to every
//! input feature-map value, only the `Nkernel` values under the kernel
//! window get carriers. The ring count collapses from
//! `Ninput · K · Nkernel` (eq. 4) to `K · Nkernel` (eq. 5) — for AlexNet
//! conv1, from ~5.2 billion to ~35 thousand, a >150 000× saving.

use crate::config::AllocationPolicy;
use pcnna_cnn::geometry::ConvGeometry;

/// Ring/wavelength requirements of one conv layer under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingAllocation {
    /// The policy that produced this allocation.
    pub policy: AllocationPolicy,
    /// Total number of weighting microrings.
    pub rings: u64,
    /// Distinct WDM carriers required on the broadcast bus.
    pub wavelengths: u64,
    /// Rings per kernel bank.
    pub rings_per_bank: u64,
    /// Number of banks (= kernels weighted in parallel).
    pub banks: u64,
    /// Optical passes per kernel location (1, or `nc` when
    /// channel-sequential).
    pub passes_per_location: u64,
}

impl RingAllocation {
    /// Computes the allocation for a layer under a policy.
    #[must_use]
    pub fn for_layer(g: &ConvGeometry, policy: AllocationPolicy) -> Self {
        let k = g.kernels() as u64;
        match policy {
            AllocationPolicy::Unfiltered => RingAllocation {
                policy,
                // eq. (4): Ninput · K · Nkernel
                rings: g.n_input() * k * g.n_kernel(),
                wavelengths: g.n_input(),
                rings_per_bank: g.n_input() * g.n_kernel(),
                banks: k,
                passes_per_location: 1,
            },
            AllocationPolicy::Filtered => RingAllocation {
                policy,
                // eq. (5): K · Nkernel
                rings: k * g.n_kernel(),
                wavelengths: g.n_kernel(),
                rings_per_bank: g.n_kernel(),
                banks: k,
                passes_per_location: 1,
            },
            AllocationPolicy::FilteredChannelSequential => RingAllocation {
                policy,
                // K · m·m rings reused across the nc channels
                rings: k * g.n_kernel_per_channel(),
                wavelengths: g.n_kernel_per_channel(),
                rings_per_bank: g.n_kernel_per_channel(),
                banks: k,
                passes_per_location: g.channels() as u64,
            },
        }
    }

    /// Ring-count saving of this allocation relative to the unfiltered
    /// baseline (the paper's ">150k×" headline for conv1).
    #[must_use]
    pub fn saving_vs_unfiltered(&self, g: &ConvGeometry) -> f64 {
        let unfiltered = RingAllocation::for_layer(g, AllocationPolicy::Unfiltered).rings;
        unfiltered as f64 / self.rings.max(1) as f64
    }
}

/// Microring area model: square rings on a square pitch (paper: 25 µm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Ring pitch (side of the square cell), metres.
    pub ring_pitch_m: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            ring_pitch_m: 25e-6,
        }
    }
}

impl AreaModel {
    /// Area of `rings` microrings, mm².
    #[must_use]
    pub fn rings_area_mm2(&self, rings: u64) -> f64 {
        let cell_m2 = self.ring_pitch_m * self.ring_pitch_m;
        rings as f64 * cell_m2 * 1e6 // m² → mm²
    }
}

/// The per-layer rows of Figure 5: ring counts filtered vs. not-filtered.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Layer name.
    pub layer: String,
    /// Eq. (4) count.
    pub not_filtered: u64,
    /// Eq. (5) count.
    pub filtered: u64,
    /// Channel-sequential count (the paper's conv4 arithmetic).
    pub filtered_channel_sequential: u64,
    /// Filtered area at the configured pitch, mm².
    pub filtered_area_mm2: f64,
}

/// Computes Figure 5 for a list of named layers.
#[must_use]
pub fn figure5(layers: &[(&str, ConvGeometry)], area: &AreaModel) -> Vec<Fig5Row> {
    layers
        .iter()
        .map(|(name, g)| {
            let unf = RingAllocation::for_layer(g, AllocationPolicy::Unfiltered);
            let fil = RingAllocation::for_layer(g, AllocationPolicy::Filtered);
            let seq = RingAllocation::for_layer(g, AllocationPolicy::FilteredChannelSequential);
            Fig5Row {
                layer: (*name).to_owned(),
                not_filtered: unf.rings,
                filtered: fil.rings,
                filtered_channel_sequential: seq.rings,
                filtered_area_mm2: area.rings_area_mm2(fil.rings),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    fn conv1() -> ConvGeometry {
        zoo::alexnet_conv_layers()[0].1
    }

    fn conv4() -> ConvGeometry {
        zoo::alexnet_conv_layers()[3].1
    }

    #[test]
    fn equation_4_unfiltered_conv1_is_5_2_billion() {
        let alloc = RingAllocation::for_layer(&conv1(), AllocationPolicy::Unfiltered);
        assert_eq!(alloc.rings, 5_245_599_744); // "approximately 5.2 Billion"
        assert_eq!(alloc.wavelengths, 150_528);
    }

    #[test]
    fn equation_5_filtered_conv1_is_35_thousand() {
        let alloc = RingAllocation::for_layer(&conv1(), AllocationPolicy::Filtered);
        assert_eq!(alloc.rings, 34_848); // "35 thousand"
        assert_eq!(alloc.wavelengths, 363);
        assert_eq!(alloc.banks, 96);
        assert_eq!(alloc.rings_per_bank, 363);
    }

    #[test]
    fn conv1_saving_exceeds_150k() {
        // §V-A: "a saving of more than 150k× in the number microrings"
        let alloc = RingAllocation::for_layer(&conv1(), AllocationPolicy::Filtered);
        let saving = alloc.saving_vs_unfiltered(&conv1());
        assert!(saving > 150_000.0, "saving {saving}");
        assert!(saving < 151_000.0);
    }

    #[test]
    fn conv4_channel_sequential_is_3456_rings() {
        // §V-A: "the 4th layer of AlexNet ... will require 3456 microrings".
        // Only the channel-sequential reading reproduces this number.
        let alloc =
            RingAllocation::for_layer(&conv4(), AllocationPolicy::FilteredChannelSequential);
        assert_eq!(alloc.rings, 3456);
        assert_eq!(alloc.passes_per_location, 384);
    }

    #[test]
    fn conv4_area_is_2_2_mm2() {
        // §V-A: "it takes an area of 2.2mm² to fit all the microrings"
        let area = AreaModel::default();
        assert!((area.rings_area_mm2(3456) - 2.16).abs() < 0.01);
    }

    #[test]
    fn conv4_filtered_verbatim_eq5() {
        // eq. (5) taken literally for conv4 (dense nc = 384)
        let alloc = RingAllocation::for_layer(&conv4(), AllocationPolicy::Filtered);
        assert_eq!(alloc.rings, 384 * 3 * 3 * 384); // 1_327_104
    }

    #[test]
    fn filtered_never_exceeds_unfiltered() {
        for (_, g) in zoo::alexnet_conv_layers() {
            let unf = RingAllocation::for_layer(&g, AllocationPolicy::Unfiltered).rings;
            let fil = RingAllocation::for_layer(&g, AllocationPolicy::Filtered).rings;
            let seq =
                RingAllocation::for_layer(&g, AllocationPolicy::FilteredChannelSequential).rings;
            assert!(fil <= unf);
            assert!(seq <= fil);
        }
    }

    #[test]
    fn ring_count_scales_linearly_in_kernels() {
        // §V-A takeaway: "the total number of rings scales linearly with
        // the number of kernels K".
        let g1 = conv1().with_kernels(96).unwrap();
        let g2 = conv1().with_kernels(192).unwrap();
        let a1 = RingAllocation::for_layer(&g1, AllocationPolicy::Filtered).rings;
        let a2 = RingAllocation::for_layer(&g2, AllocationPolicy::Filtered).rings;
        assert_eq!(a2, 2 * a1);
    }

    #[test]
    fn figure2_example_counts() {
        // Figure 2: 16×16 input, five 3×3 kernels (single channel):
        // unfiltered needs 256 wavelengths, filtered only 9.
        let g = ConvGeometry::new(16, 3, 0, 1, 1, 5).unwrap();
        let unf = RingAllocation::for_layer(&g, AllocationPolicy::Unfiltered);
        let fil = RingAllocation::for_layer(&g, AllocationPolicy::Filtered);
        assert_eq!(unf.wavelengths, 256);
        assert_eq!(fil.wavelengths, 9);
        assert_eq!(fil.rings, 45);
    }

    #[test]
    fn figure5_rows_cover_all_layers() {
        let rows = figure5(&zoo::alexnet_conv_layers(), &AreaModel::default());
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].layer, "conv1");
        assert_eq!(rows[0].filtered, 34_848);
        assert_eq!(rows[3].filtered_channel_sequential, 3456);
        for r in &rows {
            assert!(r.filtered <= r.not_filtered);
            assert!(r.filtered_area_mm2 > 0.0);
        }
    }

    #[test]
    fn area_scales_with_pitch_squared() {
        let a25 = AreaModel {
            ring_pitch_m: 25e-6,
        };
        let a50 = AreaModel {
            ring_pitch_m: 50e-6,
        };
        let r = 1000;
        assert!((a50.rings_area_mm2(r) / a25.rings_area_mm2(r) - 4.0).abs() < 1e-12);
    }
}
