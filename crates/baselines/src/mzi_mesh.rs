//! Coherent MZI-mesh photonic baseline (the paper's reference \[11\],
//! Shen et al., *Nature Photonics* 2017).
//!
//! The other photonic approach of the era: an `N×N` triangular/rectangular
//! mesh of Mach-Zehnder interferometers realises an arbitrary `N×N` unitary
//! (two meshes + attenuators give any matrix via SVD), computing one
//! `N`-vector matrix-vector product per clock. Unlike broadcast-and-weight
//! it has no WDM parallelism: a convolution is im2col'd into matvecs and
//! streamed through. Comparing PCNNA against it shows what the MRR/WDM
//! architecture specifically buys.

use crate::model::AcceleratorModel;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// An MZI-mesh accelerator of fixed port count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MziMesh {
    /// Mesh port count `N` (Shen et al. demonstrated 4; proposals reach 64+).
    pub ports: usize,
    /// Vector clock, Hz (limited by the same DAC/ADC wall as PCNNA).
    pub clock_hz: f64,
    /// Average electrical+optical power, watts.
    pub power_w: f64,
}

impl Default for MziMesh {
    /// A generously scaled-up mesh: 64 ports at the same 5 GHz I/O clock.
    fn default() -> Self {
        MziMesh {
            ports: 64,
            clock_hz: 5e9,
            power_w: 10.0,
        }
    }
}

impl MziMesh {
    /// Matrix-vector products needed for one layer: the `K × Nkernel`
    /// weight matrix is tiled into `⌈K/N⌉·⌈Nkernel/N⌉` blocks, each
    /// streamed over all `Nlocs` locations.
    #[must_use]
    pub fn matvecs(&self, g: &ConvGeometry) -> u64 {
        let n = self.ports as u64;
        let row_tiles = (g.kernels() as u64).div_ceil(n);
        let col_tiles = g.n_kernel().div_ceil(n);
        row_tiles * col_tiles * g.n_locations()
    }
}

impl AcceleratorModel for MziMesh {
    fn name(&self) -> &str {
        "mzi-mesh"
    }

    fn layer_time(&self, g: &ConvGeometry) -> SimTime {
        SimTime::from_secs_f64(self.matvecs(g) as f64 / self.clock_hz)
    }

    fn average_power_w(&self) -> f64 {
        self.power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    #[test]
    fn matvec_count_for_conv4() {
        // conv4: K=384, Nkernel=3456, Nlocs=169; 64 ports →
        // 6 row tiles × 54 col tiles × 169 = 54_756 matvecs.
        let mesh = MziMesh::default();
        let g = zoo::alexnet_conv_layers()[3].1;
        assert_eq!(mesh.matvecs(&g), 6 * 54 * 169);
    }

    #[test]
    fn mesh_is_slower_than_pcnna_optical_core() {
        // PCNNA computes all K kernels per location in one cycle; the mesh
        // needs ⌈K/N⌉·⌈Nkernel/N⌉ cycles per location — 12× on conv1 (small
        // K, small field) up to >300× on conv4.
        let mesh = MziMesh::default();
        for (name, g) in zoo::alexnet_conv_layers() {
            let pcnna_o_cycles = g.n_locations();
            let mesh_cycles = mesh.matvecs(&g);
            assert!(
                mesh_cycles >= 10 * pcnna_o_cycles,
                "{name}: mesh {mesh_cycles} vs PCNNA(O) {pcnna_o_cycles}"
            );
        }
        let conv4 = zoo::alexnet_conv_layers()[3].1;
        assert!(mesh.matvecs(&conv4) > 300 * conv4.n_locations());
    }

    #[test]
    fn more_ports_fewer_matvecs() {
        let small = MziMesh {
            ports: 16,
            ..MziMesh::default()
        };
        let big = MziMesh {
            ports: 128,
            ..MziMesh::default()
        };
        let g = zoo::alexnet_conv_layers()[2].1;
        assert!(big.matvecs(&g) < small.matvecs(&g));
    }

    #[test]
    fn layer_time_matches_matvec_count() {
        let mesh = MziMesh::default();
        let g = zoo::alexnet_conv_layers()[0].1;
        let t = mesh.layer_time(&g).as_secs_f64();
        assert!((t - mesh.matvecs(&g) as f64 / 5e9).abs() < 1e-12);
    }
}
