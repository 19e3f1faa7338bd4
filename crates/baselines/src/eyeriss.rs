//! Eyeriss-like row-stationary accelerator model.
//!
//! Eyeriss (Chen, Krishna, Emer, Sze — ISSCC/ISCA 2016) computes 2-D
//! convolutions on a 12×14 array of processing elements at 200 MHz with the
//! *row-stationary* dataflow: a logical PE set of `m` rows (one kernel row
//! each) by `e` columns (one output row each) computes one 2-D convolution
//! plane; the physical array fits `⌊12/m⌋·⌊14/e'⌋`-ish replicas of that set,
//! and the `K·nc` required 2-D planes are streamed over it in passes.
//!
//! This model reproduces that mapping at first order: spatial utilisation
//! from the set-fitting arithmetic, temporal throughput of one MAC per PE
//! per cycle, plus a fixed mapping efficiency covering drain/fill and
//! memory stalls (calibrated so dense AlexNet conv layers land at the
//! published few-ms scale; Eyeriss reports 115.3 ms total at 34.7 fps... on
//! the conv layers of AlexNet with batch 4 — our per-frame numbers sit in
//! the same regime).

use crate::model::AcceleratorModel;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// Eyeriss-like accelerator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eyeriss {
    /// PE array rows (kernel-row dimension).
    pub pe_rows: usize,
    /// PE array columns (output-row dimension).
    pub pe_cols: usize,
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Fixed mapping/memory efficiency factor in (0, 1].
    pub efficiency: f64,
    /// Average core power, watts (chip reports ~278 mW).
    pub power_w: f64,
}

impl Default for Eyeriss {
    fn default() -> Self {
        Eyeriss {
            pe_rows: 12,
            pe_cols: 14,
            clock_hz: 200e6,
            efficiency: 0.8,
            power_w: 0.278,
        }
    }
}

impl Eyeriss {
    /// Spatial utilisation of the PE array for a layer: how many PEs a
    /// row-stationary mapping keeps busy.
    #[must_use]
    pub fn utilization(&self, g: &ConvGeometry) -> f64 {
        let total_pes = (self.pe_rows * self.pe_cols) as f64;
        let m = g.kernel_side().min(self.pe_rows);
        // Output rows mapped across the column dimension; wide outputs are
        // tiled, narrow outputs under-fill.
        let e = g.output_side().min(self.pe_cols);
        let set = m * e;
        // Replicate the logical set across leftover rows (filter reuse).
        let replicas = ((self.pe_rows / m).max(1)) * ((self.pe_cols / e).max(1));
        let used = (set * replicas).min(self.pe_rows * self.pe_cols);
        used as f64 / total_pes
    }

    /// Cycles to execute a layer.
    #[must_use]
    pub fn layer_cycles(&self, g: &ConvGeometry) -> u64 {
        let peak = (self.pe_rows * self.pe_cols) as f64;
        let effective = peak * self.utilization(g) * self.efficiency;
        (g.macs() as f64 / effective).ceil() as u64
    }
}

impl AcceleratorModel for Eyeriss {
    fn name(&self) -> &str {
        "eyeriss"
    }

    fn layer_time(&self, g: &ConvGeometry) -> SimTime {
        SimTime::from_secs_f64(self.layer_cycles(g) as f64 / self.clock_hz)
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
    fn utilization_is_in_unit_interval() {
        let e = Eyeriss::default();
        for (_, g) in zoo::alexnet_conv_layers() {
            let u = e.utilization(&g);
            assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        }
    }

    #[test]
    fn small_kernels_underutilize_less_with_replication() {
        let e = Eyeriss::default();
        // 3x3 kernel on 13x13 outputs: 3 rows used, replicated 4x → 12 rows.
        let g = zoo::alexnet_conv_layers()[3].1;
        assert!(e.utilization(&g) > 0.8);
    }

    #[test]
    fn alexnet_layer_times_are_milliseconds() {
        // Eyeriss processes AlexNet conv layers in the millisecond regime
        // (published: 115.3 ms for the 5 conv layers at batch 4, i.e. a few
        // ms per layer per frame).
        let e = Eyeriss::default();
        for (name, g) in zoo::alexnet_conv_layers() {
            let t = e.layer_time(&g).as_ms_f64();
            assert!(
                (0.5..30.0).contains(&t),
                "{name}: {t} ms outside the published regime"
            );
        }
    }

    #[test]
    fn alexnet_total_is_tens_of_milliseconds() {
        let e = Eyeriss::default();
        let total = e.network_time(&zoo::alexnet_conv_layers()).as_ms_f64();
        assert!((5.0..60.0).contains(&total), "total {total} ms");
    }

    #[test]
    fn time_scales_with_macs() {
        let e = Eyeriss::default();
        let g = zoo::alexnet_conv_layers()[2].1;
        let g2 = g.with_kernels(g.kernels() * 2).unwrap();
        let t1 = e.layer_time(&g).as_secs_f64();
        let t2 = e.layer_time(&g2).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn energy_uses_chip_power() {
        let e = Eyeriss::default();
        let g = zoo::alexnet_conv_layers()[0].1;
        let j = e.layer_energy_j(&g);
        assert!(j > 0.0);
        assert!((j / e.layer_time(&g).as_secs_f64() - 0.278).abs() < 1e-9);
    }
}
