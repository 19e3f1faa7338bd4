//! YodaNN-like binary-weight accelerator model.
//!
//! YodaNN (Andri, Cavigelli, Rossi, Benini — ISVLSI 2016) trades weight
//! precision for throughput: binary weights turn multipliers into sign
//! flips, letting a small UMC-65 core stream a 32×32 sum-of-products array
//! at up to 480 MHz and reach ~1.5 TOp/s peak. Per MAC it is roughly an
//! order of magnitude faster than Eyeriss, which is exactly how it sits in
//! the paper's Figure 6.

use crate::model::AcceleratorModel;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// YodaNN-like accelerator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YodaNn {
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Parallel sum-of-product units (MACs per cycle at full utilisation).
    pub macs_per_cycle: u64,
    /// Supported kernel size of the hardware window (7×7 in the chip);
    /// layers with other kernel sizes pay a padding penalty.
    pub native_kernel: usize,
    /// Fixed mapping efficiency in (0, 1].
    pub efficiency: f64,
    /// Average core power, watts (chip: ~153 mW at nominal voltage).
    pub power_w: f64,
}

impl Default for YodaNn {
    fn default() -> Self {
        YodaNn {
            clock_hz: 480e6,
            macs_per_cycle: 32 * 32,
            native_kernel: 7,
            efficiency: 0.75,
            power_w: 0.153,
        }
    }
}

impl YodaNn {
    /// Window utilisation: the fixed 7×7 datapath computes any m ≤ 7 kernel
    /// but only m²/49 of its adders contribute.
    #[must_use]
    pub fn window_utilization(&self, g: &ConvGeometry) -> f64 {
        let m = g.kernel_side().min(self.native_kernel);
        (m * m) as f64 / (self.native_kernel * self.native_kernel) as f64
    }

    /// Cycles for a layer.
    #[must_use]
    pub fn layer_cycles(&self, g: &ConvGeometry) -> u64 {
        let effective = self.macs_per_cycle as f64 * self.window_utilization(g) * self.efficiency;
        (g.macs() as f64 / effective).ceil() as u64
    }
}

impl AcceleratorModel for YodaNn {
    fn name(&self) -> &str {
        "yodann"
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
    use crate::eyeriss::Eyeriss;
    use pcnna_cnn::zoo;

    #[test]
    fn faster_than_eyeriss_on_every_alexnet_layer() {
        let y = YodaNn::default();
        let e = Eyeriss::default();
        for (name, g) in zoo::alexnet_conv_layers() {
            assert!(
                y.layer_time(&g) < e.layer_time(&g),
                "{name}: YodaNN should beat Eyeriss"
            );
        }
    }

    #[test]
    fn alexnet_layers_are_sub_millisecond_to_millisecond() {
        let y = YodaNn::default();
        for (name, g) in zoo::alexnet_conv_layers() {
            let t = y.layer_time(&g).as_ms_f64();
            assert!((0.05..5.0).contains(&t), "{name}: {t} ms");
        }
    }

    #[test]
    fn window_utilization_penalises_small_kernels() {
        let y = YodaNn::default();
        let g3 = zoo::alexnet_conv_layers()[2].1; // 3x3
        let g5 = zoo::alexnet_conv_layers()[1].1; // 5x5
        assert!(y.window_utilization(&g3) < y.window_utilization(&g5));
        assert!((y.window_utilization(&g3) - 9.0 / 49.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_larger_than_native_clamps() {
        let y = YodaNn::default();
        let g11 = zoo::alexnet_conv_layers()[0].1; // 11x11
        assert!((y.window_utilization(&g11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_throughput_is_terascale() {
        // 1024 MACs × 480 MHz ≈ 0.49 TMAC/s ≈ 1 TOp/s — the chip's claim.
        let y = YodaNn::default();
        let peak_ops = 2.0 * y.macs_per_cycle as f64 * y.clock_hz;
        assert!(peak_ops > 0.9e12);
    }
}
