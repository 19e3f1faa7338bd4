//! Generic roofline baseline.
//!
//! A catch-all electronic engine characterised only by peak compute and
//! memory bandwidth — useful in the design-space example to ask "how fast
//! would *any* electronic engine with X TOp/s and Y GB/s be on this layer?"

use crate::model::AcceleratorModel;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// Peak-compute + bandwidth roofline engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Engine label.
    pub label: &'static str,
    /// Peak MACs per second.
    pub peak_macs_per_s: f64,
    /// Memory bandwidth, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Bytes per weight/activation value.
    pub bytes_per_value: u64,
    /// Average power, watts.
    pub power_w: f64,
}

impl Roofline {
    /// A desktop-GPU-class roofline (10 TMAC/s, 500 GB/s).
    #[must_use]
    pub fn gpu_class() -> Self {
        Roofline {
            label: "gpu-roofline",
            peak_macs_per_s: 10e12,
            bandwidth_bytes_per_s: 500e9,
            bytes_per_value: 2,
            power_w: 250.0,
        }
    }

    /// A mobile-NPU-class roofline (1 TMAC/s, 25 GB/s).
    #[must_use]
    pub fn npu_class() -> Self {
        Roofline {
            label: "npu-roofline",
            peak_macs_per_s: 1e12,
            bandwidth_bytes_per_s: 25e9,
            bytes_per_value: 2,
            power_w: 5.0,
        }
    }

    /// Bytes a layer must move at minimum: inputs + weights + outputs once.
    #[must_use]
    pub fn layer_bytes(&self, g: &ConvGeometry) -> u64 {
        (g.n_input() + g.weight_count() + g.n_output()) * self.bytes_per_value
    }

    /// Compute-bound time.
    #[must_use]
    pub fn compute_time(&self, g: &ConvGeometry) -> SimTime {
        SimTime::from_secs_f64(g.macs() as f64 / self.peak_macs_per_s)
    }

    /// Memory-bound time.
    #[must_use]
    pub fn memory_time(&self, g: &ConvGeometry) -> SimTime {
        SimTime::from_secs_f64(self.layer_bytes(g) as f64 / self.bandwidth_bytes_per_s)
    }
}

impl AcceleratorModel for Roofline {
    fn name(&self) -> &str {
        self.label
    }

    fn layer_time(&self, g: &ConvGeometry) -> SimTime {
        self.compute_time(g).max(self.memory_time(g))
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
    fn layer_time_is_max_of_roofs() {
        let r = Roofline::gpu_class();
        for (_, g) in zoo::alexnet_conv_layers() {
            let t = r.layer_time(&g);
            assert!(t >= r.compute_time(&g));
            assert!(t >= r.memory_time(&g));
        }
    }

    #[test]
    fn conv_layers_are_compute_bound_on_gpu() {
        // Dense conv layers have high arithmetic intensity.
        let r = Roofline::gpu_class();
        for (name, g) in zoo::alexnet_conv_layers() {
            assert!(
                r.compute_time(&g) >= r.memory_time(&g),
                "{name} should be compute-bound"
            );
        }
    }

    #[test]
    fn npu_is_slower_than_gpu() {
        let gpu = Roofline::gpu_class();
        let npu = Roofline::npu_class();
        let g = zoo::alexnet_conv_layers()[1].1;
        assert!(npu.layer_time(&g) > gpu.layer_time(&g));
    }

    #[test]
    fn bytes_accounting() {
        let r = Roofline::gpu_class();
        let g = pcnna_cnn::geometry::ConvGeometry::new(8, 3, 0, 1, 2, 4).unwrap();
        let expect = (g.n_input() + g.weight_count() + g.n_output()) * 2;
        assert_eq!(r.layer_bytes(&g), expect);
    }
}
