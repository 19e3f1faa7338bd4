//! Convolution-layer geometry: the parameter algebra of the paper's Table I.
//!
//! The paper characterises a convolution layer by the tuple
//! `(n, m, p, s, nc, K)` — input side, kernel side, padding, stride, input
//! channels and kernel count — and derives from it (equations (1)–(3), (6)):
//!
//! * `Ninput  = n · n · nc`
//! * `Nkernel = m · m · nc`
//! * `Noutput = (⌊(n + 2p − m)/s⌋ + 1)² · K`
//! * `Nlocs   = Noutput / K = (⌊(n + 2p − m)/s⌋ + 1)²`
//!
//! [`ConvGeometry`] encodes that tuple once, validated, and exposes every
//! derived quantity used by the mapper, scheduler and analytical models.

use crate::{CnnError, Result};

/// Validated convolution-layer geometry (paper Table I).
///
/// Input feature maps are square `n × n × nc` volumes; kernels are square
/// `m × m × nc` volumes; `k` kernels slide with stride `s` over an input
/// padded by `p` on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    n: usize,
    m: usize,
    p: usize,
    s: usize,
    nc: usize,
    k: usize,
}

impl ConvGeometry {
    /// Creates a validated geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] if any dimension is zero, the
    /// stride is zero, or the kernel does not fit in the padded input
    /// (`m > n + 2p`).
    ///
    /// # Examples
    ///
    /// ```
    /// use pcnna_cnn::geometry::ConvGeometry;
    /// let g = ConvGeometry::new(16, 3, 0, 1, 1, 5).unwrap();
    /// assert_eq!(g.output_side(), 14);
    /// ```
    pub fn new(n: usize, m: usize, p: usize, s: usize, nc: usize, k: usize) -> Result<Self> {
        if n == 0 || m == 0 || nc == 0 || k == 0 {
            return Err(CnnError::InvalidGeometry {
                reason: format!("dimensions must be nonzero (n={n}, m={m}, nc={nc}, k={k})"),
            });
        }
        if s == 0 {
            return Err(CnnError::InvalidGeometry {
                reason: "stride must be nonzero".to_owned(),
            });
        }
        if m > n + 2 * p {
            return Err(CnnError::InvalidGeometry {
                reason: format!("kernel side {m} exceeds padded input side {}", n + 2 * p),
            });
        }
        Ok(ConvGeometry { n, m, p, s, nc, k })
    }

    /// Input feature-map side length `n`.
    #[must_use]
    pub fn input_side(&self) -> usize {
        self.n
    }

    /// Kernel side length `m`.
    #[must_use]
    pub fn kernel_side(&self) -> usize {
        self.m
    }

    /// Padding `p` applied on each border.
    #[must_use]
    pub fn padding(&self) -> usize {
        self.p
    }

    /// Stride `s`.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.s
    }

    /// Input channel count `nc`.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.nc
    }

    /// Number of kernels `K` (= output channels).
    #[must_use]
    pub fn kernels(&self) -> usize {
        self.k
    }

    /// `Ninput = n · n · nc` — paper equation (1).
    #[must_use]
    pub fn n_input(&self) -> u64 {
        (self.n * self.n * self.nc) as u64
    }

    /// `Nkernel = m · m · nc` — paper equation (2).
    #[must_use]
    pub fn n_kernel(&self) -> u64 {
        (self.m * self.m * self.nc) as u64
    }

    /// Receptive-field size of a single channel slice, `m · m`.
    ///
    /// Used by the channel-sequential allocation policy
    /// (`AllocationPolicy::FilteredChannelSequential` in `pcnna-core`).
    #[must_use]
    pub fn n_kernel_per_channel(&self) -> u64 {
        (self.m * self.m) as u64
    }

    /// Output feature-map side length `⌊(n + 2p − m)/s⌋ + 1`.
    #[must_use]
    pub fn output_side(&self) -> usize {
        (self.n + 2 * self.p - self.m) / self.s + 1
    }

    /// `Noutput = output_side² · K` — paper equation (3).
    #[must_use]
    pub fn n_output(&self) -> u64 {
        let side = self.output_side() as u64;
        side * side * self.k as u64
    }

    /// `Nlocs = Noutput / K` — paper equation (6): the number of distinct
    /// kernel locations over the input feature map.
    #[must_use]
    pub fn n_locations(&self) -> u64 {
        let side = self.output_side() as u64;
        side * side
    }

    /// Multiply-accumulate operations for the full layer:
    /// `Nlocs · K · Nkernel`.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.n_locations() * self.k as u64 * self.n_kernel()
    }

    /// Number of weight values in the layer, `K · Nkernel`.
    #[must_use]
    pub fn weight_count(&self) -> u64 {
        self.k as u64 * self.n_kernel()
    }

    /// Values newly required when the kernel window advances by one stride
    /// within a row: `nc · m · s` (paper §V-B, the numerator of equation (8)).
    ///
    /// The paper uses this as the steady-state per-location input-update
    /// count; see [`crate::layer`] and the scheduler for the exact per-row
    /// accounting.
    #[must_use]
    pub fn updated_inputs_per_location(&self) -> u64 {
        (self.nc * self.m * self.s) as u64
    }

    /// The shape of the input volume as `(nc, n, n)`.
    #[must_use]
    pub fn input_shape(&self) -> [usize; 3] {
        [self.nc, self.n, self.n]
    }

    /// The shape of the kernel stack as `(k, nc, m, m)`.
    #[must_use]
    pub fn kernel_shape(&self) -> [usize; 4] {
        [self.k, self.nc, self.m, self.m]
    }

    /// The shape of the output volume as `(k, out, out)`.
    #[must_use]
    pub fn output_shape(&self) -> [usize; 3] {
        let o = self.output_side();
        [self.k, o, o]
    }

    /// Describes a fully connected layer as a degenerate convolution: a
    /// `1×1` input of `inputs` channels hit by `outputs` kernels of `1×1` —
    /// how PCNNA would map an FC layer onto its weight banks (every input
    /// on its own carrier, one bank per output neuron). `Nkernel = inputs`,
    /// `Nlocs = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] if either count is zero.
    pub fn for_fully_connected(inputs: usize, outputs: usize) -> Result<Self> {
        ConvGeometry::new(1, 1, 0, 1, inputs, outputs)
    }

    /// Returns a copy with a different kernel count.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] when `k` is zero.
    pub fn with_kernels(&self, k: usize) -> Result<Self> {
        ConvGeometry::new(self.n, self.m, self.p, self.s, self.nc, k)
    }

    /// Returns a copy with a different stride.
    ///
    /// # Errors
    ///
    /// Returns [`CnnError::InvalidGeometry`] when `s` is zero.
    pub fn with_stride(&self, s: usize) -> Result<Self> {
        ConvGeometry::new(self.n, self.m, self.p, s, self.nc, self.k)
    }
}

impl core::fmt::Display for ConvGeometry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}x{}x{} * {}@{}x{}x{} (p={}, s={}) -> {}x{}x{}",
            self.n,
            self.n,
            self.nc,
            self.k,
            self.m,
            self.m,
            self.nc,
            self.p,
            self.s,
            self.output_side(),
            self.output_side(),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AlexNet conv1 exactly as the paper uses it in §V-A.
    fn alexnet_conv1() -> ConvGeometry {
        ConvGeometry::new(224, 11, 2, 4, 3, 96).unwrap()
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(ConvGeometry::new(0, 3, 0, 1, 1, 1).is_err());
        assert!(ConvGeometry::new(8, 0, 0, 1, 1, 1).is_err());
        assert!(ConvGeometry::new(8, 3, 0, 0, 1, 1).is_err());
        assert!(ConvGeometry::new(8, 3, 0, 1, 0, 1).is_err());
        assert!(ConvGeometry::new(8, 3, 0, 1, 1, 0).is_err());
        // kernel larger than padded input
        assert!(ConvGeometry::new(4, 7, 1, 1, 1, 1).is_err());
        // ... but fine once padding accommodates it
        assert!(ConvGeometry::new(4, 6, 1, 1, 1, 1).is_ok());
    }

    #[test]
    fn paper_equation_1_and_2_for_alexnet_conv1() {
        let g = alexnet_conv1();
        assert_eq!(g.n_input(), 224 * 224 * 3); // 150_528
        assert_eq!(g.n_kernel(), 11 * 11 * 3); // 363
    }

    #[test]
    fn paper_equation_3_and_6_for_alexnet_conv1() {
        let g = alexnet_conv1();
        assert_eq!(g.output_side(), 55);
        assert_eq!(g.n_output(), 55 * 55 * 96);
        assert_eq!(g.n_locations(), 3025);
    }

    #[test]
    fn figure2_example_geometry() {
        // Figure 2: 16x16 input feature map, five 3x3 kernels.
        let g = ConvGeometry::new(16, 3, 0, 1, 1, 5).unwrap();
        assert_eq!(g.output_side(), 14);
        assert_eq!(g.n_kernel(), 9);
        assert_eq!(g.weight_count(), 45);
    }

    #[test]
    fn figure3_49_locations() {
        // The paper's Figure 3 narrative: "the input receptive field goes
        // through 49 cycles" — a 7x7 output grid.
        let g = ConvGeometry::new(9, 3, 0, 1, 1, 4).unwrap();
        assert_eq!(g.n_locations(), 49);
    }

    #[test]
    fn macs_count_is_consistent() {
        let g = ConvGeometry::new(8, 3, 1, 1, 2, 4).unwrap();
        // output 8x8, each output value needs 3*3*2 MACs, 4 kernels
        assert_eq!(g.output_side(), 8);
        assert_eq!(g.macs(), 8 * 8 * 4 * 18);
    }

    #[test]
    fn updated_inputs_matches_equation_8_numerator() {
        // Paper eq. (8): nc * m * s = 384 * 3 * 1 for AlexNet's largest layer.
        let conv4 = ConvGeometry::new(13, 3, 1, 1, 384, 384).unwrap();
        assert_eq!(conv4.updated_inputs_per_location(), 1152);
    }

    #[test]
    fn shapes_are_consistent() {
        let g = ConvGeometry::new(16, 5, 2, 2, 3, 8).unwrap();
        assert_eq!(g.input_shape(), [3, 16, 16]);
        assert_eq!(g.kernel_shape(), [8, 3, 5, 5]);
        let o = g.output_side();
        assert_eq!(g.output_shape(), [8, o, o]);
    }

    #[test]
    fn with_kernels_and_stride_rebuild() {
        let g = ConvGeometry::new(16, 3, 1, 1, 4, 8).unwrap();
        assert_eq!(g.with_kernels(16).unwrap().kernels(), 16);
        assert_eq!(g.with_stride(2).unwrap().output_side(), 8);
        assert!(g.with_stride(0).is_err());
    }

    #[test]
    fn fully_connected_mapping() {
        let g = ConvGeometry::for_fully_connected(9216, 4096).unwrap();
        assert_eq!(g.n_locations(), 1);
        assert_eq!(g.n_kernel(), 9216);
        assert_eq!(g.weight_count(), 9216 * 4096);
        assert_eq!(g.macs(), 9216 * 4096);
        assert!(ConvGeometry::for_fully_connected(0, 4).is_err());
    }

    #[test]
    fn display_is_informative() {
        let g = alexnet_conv1();
        let s = g.to_string();
        assert!(s.contains("224x224x3"));
        assert!(s.contains("96@11x11x3"));
        assert!(s.contains("55x55x96"));
    }
}
