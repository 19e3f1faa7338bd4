//! Channel tiling for layers that exceed the hardware budgets
//! (reproduction extension).
//!
//! The paper sizes PCNNA's SRAM so that a full receptive field fits
//! (`Nkernel ≤ 8192` words) — true for AlexNet, false for e.g. VGG-16's
//! 3·3·512 = 4608… which fits, but a hypothetical deeper layer or the
//! spectral budgets of [`crate::feasibility`] may not. Rather than reject
//! such layers, a real system would *tile the channel dimension*: split the
//! `nc` input channels into groups small enough to satisfy every budget,
//! run one optical pass per group, and accumulate the partial sums
//! electronically. This module plans that tiling and prices it.

use crate::analytical::AnalyticalModel;
use crate::config::PcnnaConfig;
use crate::{CoreError, Result};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::time::SimTime;

/// Budgets a channel tile must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConstraints {
    /// SRAM words available for one tile's receptive field.
    pub sram_words: u64,
    /// Simultaneous WDM carriers available (see
    /// [`crate::feasibility::SpectralBudget::usable_channels`]).
    pub carriers: u64,
}

impl TileConstraints {
    /// Constraints from a config (SRAM only; carriers unconstrained).
    #[must_use]
    pub fn from_config(config: &PcnnaConfig) -> Self {
        TileConstraints {
            sram_words: config.sram.capacity_words(),
            carriers: u64::MAX,
        }
    }

    /// Adds a carrier budget.
    #[must_use]
    pub fn with_carriers(mut self, carriers: u64) -> Self {
        self.carriers = carriers;
        self
    }
}

/// A planned channel tiling for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TilingPlan {
    /// The original layer.
    pub layer: String,
    /// Channels processed per tile.
    pub channels_per_tile: usize,
    /// Number of tiles (`ceil(nc / channels_per_tile)`).
    pub tiles: u64,
    /// Geometry of one (full) tile.
    pub tile_geometry: ConvGeometry,
    /// Extra partial-sum accumulations per output value (`tiles − 1`).
    pub partial_sums_per_output: u64,
    /// Full-system time for the tiled layer (tiles × tile time).
    pub full_system_time: SimTime,
    /// Optical-core time for the tiled layer.
    pub optical_time: SimTime,
}

/// Plans channel tilings.
#[derive(Debug, Clone)]
pub struct TilingPlanner {
    config: PcnnaConfig,
}

impl TilingPlanner {
    /// Builds a planner.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configs.
    pub fn new(config: PcnnaConfig) -> Result<Self> {
        config.validate()?;
        Ok(TilingPlanner { config })
    }

    /// The largest channel count per tile satisfying the constraints:
    /// `m·m·nc_tile ≤ min(sram_words, carriers)`.
    #[must_use]
    pub fn max_channels_per_tile(&self, g: &ConvGeometry, c: &TileConstraints) -> usize {
        let per_channel = g.n_kernel_per_channel().max(1);
        let budget = c.sram_words.min(c.carriers);
        ((budget / per_channel) as usize).min(g.channels())
    }

    /// Plans the tiling of one layer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ResourceExceeded`] if even a single channel's
    /// receptive field exceeds the budgets (tile the *kernel window* — out
    /// of scope; no paper layer needs it).
    pub fn plan(&self, name: &str, g: &ConvGeometry, c: &TileConstraints) -> Result<TilingPlan> {
        let channels_per_tile = self.max_channels_per_tile(g, c);
        if channels_per_tile == 0 {
            return Err(CoreError::ResourceExceeded {
                resource: "single-channel receptive field (words/carriers)",
                requested: g.n_kernel_per_channel(),
                available: c.sram_words.min(c.carriers),
            });
        }
        let tiles = (g.channels() as u64).div_ceil(channels_per_tile as u64);
        let tile_geometry = ConvGeometry::new(
            g.input_side(),
            g.kernel_side(),
            g.padding(),
            g.stride(),
            channels_per_tile,
            g.kernels(),
        )?;
        let analytical = AnalyticalModel::new(self.config)?;
        let tile_timing = analytical.layer_timing(name, &tile_geometry)?;
        Ok(TilingPlan {
            layer: name.to_owned(),
            channels_per_tile,
            tiles,
            tile_geometry,
            partial_sums_per_output: tiles - 1,
            full_system_time: tile_timing.full_system_time.saturating_mul(tiles),
            optical_time: tile_timing.optical_time.saturating_mul(tiles),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    fn planner() -> TilingPlanner {
        TilingPlanner::new(PcnnaConfig::default()).unwrap()
    }

    #[test]
    fn alexnet_layers_fit_in_one_tile_under_sram_only() {
        let p = planner();
        let c = TileConstraints::from_config(&PcnnaConfig::default());
        for (name, g) in zoo::alexnet_conv_layers() {
            let plan = p.plan(name, &g, &c).unwrap();
            assert_eq!(plan.tiles, 1, "{name}");
            assert_eq!(plan.partial_sums_per_output, 0);
            assert_eq!(plan.channels_per_tile, g.channels());
        }
    }

    #[test]
    fn carrier_budget_forces_tiling() {
        // 22 usable carriers (the FSR budget): conv4 needs 3456 → tiles.
        let p = planner();
        let g = zoo::alexnet_conv_layers()[3].1;
        let c = TileConstraints::from_config(&PcnnaConfig::default()).with_carriers(22);
        let plan = p.plan("conv4", &g, &c).unwrap();
        // 22 / 9 = 2 channels per tile → 192 tiles
        assert_eq!(plan.channels_per_tile, 2);
        assert_eq!(plan.tiles, 192);
        assert_eq!(plan.partial_sums_per_output, 191);
    }

    #[test]
    fn tiled_time_scales_with_tiles() {
        let p = planner();
        let g = zoo::alexnet_conv_layers()[3].1;
        let c = TileConstraints::from_config(&PcnnaConfig::default()).with_carriers(22);
        let plan = p.plan("conv4", &g, &c).unwrap();
        let single = AnalyticalModel::new(PcnnaConfig::default())
            .unwrap()
            .layer_timing("tile", &plan.tile_geometry)
            .unwrap();
        assert_eq!(
            plan.full_system_time,
            single.full_system_time.saturating_mul(plan.tiles)
        );
    }

    #[test]
    fn oversized_vgg_layer_becomes_plannable() {
        // A synthetic 5x5x512 layer exceeds the 8192-word SRAM (12800 words)
        // — the analytical model rejects it, the planner tiles it.
        let g = ConvGeometry::new(32, 5, 0, 1, 512, 4).unwrap();
        let p = planner();
        let c = TileConstraints::from_config(&PcnnaConfig::default());
        let plan = p.plan("big", &g, &c).unwrap();
        assert!(plan.tiles >= 2);
        assert!(plan.channels_per_tile as u64 * plan.tiles >= 512);
        // per-tile receptive field fits
        assert!(plan.tile_geometry.n_kernel() <= 8192);
    }

    #[test]
    fn impossible_budget_is_rejected() {
        let g = ConvGeometry::new(16, 5, 0, 1, 4, 2).unwrap(); // 25 words/channel
        let p = planner();
        let c = TileConstraints {
            sram_words: 10,
            carriers: u64::MAX,
        };
        assert!(matches!(
            p.plan("g", &g, &c),
            Err(CoreError::ResourceExceeded { .. })
        ));
    }

    #[test]
    fn tiles_cover_all_channels_exactly() {
        let g = ConvGeometry::new(14, 3, 1, 1, 100, 8).unwrap();
        let p = planner();
        let c = TileConstraints {
            sram_words: 9 * 7, // 7 channels per tile
            carriers: u64::MAX,
        };
        let plan = p.plan("g", &g, &c).unwrap();
        assert_eq!(plan.channels_per_tile, 7);
        assert_eq!(plan.tiles, 100u64.div_ceil(7));
    }
}
