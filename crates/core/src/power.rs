//! Full-system power and energy model (reproduction extension).
//!
//! The paper argues photonics saves power but reports no numbers. This
//! module prices the paper's design point: lasers (one per carrier),
//! microring heaters, MZM drivers, the converter arrays, SRAM and DRAM —
//! and produces per-layer energy at the analytical execution time, so the
//! `energy` harness can put PCNNA on the same axis as Eyeriss and YodaNN.

use crate::analytical::AnalyticalModel;
use crate::config::PcnnaConfig;
use crate::mapping::RingAllocation;
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_electronics::energy::EnergyLedger;
use pcnna_photonics::laser::LaserDiode;
use pcnna_photonics::power::{mzm_driver_power_w, PhotonicPowerBudget};

/// Static power assumptions beyond what the config carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAssumptions {
    /// Per-carrier laser model.
    pub laser: LaserDiode,
    /// Average heater power per *active* ring, watts (rings parked at
    /// weight −1 draw none; mid-scale tuning draws about half the
    /// per-linewidth figure × the parking offset).
    pub avg_heater_w_per_ring: f64,
    /// MZM driver capacitance, farads.
    pub mzm_capacitance_f: f64,
    /// MZM drive swing, volts.
    pub mzm_swing_v: f64,
    /// Receiver (TIA + comparator) power per bank, watts.
    pub receiver_w_per_bank: f64,
}

impl Default for PowerAssumptions {
    fn default() -> Self {
        PowerAssumptions {
            laser: LaserDiode::default(),
            avg_heater_w_per_ring: 1.0e-4,
            mzm_capacitance_f: 100e-15,
            mzm_swing_v: 2.0,
            receiver_w_per_bank: 2.0e-3,
        }
    }
}

/// Per-layer power/energy summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPower {
    /// Layer name.
    pub name: String,
    /// Photonic front-end budget (lasers, heaters, modulators, receivers).
    pub photonic: PhotonicPowerBudget,
    /// Electronic converter + memory power, watts.
    pub electronic_w: f64,
    /// Total power, watts.
    pub total_w: f64,
    /// Execution time used for the energy figure (full-system analytical).
    pub exec_seconds: f64,
    /// Energy ledger for one execution of the layer.
    pub energy: EnergyLedger,
    /// MACs per joule — the efficiency headline.
    pub macs_per_joule: f64,
}

/// The power model.
#[derive(Debug, Clone)]
pub struct PowerModel {
    config: PcnnaConfig,
    assumptions: PowerAssumptions,
}

impl PowerModel {
    /// Builds a power model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid configs.
    pub fn new(config: PcnnaConfig, assumptions: PowerAssumptions) -> Result<Self> {
        config.validate()?;
        Ok(PowerModel {
            config,
            assumptions,
        })
    }

    /// The static photonic power of a layer's mapping.
    #[must_use]
    pub fn photonic_budget(&self, g: &ConvGeometry) -> PhotonicPowerBudget {
        let alloc = RingAllocation::for_layer(g, self.config.allocation);
        let carriers = alloc.wavelengths;
        PhotonicPowerBudget {
            lasers_w: carriers as f64 * self.assumptions.laser.electrical_power_w(),
            heaters_w: alloc.rings as f64 * self.assumptions.avg_heater_w_per_ring,
            modulators_w: mzm_driver_power_w(
                self.assumptions.mzm_capacitance_f,
                self.assumptions.mzm_swing_v,
                self.config.fast_clock.frequency_hz(),
                carriers as usize,
            ),
            receivers_w: alloc.banks as f64 * self.assumptions.receiver_w_per_bank,
        }
    }

    /// Electronic power: converter arrays at their duty, SRAM at the
    /// per-location access rate.
    #[must_use]
    pub fn electronic_power_w(&self, g: &ConvGeometry) -> f64 {
        let dacs = self.config.input_dac.power_w
            * (self.config.n_input_dacs + self.config.n_weight_dacs) as f64;
        let adcs = self.config.adc.power_w * self.config.n_adcs as f64;
        // SRAM accessed once per updated value per location; approximate the
        // access rate by updates/loc over the per-location time.
        let sram = self.config.sram.power_w(
            g.updated_inputs_per_location() as f64 * self.config.fast_clock.frequency_hz() / 1000.0, // conservative duty scaling
        );
        dacs + adcs + sram
    }

    /// Energy of one execution of a layer priced at `exec_seconds` — the
    /// lean path for search hot loops: the same four energy terms as the
    /// [`LayerPower`] ledger (converters, DRAM traffic, photonics), with
    /// no name interning, no ledger struct, and no allocation. The caller
    /// supplies the execution time (typically
    /// [`AnalyticalModel::layer_full_system_time`]) so the analytical
    /// model is built once per network, not once per layer.
    #[must_use]
    pub fn layer_energy_j(&self, g: &ConvGeometry, exec_seconds: f64) -> f64 {
        let photonic = self.photonic_budget(g);
        let dac_j = self.config.input_dac.power_w
            * (self.config.n_input_dacs + self.config.n_weight_dacs) as f64
            * exec_seconds;
        let adc_j = self.config.adc.power_w * self.config.n_adcs as f64 * exec_seconds;
        let dram_j = self.config.dram.transfer_energy_j(
            (g.n_input() + g.weight_count() + g.n_output()) * self.config.bytes_per_value,
        );
        dac_j + adc_j + dram_j + photonic.energy_j(exec_seconds)
    }

    /// Full per-layer power/energy analysis with a caller-provided
    /// analytical model (avoids rebuilding it per layer).
    fn layer_power_with(
        &self,
        analytical: &AnalyticalModel,
        name: &str,
        g: &ConvGeometry,
    ) -> Result<LayerPower> {
        let timing = analytical.layer_timing(name, g)?;
        let photonic = self.photonic_budget(g);
        let electronic_w = self.electronic_power_w(g);
        let total_w = photonic.total_w() + electronic_w;
        let secs = timing.full_system_time.as_secs_f64();
        let energy = EnergyLedger {
            dac_j: self.config.input_dac.power_w
                * (self.config.n_input_dacs + self.config.n_weight_dacs) as f64
                * secs,
            adc_j: self.config.adc.power_w * self.config.n_adcs as f64 * secs,
            sram_j: 0.0,
            dram_j: self.config.dram.transfer_energy_j(
                (g.n_input() + g.weight_count() + g.n_output()) * self.config.bytes_per_value,
            ),
            photonic_j: photonic.energy_j(secs),
        };
        let macs_per_joule = if energy.total_j() > 0.0 {
            g.macs() as f64 / energy.total_j()
        } else {
            0.0
        };
        Ok(LayerPower {
            name: name.to_owned(),
            photonic,
            electronic_w,
            total_w,
            exec_seconds: secs,
            energy,
            macs_per_joule,
        })
    }

    /// Full per-layer power/energy analysis.
    ///
    /// # Errors
    ///
    /// Propagates resource failures from the analytical model.
    pub fn layer_power(&self, name: &str, g: &ConvGeometry) -> Result<LayerPower> {
        let analytical = AnalyticalModel::new(self.config)?;
        self.layer_power_with(&analytical, name, g)
    }

    /// Power analysis over a list of layers (the analytical model behind
    /// the execution times is built once, not once per layer).
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer failure.
    pub fn network_power(&self, layers: &[(&str, ConvGeometry)]) -> Result<Vec<LayerPower>> {
        let analytical = AnalyticalModel::new(self.config)?;
        layers
            .iter()
            .map(|(name, g)| self.layer_power_with(&analytical, name, g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    fn model() -> PowerModel {
        PowerModel::new(PcnnaConfig::default(), PowerAssumptions::default()).unwrap()
    }

    #[test]
    fn photonic_budget_scales_with_mapping() {
        let m = model();
        let conv3 = zoo::alexnet_conv_layers()[2].1;
        let conv4 = zoo::alexnet_conv_layers()[3].1;
        let b3 = m.photonic_budget(&conv3);
        let b4 = m.photonic_budget(&conv4);
        // conv4 has more rings (more heaters) and more carriers (more lasers)
        assert!(b4.heaters_w > b3.heaters_w);
        assert!(b4.lasers_w > b3.lasers_w);
    }

    #[test]
    fn heaters_dominate_deep_layers_lasers_shallow_ones() {
        // conv4 under eq. (5) carries 1.33 M rings — at 0.1 mW each the
        // heater budget alone is ~130 W, dwarfing its 3456 lasers. conv1's
        // 35 k rings flip the balance toward its 363 lasers. (The paper's
        // qualitative "photonics saves power" needs this caveat; see
        // EXPERIMENTS.md "Power reality check".)
        let m = model();
        let conv4 = zoo::alexnet_conv_layers()[3].1;
        assert_eq!(m.photonic_budget(&conv4).dominant().0, "heaters");
        let conv1 = zoo::alexnet_conv_layers()[0].1;
        assert_eq!(m.photonic_budget(&conv1).dominant().0, "lasers");
    }

    #[test]
    fn layer_power_produces_positive_totals() {
        let m = model();
        for (name, g) in zoo::alexnet_conv_layers() {
            let p = m.layer_power(name, &g).unwrap();
            assert!(p.total_w > 0.0, "{name}");
            assert!(p.energy.total_j() > 0.0, "{name}");
            assert!(p.macs_per_joule > 0.0, "{name}");
        }
    }

    #[test]
    fn efficiency_is_competitive_per_mac() {
        // The point of analog photonic MACs: macs/J should be well beyond
        // a ~100 GMAC/s/W electronic engine at these assumptions.
        let m = model();
        let g = zoo::alexnet_conv_layers()[3].1;
        let p = m.layer_power("conv4", &g).unwrap();
        assert!(
            p.macs_per_joule > 1e11,
            "macs/J = {:.3e} unexpectedly poor",
            p.macs_per_joule
        );
    }

    #[test]
    fn lean_layer_energy_matches_the_ledger() {
        // The allocation-free search path and the reporting ledger must
        // never drift apart.
        let m = model();
        for (name, g) in zoo::alexnet_conv_layers() {
            let p = m.layer_power(name, &g).unwrap();
            let lean = m.layer_energy_j(&g, p.exec_seconds);
            let total = p.energy.total_j();
            assert!(
                (lean - total).abs() <= 1e-12 * total,
                "{name}: lean {lean} vs ledger {total}"
            );
        }
    }

    #[test]
    fn network_power_covers_all_layers() {
        let m = model();
        let rows = m.network_power(&zoo::alexnet_conv_layers()).unwrap();
        assert_eq!(rows.len(), 5);
    }
}
