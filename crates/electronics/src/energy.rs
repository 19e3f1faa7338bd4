//! Electrical energy bookkeeping.
//!
//! The paper argues photonics wins on power as well as speed but reports no
//! energy numbers; this ledger lets the core crate quantify the electronic
//! side (converters, SRAM, DRAM) next to the photonic budget; the energy
//! per layer is in EXPERIMENTS.md "Power reality check".

/// Itemised electrical energy, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Input + weight DAC conversion energy.
    pub dac_j: f64,
    /// Output ADC conversion energy.
    pub adc_j: f64,
    /// SRAM access energy.
    pub sram_j: f64,
    /// DRAM transfer energy.
    pub dram_j: f64,
    /// Photonic front end (lasers, heaters) — supplied by the photonics
    /// crate, stored here for a single total.
    pub photonic_j: f64,
}

impl EnergyLedger {
    /// Total energy, joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.dac_j + self.adc_j + self.sram_j + self.dram_j + self.photonic_j
    }

    /// Adds another ledger item-wise.
    #[must_use]
    pub fn combined(&self, other: &EnergyLedger) -> EnergyLedger {
        EnergyLedger {
            dac_j: self.dac_j + other.dac_j,
            adc_j: self.adc_j + other.adc_j,
            sram_j: self.sram_j + other.sram_j,
            dram_j: self.dram_j + other.dram_j,
            photonic_j: self.photonic_j + other.photonic_j,
        }
    }

    /// The dominant item as `(name, joules)`.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, f64) {
        let items = [
            ("dac", self.dac_j),
            ("adc", self.adc_j),
            ("sram", self.sram_j),
            ("dram", self.dram_j),
            ("photonic", self.photonic_j),
        ];
        // The last of equal maxima wins, as with `Iterator::max_by`.
        let [first, rest @ ..] = items;
        rest.into_iter().fold(first, |best, it| {
            if it.1.total_cmp(&best.1).is_ge() {
                it
            } else {
                best
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let e = EnergyLedger {
            dac_j: 1.0,
            adc_j: 2.0,
            sram_j: 3.0,
            dram_j: 4.0,
            photonic_j: 5.0,
        };
        assert!((e.total_j() - 15.0).abs() < 1e-12);
        assert_eq!(e.dominant(), ("photonic", 5.0));
    }

    #[test]
    fn combine_adds() {
        let a = EnergyLedger {
            dac_j: 1.0,
            ..Default::default()
        };
        let b = EnergyLedger {
            dram_j: 2.0,
            ..Default::default()
        };
        let c = a.combined(&b);
        assert!((c.total_j() - 3.0).abs() < 1e-12);
    }
}
