//! Waveguide propagation and splitting losses; link power budgets.
//!
//! Broadcast-and-weight bundles all carriers onto one waveguide and
//! *broadcasts* them to every weight bank — each of the `K` kernels' banks
//! taps the bus through a splitter. Loss therefore scales with both the
//! physical route length and the fan-out, and it is what ultimately bounds
//! how many kernels can share one broadcast bus at a given laser power.

use crate::{PhotonicError, Result};

/// Converts dB to a linear power factor.
#[must_use]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power factor to dB.
#[must_use]
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Passive-loss model of an on-chip optical route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveguideModel {
    /// Propagation loss, dB/cm.
    pub loss_db_per_cm: f64,
    /// Excess loss per splitter stage, dB (on top of the 3 dB split).
    pub splitter_excess_db: f64,
    /// Per-coupler (bank tap) insertion loss, dB.
    pub coupler_loss_db: f64,
}

impl Default for WaveguideModel {
    /// Typical SOI strip waveguide: 2 dB/cm, 0.2 dB splitter excess,
    /// 0.5 dB per coupler.
    fn default() -> Self {
        WaveguideModel {
            loss_db_per_cm: 2.0,
            splitter_excess_db: 0.2,
            coupler_loss_db: 0.5,
        }
    }
}

impl WaveguideModel {
    /// Validates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidParameter`] for negative losses.
    pub fn validate(&self) -> Result<()> {
        if self.loss_db_per_cm < 0.0 || self.splitter_excess_db < 0.0 || self.coupler_loss_db < 0.0
        {
            return Err(PhotonicError::InvalidParameter {
                reason: "losses must be non-negative dB".to_owned(),
            });
        }
        Ok(())
    }

    /// Linear transmission of a straight run of `length_cm`.
    #[must_use]
    pub fn propagation_transmission(&self, length_cm: f64) -> f64 {
        db_to_linear(-self.loss_db_per_cm * length_cm.max(0.0))
    }

    /// Total loss (dB) of a 1-to-`fanout` broadcast tree built from 1x2
    /// splitters: `ceil(log2 fanout)` stages of (3 dB + excess).
    #[must_use]
    pub fn broadcast_loss_db(&self, fanout: usize) -> f64 {
        if fanout <= 1 {
            return 0.0;
        }
        let stages = (fanout as f64).log2().ceil();
        stages * (3.0 + self.splitter_excess_db)
    }

    /// Linear transmission of the full path from laser to one weight bank:
    /// propagation over `length_cm`, broadcast to `fanout` banks, one
    /// coupler into the bank.
    #[must_use]
    pub fn path_transmission(&self, length_cm: f64, fanout: usize) -> f64 {
        self.propagation_transmission(length_cm)
            * db_to_linear(-self.broadcast_loss_db(fanout))
            * db_to_linear(-self.coupler_loss_db)
    }
}

/// End-to-end optical link budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Launched per-channel power, dBm.
    pub launch_dbm: f64,
    /// Total passive loss, dB.
    pub loss_db: f64,
    /// Receiver sensitivity (minimum detectable per-channel power), dBm.
    pub sensitivity_dbm: f64,
}

impl LinkBudget {
    /// Received power, dBm.
    #[must_use]
    pub fn received_dbm(&self) -> f64 {
        self.launch_dbm - self.loss_db
    }

    /// Margin above sensitivity, dB. Negative = link does not close.
    #[must_use]
    pub fn margin_db(&self) -> f64 {
        self.received_dbm() - self.sensitivity_dbm
    }

    /// Whether the link closes.
    #[must_use]
    pub fn closes(&self) -> bool {
        self.margin_db() >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_conversions_roundtrip() {
        for &db in &[-30.0, -3.0, 0.0, 3.0, 10.0] {
            let lin = db_to_linear(db);
            assert!((linear_to_db(lin) - db).abs() < 1e-9);
        }
        assert!((db_to_linear(-3.0) - 0.501).abs() < 1e-3);
    }

    #[test]
    fn validation_rejects_negative_losses() {
        assert!(WaveguideModel {
            loss_db_per_cm: -1.0,
            ..WaveguideModel::default()
        }
        .validate()
        .is_err());
        assert!(WaveguideModel::default().validate().is_ok());
    }

    #[test]
    fn propagation_loss_compounds_with_length() {
        let wg = WaveguideModel::default();
        let t1 = wg.propagation_transmission(1.0);
        let t2 = wg.propagation_transmission(2.0);
        assert!((t2 - t1 * t1).abs() < 1e-12);
        assert_eq!(wg.propagation_transmission(0.0), 1.0);
        assert_eq!(wg.propagation_transmission(-5.0), 1.0);
    }

    #[test]
    fn broadcast_loss_grows_logarithmically() {
        let wg = WaveguideModel::default();
        assert_eq!(wg.broadcast_loss_db(1), 0.0);
        let l2 = wg.broadcast_loss_db(2);
        let l4 = wg.broadcast_loss_db(4);
        let l96 = wg.broadcast_loss_db(96); // AlexNet conv1's K
        assert!((l2 - 3.2).abs() < 1e-12);
        assert!((l4 - 6.4).abs() < 1e-12);
        assert!((l96 - 7.0 * 3.2).abs() < 1e-12); // ceil(log2 96) = 7
    }

    #[test]
    fn path_transmission_combines_all_terms() {
        let wg = WaveguideModel::default();
        let t = wg.path_transmission(0.5, 4);
        let expect = db_to_linear(-(2.0 * 0.5) - 6.4 - 0.5);
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn link_budget_margin_and_closure() {
        let lb = LinkBudget {
            launch_dbm: 0.0,
            loss_db: 15.0,
            sensitivity_dbm: -20.0,
        };
        assert!((lb.received_dbm() + 15.0).abs() < 1e-12);
        assert!((lb.margin_db() - 5.0).abs() < 1e-12);
        assert!(lb.closes());
        let bad = LinkBudget {
            loss_db: 25.0,
            ..lb
        };
        assert!(!bad.closes());
    }
}
