//! Serving-oriented execution summaries (reproduction extension).
//!
//! The fleet simulator (`pcnna-fleet`) replays millions of requests against
//! a pool of PCNNA instances. Re-running
//! [`AnalyticalModel`](crate::analytical::AnalyticalModel) per request
//! would dominate the simulation, so this module collapses a whole network
//! on a given [`PcnnaConfig`] into a [`ServiceQuote`] — the affine
//! batch-cost model
//!
//! ```text
//! service_time(batch)  = weight_load + batch · per_frame
//! service_energy(batch) = weight_load_energy + batch · per_frame_energy
//! ```
//!
//! which is exact for the layer-major batched execution of
//! [`ExecutionModel::run_batched`]: per batch, each layer programs its MRR
//! weights once (the single weight-DAC bottleneck the paper describes) and
//! then streams every frame through. A quote is computed once per
//! (network, config) pair and is `Copy`, so a scheduler hot loop prices a
//! candidate batch with two multiply-adds and no allocation.
//!
//! ## One entry point, two axes
//!
//! [`service_quote`] is the single front door: a [`QuoteRequest`] carries
//! the config, power assumptions, layers, a [`HealthState`], and the
//! [`DegradationLimits`] it is judged against — the healthy case is just
//! [`HealthState::nominal`], which is the request builder's default. The
//! result prices **both** service axes:
//!
//! * **time/energy** — the affine batch-cost model above, re-derived on
//!   the surviving-channel config and carrying the laser-compensation
//!   energy of an aged diode;
//! * **accuracy** — an [`AccuracyQuote`]: the health's SNR penalty
//!   ([`health_snr_penalty_db`]) discounts the nominal converter ENOB to
//!   an effective datapath bit width, and a trained proxy net measured at
//!   that width ([`pcnna_cnn::train::quantized_top1`]) prices the top-1
//!   accuracy the instance would actually serve. The ladder behind it is
//!   a compiled table, checked in the tests against its oracle
//!   [`pcnna_cnn::train::measure_proxy_ladder`], which retrains the net.
//!   It does not depend on the network, so pricing accuracy is two table
//!   reads and no process trains anything before its first quote.

use crate::config::PcnnaConfig;
use crate::execution::ExecutionModel;
use crate::power::{PowerAssumptions, PowerModel};
use crate::Result;
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::train::quantized_top1;
use pcnna_electronics::time::SimTime;
use pcnna_photonics::degradation::{DegradationLimits, HealthState};
use pcnna_photonics::noise::health_snr_penalty_db;

/// The quoted inference quality of one network on one instance's health:
/// how many effective bits the analog datapath still resolves, and the
/// measured top-1 accuracy at that resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyQuote {
    /// Quoted electrical SNR of the analog readout, dB (nominal converter
    /// SNR plus the health's penalty).
    pub snr_db: f64,
    /// Effective datapath resolution, bits: the SNR's ENOB, further
    /// discounted by converter full-scale underutilization on an aged
    /// laser, clamped to `[1, nominal]`.
    pub effective_bits: u8,
    /// Measured proxy top-1 accuracy at `effective_bits`.
    pub top1_accuracy: f64,
    /// The same measurement on nominal hardware — the quote's ceiling.
    pub pristine_accuracy: f64,
}

/// The affine time/energy cost of serving one network on one config,
/// plus the accuracy the analog datapath delivers while doing so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceQuote {
    /// One-time cost per batch: reprogramming every layer's MRR bank
    /// through the weight DAC(s).
    pub weight_load: SimTime,
    /// Marginal cost per frame in the batch (compute + DRAM writeback).
    pub per_frame: SimTime,
    /// Energy of the per-batch weight reprogramming, joules.
    pub weight_load_energy_j: f64,
    /// Marginal energy per frame, joules (converters, DRAM, photonics at
    /// the analytical execution time).
    pub per_frame_energy_j: f64,
    /// The accuracy axis of the quote.
    pub accuracy: AccuracyQuote,
}

impl ServiceQuote {
    /// Service time for a batch of `batch` frames.
    #[must_use]
    pub fn batch_service_time(&self, batch: u64) -> SimTime {
        self.weight_load + self.per_frame.saturating_mul(batch)
    }

    /// Steady-state frames/second at a given batch size.
    #[must_use]
    pub fn throughput_fps(&self, batch: u64) -> f64 {
        let secs = self.batch_service_time(batch).as_secs_f64();
        if secs > 0.0 {
            batch as f64 / secs
        } else {
            0.0
        }
    }
}

/// Everything [`service_quote`] needs to price a network on an instance.
/// Built with [`QuoteRequest::new`], which defaults to nominal health and
/// the default serviceability envelope — the healthy quote is the request
/// with no further configuration.
#[derive(Debug, Clone, Copy)]
pub struct QuoteRequest<'a> {
    /// Instance configuration (nominal channel counts and converters).
    pub config: &'a PcnnaConfig,
    /// Power assumptions the energy terms are priced under.
    pub assumptions: &'a PowerAssumptions,
    /// The network, as named conv layers.
    pub layers: &'a [(&'a str, ConvGeometry)],
    /// The instance's health snapshot.
    pub health: HealthState,
    /// Serviceability envelope the health is judged against.
    pub limits: DegradationLimits,
}

impl<'a> QuoteRequest<'a> {
    /// A request for nominal hardware under the default serviceability
    /// envelope.
    #[must_use]
    pub fn new(
        config: &'a PcnnaConfig,
        assumptions: &'a PowerAssumptions,
        layers: &'a [(&'a str, ConvGeometry)],
    ) -> Self {
        QuoteRequest {
            config,
            assumptions,
            layers,
            health: HealthState::nominal(),
            limits: DegradationLimits::default(),
        }
    }

    /// The same request under a different health snapshot.
    #[must_use]
    pub fn with_health(mut self, health: HealthState) -> Self {
        self.health = health;
        self
    }

    /// The same request under a different serviceability envelope.
    #[must_use]
    pub fn with_limits(mut self, limits: DegradationLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// A quote re-derived for the requested hardware state, with the
/// derivation's provenance alongside (what capacity survived and what the
/// laser compensation costs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedQuote {
    /// The re-derived affine cost model (already includes the laser
    /// compensation energy) and the accuracy quote for the requested
    /// health.
    pub quote: ServiceQuote,
    /// Input-DAC channels still alive.
    pub effective_input_dacs: usize,
    /// Output-ADC channels still alive.
    pub effective_adcs: usize,
    /// Extra per-frame energy spent holding optical power nominal on an
    /// aged laser (zero at factor 1.0), joules.
    pub laser_compensation_j_per_frame: f64,
}

/// Prices the accuracy axis on `config` under `health`. The proxy ladder
/// is one trained net, not a model of each network, so the quote is the
/// same for every layer stack.
///
/// The chain is SNR → effective bits → measured top-1:
///
/// 1. Nominal hardware anchors at the ADC's effective resolution
///    ([`AdcModel::effective_bits`], ~8 ENOB for the paper's 10-bit
///    converter), i.e. `6.02·ENOB + 1.76` dB of electrical SNR.
/// 2. [`health_snr_penalty_db`] discounts that for thermal detuning,
///    laser aging, and dead-channel crosstalk.
/// 3. An aged laser additionally *underutilizes* the converters' fixed
///    full scale: the attenuated analog signal spans only `factor`× the
///    ADC range, wasting `log2(1/factor)` codes on headroom that carries
///    no signal — a resolution loss on top of the SNR loss.
/// 4. The effective width (floored, clamped to `[1, nominal]`) indexes
///    the measured proxy ladder in [`pcnna_cnn::train::quantized_top1`].
///
/// Monotone non-increasing under any worsening of `health`, and exactly
/// the pristine quote at [`HealthState::nominal`].
///
/// [`AdcModel::effective_bits`]: pcnna_electronics::adc::AdcModel::effective_bits
fn accuracy_quote(config: &PcnnaConfig, health: &HealthState) -> AccuracyQuote {
    let nominal_bits = config.adc.effective_bits();
    let nominal_snr_db = 6.02 * f64::from(nominal_bits) + 1.76;
    let penalty_db = health_snr_penalty_db(health);
    let snr_db = nominal_snr_db + penalty_db;
    let range_bits = health.laser_power_factor.max(1e-9).log2().min(0.0);
    let enob = f64::from(nominal_bits) + penalty_db / 6.02 + range_bits;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let effective_bits = enob.floor().clamp(1.0, f64::from(nominal_bits)) as u8;
    AccuracyQuote {
        snr_db,
        effective_bits,
        top1_accuracy: quantized_top1(effective_bits),
        pristine_accuracy: quantized_top1(nominal_bits),
    }
}

/// The time/energy terms for `layers` on `config`, with the accuracy
/// field priced at nominal health for this config.
///
/// The time terms are extracted from the batched execution model by
/// evaluating it at batch sizes 1 and 2 (the model is affine in the batch,
/// so this recovers intercept and slope exactly, and stays correct if the
/// underlying model gains terms later). Energy combines the per-layer
/// [`PowerModel`] ledgers with the weight-DAC energy of the reprogramming
/// phase.
///
/// Also returns the lasers' share of the per-frame energy,
/// `Σ lasers_w × exec_seconds`, read off the same ledger, so laser
/// compensation needs no second power pass.
fn raw_quote(
    config: &PcnnaConfig,
    assumptions: &PowerAssumptions,
    layers: &[(&str, ConvGeometry)],
) -> Result<(ServiceQuote, f64)> {
    let exec = ExecutionModel::new(*config)?;
    let b1 = exec.run_batched(layers, 1)?;
    let b2 = exec.run_batched(layers, 2)?;
    let per_frame = b2.total.saturating_sub(b1.total);
    let weight_load = b1.total.saturating_sub(per_frame);

    // Price per-frame energy at the *marginal* frame time. The power model
    // integrates power over `full_system_time`, which folds the weight-load
    // window in when `include_weight_load` is set — that window is already
    // billed separately below, once per batch, so force it out of the
    // per-frame term to avoid double-counting it `batch` times.
    let energy_config = PcnnaConfig {
        include_weight_load: false,
        ..*config
    };
    let ledger = PowerModel::new(energy_config, *assumptions)?.network_power(layers)?;
    let per_frame_energy_j: f64 = ledger.iter().map(|lp| lp.energy.total_j()).sum();
    let laser_j_per_frame: f64 = ledger
        .iter()
        .map(|lp| lp.photonic.lasers_w * lp.exec_seconds)
        .sum();
    // The reprogramming phase keeps the weight DAC(s) streaming set points
    // for the whole weight_load window.
    let weight_load_energy_j =
        config.input_dac.power_w * config.n_weight_dacs as f64 * weight_load.as_secs_f64();

    let quote = ServiceQuote {
        weight_load,
        per_frame,
        weight_load_energy_j,
        per_frame_energy_j,
        accuracy: accuracy_quote(config, &HealthState::nominal()),
    };
    Ok((quote, laser_j_per_frame))
}

/// The unified quote entry point: prices `request.layers` on
/// `request.config` under `request.health`, on both the time/energy and
/// accuracy axes.
///
/// The degradation maps onto the quote as:
///
/// * **Dead converter channels** shrink the effective `n_input_dacs` /
///   `n_adcs`, so the per-frame time (and the per-frame converter
///   energy, priced at the longer execution) rises — the quote is
///   re-run through the full execution model on the surviving-channel
///   config, not scaled.
/// * **Laser aging** costs energy, not time: the bias current is
///   raised to hold optical power (and thus SNR) at nominal, so each
///   frame carries an extra `(1/factor − 1) ×` the layer's laser
///   energy. What compensation cannot restore — converter full-scale
///   utilization — shows up on the accuracy axis instead.
/// * **Every health axis** discounts the [`AccuracyQuote`]: SNR → fewer
///   effective bits → lower measured top-1.
/// * **Thermal drift** beyond `limits` (or a laser below its floor)
///   means the programmed weights — or the SNR — are wrong: no quote
///   exists and the device must recalibrate. That, and losing the last
///   converter channel, returns `Ok(None)` (infeasible), which a fleet
///   treats as "this instance cannot serve until repaired".
///
/// With a nominal health snapshot every degradation term vanishes and
/// the result is the plain affine quote — the contract that keeps the
/// fleet oracle and control-policy regression artifacts byte-stable.
///
/// # Errors
///
/// Propagates configuration and per-layer resource failures from the
/// core models.
pub fn service_quote(request: &QuoteRequest) -> Result<Option<DegradedQuote>> {
    if !request.health.serviceable(&request.limits) {
        return Ok(None);
    }
    let effective_input_dacs = request
        .config
        .n_input_dacs
        .saturating_sub(request.health.dead_input_channels);
    let effective_adcs = request
        .config
        .n_adcs
        .saturating_sub(request.health.dead_output_channels);
    if effective_input_dacs == 0 || effective_adcs == 0 {
        return Ok(None);
    }
    let degraded = request
        .config
        .with_input_dacs(effective_input_dacs)
        .with_adcs(effective_adcs);
    let (mut q, laser_j_per_frame) = raw_quote(&degraded, request.assumptions, request.layers)?;

    // Laser compensation: holding the emitted power at nominal on a
    // diode whose wall-plug efficiency has slid to `factor` multiplies
    // the lasers' electrical draw by 1/factor. Only the laser share of
    // the per-frame energy scales — converters and DRAM don't care.
    let mut laser_compensation_j_per_frame = 0.0;
    if request.health.laser_power_factor < 1.0 {
        laser_compensation_j_per_frame =
            laser_j_per_frame * (1.0 / request.health.laser_power_factor - 1.0);
        q.per_frame_energy_j += laser_compensation_j_per_frame;
    }

    q.accuracy = accuracy_quote(request.config, &request.health);

    Ok(Some(DegradedQuote {
        quote: q,
        effective_input_dacs,
        effective_adcs,
        laser_compensation_j_per_frame,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcnna_cnn::zoo;

    fn nominal(layers: &[(&str, ConvGeometry)]) -> ServiceQuote {
        let cfg = PcnnaConfig::default();
        service_quote(&QuoteRequest::new(
            &cfg,
            &PowerAssumptions::default(),
            layers,
        ))
        .unwrap()
        .expect("nominal hardware is serviceable")
        .quote
    }

    #[test]
    fn quote_matches_batched_execution_exactly() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let q = nominal(&layers);
        let exec = ExecutionModel::new(cfg).unwrap();
        for batch in [1u64, 2, 7, 64, 1024] {
            let direct = exec.run_batched(&layers, batch).unwrap();
            assert_eq!(q.batch_service_time(batch), direct.total, "batch {batch}");
        }
    }

    #[test]
    fn quote_terms_are_positive_for_alexnet() {
        let q = nominal(&zoo::alexnet_conv_layers());
        assert!(q.weight_load > SimTime::ZERO);
        assert!(q.per_frame > SimTime::ZERO);
        assert!(q.weight_load_energy_j > 0.0);
        assert!(q.per_frame_energy_j > 0.0);
        assert!(q.accuracy.top1_accuracy > 0.0);
        assert!(q.accuracy.effective_bits >= 1);
    }

    #[test]
    fn batching_amortizes_weight_load_in_quote() {
        let q = nominal(&zoo::alexnet_conv_layers());
        assert!(q.throughput_fps(64) > q.throughput_fps(1));
        assert!(q.throughput_fps(1024) > q.throughput_fps(64));
    }

    #[test]
    fn per_frame_energy_excludes_weight_load_regardless_of_config() {
        // With include_weight_load set, full_system_time folds the reload
        // window in; the quote must still bill that window once per batch,
        // not once per frame.
        let layers = zoo::alexnet_conv_layers();
        let without = nominal(&layers);
        let cfg = PcnnaConfig {
            include_weight_load: true,
            ..PcnnaConfig::default()
        };
        let with = service_quote(&QuoteRequest::new(
            &cfg,
            &PowerAssumptions::default(),
            &layers,
        ))
        .unwrap()
        .unwrap()
        .quote;
        assert_eq!(with.per_frame_energy_j, without.per_frame_energy_j);
        assert_eq!(with.weight_load_energy_j, without.weight_load_energy_j);
    }

    #[test]
    fn nominal_health_quotes_bit_identically() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let plain = nominal(&layers);
        let degraded = service_quote(
            &QuoteRequest::new(&cfg, &PowerAssumptions::default(), &layers)
                .with_health(HealthState::nominal()),
        )
        .unwrap()
        .expect("nominal hardware is serviceable");
        assert_eq!(degraded.quote, plain);
        assert_eq!(degraded.effective_input_dacs, cfg.n_input_dacs);
        assert_eq!(degraded.effective_adcs, cfg.n_adcs);
        assert_eq!(degraded.laser_compensation_j_per_frame, 0.0);
    }

    #[test]
    fn dead_channels_slow_the_quote_down() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let healthy = nominal(&layers);
        let half = service_quote(
            &QuoteRequest::new(&cfg, &PowerAssumptions::default(), &layers).with_health(
                HealthState {
                    dead_input_channels: 5,
                    ..HealthState::nominal()
                },
            ),
        )
        .unwrap()
        .unwrap();
        assert_eq!(half.effective_input_dacs, 5);
        assert!(
            half.quote.per_frame > healthy.per_frame,
            "losing half the input DACs must lengthen the frame time"
        );
        // matches an explicit re-quote of the surviving-channel config —
        // on the time/energy axes; the accuracy axis sees the dead
        // channels' crosstalk, which a clean 5-DAC config doesn't have
        let explicit = service_quote(&QuoteRequest::new(
            &cfg.with_input_dacs(5),
            &PowerAssumptions::default(),
            &layers,
        ))
        .unwrap()
        .unwrap()
        .quote;
        assert_eq!(half.quote.weight_load, explicit.weight_load);
        assert_eq!(half.quote.per_frame, explicit.per_frame);
        assert_eq!(
            half.quote.weight_load_energy_j,
            explicit.weight_load_energy_j
        );
        assert_eq!(half.quote.per_frame_energy_j, explicit.per_frame_energy_j);
        assert!(half.quote.accuracy.snr_db < explicit.accuracy.snr_db);
    }

    #[test]
    fn laser_aging_costs_energy_not_time() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let healthy = nominal(&layers);
        let aged = service_quote(
            &QuoteRequest::new(&cfg, &PowerAssumptions::default(), &layers).with_health(
                HealthState {
                    laser_power_factor: 0.5,
                    ..HealthState::nominal()
                },
            ),
        )
        .unwrap()
        .unwrap();
        assert_eq!(aged.quote.per_frame, healthy.per_frame, "time unchanged");
        assert_eq!(aged.quote.weight_load, healthy.weight_load);
        assert!(aged.laser_compensation_j_per_frame > 0.0);
        assert!(
            aged.quote.per_frame_energy_j > healthy.per_frame_energy_j,
            "holding SNR on an aged laser must cost energy"
        );
        assert!(
            (aged.quote.per_frame_energy_j
                - healthy.per_frame_energy_j
                - aged.laser_compensation_j_per_frame)
                .abs()
                < 1e-15,
            "the delta is exactly the reported compensation"
        );
        // compensation holds the power but not the converter utilization:
        // the accuracy axis still pays
        assert!(aged.quote.accuracy.effective_bits < healthy.accuracy.effective_bits);
    }

    /// The two-pass laser compensation `service_quote` used to run: a
    /// second power model over the degraded, weight-load-free config.
    fn two_pass_laser_compensation_j(
        config: &PcnnaConfig,
        layers: &[(&str, ConvGeometry)],
        factor: f64,
    ) -> f64 {
        let power = PowerModel::new(
            PcnnaConfig {
                include_weight_load: false,
                ..*config
            },
            PowerAssumptions::default(),
        )
        .unwrap();
        let laser_j_per_frame: f64 = power
            .network_power(layers)
            .unwrap()
            .iter()
            .map(|lp| lp.photonic.lasers_w * lp.exec_seconds)
            .sum();
        laser_j_per_frame * (1.0 / factor - 1.0)
    }

    #[test]
    fn laser_compensation_reuses_the_first_power_pass_bit_identically() {
        let cfg = PcnnaConfig::default();
        let assumptions = PowerAssumptions::default();
        let lenet = zoo::lenet5();
        let lenet_layers: Vec<(&str, ConvGeometry)> = lenet
            .conv_layers()
            .map(|c| (c.name.as_str(), c.geometry))
            .collect();
        for layers in [lenet_layers, zoo::alexnet_conv_layers()] {
            let healthy = nominal(&layers);
            for factor in [0.9, 0.7, 0.5] {
                let aged = service_quote(
                    &QuoteRequest::new(&cfg, &assumptions, &layers).with_health(HealthState {
                        laser_power_factor: factor,
                        ..HealthState::nominal()
                    }),
                )
                .unwrap()
                .unwrap();
                let compensation = two_pass_laser_compensation_j(&cfg, &layers, factor);
                assert_eq!(
                    aged.laser_compensation_j_per_frame.to_bits(),
                    compensation.to_bits(),
                    "factor {factor}"
                );
                assert_eq!(
                    aged.quote.per_frame_energy_j.to_bits(),
                    (healthy.per_frame_energy_j + compensation).to_bits(),
                    "factor {factor}"
                );
            }
        }
    }

    #[test]
    fn infeasible_degradations_return_none() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let q = |health: HealthState| {
            service_quote(
                &QuoteRequest::new(&cfg, &PowerAssumptions::default(), &layers).with_health(health),
            )
            .unwrap()
        };
        let limits = DegradationLimits::default();
        // thermal drift past the budget: weights are wrong
        assert!(q(HealthState {
            ambient_delta_k: limits.max_ambient_excursion_k * 2.0,
            ..HealthState::nominal()
        })
        .is_none());
        // laser below the SNR floor
        assert!(q(HealthState {
            laser_power_factor: limits.min_laser_power_factor * 0.5,
            ..HealthState::nominal()
        })
        .is_none());
        // every input channel dead
        assert!(q(HealthState {
            dead_input_channels: cfg.n_input_dacs,
            ..HealthState::nominal()
        })
        .is_none());
        // every output channel dead (even overshooting the count)
        assert!(q(HealthState {
            dead_output_channels: cfg.n_adcs + 7,
            ..HealthState::nominal()
        })
        .is_none());
    }

    #[test]
    fn empty_network_quotes_zero() {
        let q = nominal(&[]);
        assert_eq!(q.weight_load, SimTime::ZERO);
        assert_eq!(q.per_frame, SimTime::ZERO);
        assert_eq!(q.weight_load_energy_j, 0.0);
        assert_eq!(q.per_frame_energy_j, 0.0);
    }

    #[test]
    fn accuracy_equals_pristine_at_nominal_health() {
        let q = nominal(&zoo::alexnet_conv_layers());
        assert_eq!(q.accuracy.top1_accuracy, q.accuracy.pristine_accuracy);
        assert_eq!(
            q.accuracy.effective_bits,
            PcnnaConfig::default().adc.effective_bits()
        );
        assert_eq!(q.accuracy.snr_db, 6.02 * 8.0 + 1.76);
    }

    #[test]
    fn accuracy_is_monotone_under_worsening_health() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let assumptions = PowerAssumptions::default();
        // a loose envelope so every rung stays serviceable
        let limits = DegradationLimits {
            max_ambient_excursion_k: 10.0,
            min_laser_power_factor: 0.01,
        };
        let acc = |health: HealthState| {
            service_quote(
                &QuoteRequest::new(&cfg, &assumptions, &layers)
                    .with_health(health)
                    .with_limits(limits),
            )
            .unwrap()
            .expect("serviceable under the loose envelope")
            .quote
            .accuracy
        };
        // drift axis
        let mut prev = acc(HealthState::nominal());
        for i in 1..=8 {
            let now = acc(HealthState {
                ambient_delta_k: 0.25 * f64::from(i),
                ..HealthState::nominal()
            });
            assert!(now.top1_accuracy <= prev.top1_accuracy, "drift step {i}");
            assert!(now.effective_bits <= prev.effective_bits);
            assert!(now.snr_db < prev.snr_db);
            prev = now;
        }
        // laser axis
        prev = acc(HealthState::nominal());
        for i in 1..=9 {
            let now = acc(HealthState {
                laser_power_factor: 1.0 - 0.1 * f64::from(i),
                ..HealthState::nominal()
            });
            assert!(now.top1_accuracy <= prev.top1_accuracy, "laser step {i}");
            assert!(now.effective_bits <= prev.effective_bits);
            prev = now;
        }
        // dead-channel axis
        prev = acc(HealthState::nominal());
        for i in 1..=6usize {
            let now = acc(HealthState {
                dead_input_channels: i,
                dead_output_channels: i / 2,
                ..HealthState::nominal()
            });
            assert!(now.top1_accuracy <= prev.top1_accuracy, "dead step {i}");
            assert!(now.effective_bits <= prev.effective_bits);
            prev = now;
        }
    }

    #[test]
    fn heavy_degradation_costs_real_accuracy() {
        let cfg = PcnnaConfig::default();
        let layers = zoo::alexnet_conv_layers();
        let loose = DegradationLimits {
            max_ambient_excursion_k: 2.0,
            min_laser_power_factor: 0.1,
        };
        let hot = service_quote(
            &QuoteRequest::new(&cfg, &PowerAssumptions::default(), &layers)
                .with_health(HealthState {
                    ambient_delta_k: 1.0,
                    ..HealthState::nominal()
                })
                .with_limits(loose),
        )
        .unwrap()
        .unwrap()
        .quote
        .accuracy;
        assert!(
            hot.top1_accuracy < hot.pristine_accuracy - 0.05,
            "1 K of uncompensated drift should visibly cost top-1: {} vs {}",
            hot.top1_accuracy,
            hot.pristine_accuracy
        );
    }

    #[test]
    fn accuracy_quote_is_bit_identical_across_threads() {
        // A barrier starts all nine callers together, so unless another
        // test got there first they also race to train the process-wide
        // proxy ladder.
        let healths = [
            HealthState::nominal(),
            HealthState {
                ambient_delta_k: 0.6,
                ..HealthState::nominal()
            },
            HealthState {
                laser_power_factor: 0.35,
                ..HealthState::nominal()
            },
        ];
        let start = std::sync::Barrier::new(9);
        let run = || {
            start.wait();
            let cfg = PcnnaConfig::default();
            healths
                .iter()
                .map(|h| accuracy_quote(&cfg, h))
                .collect::<Vec<_>>()
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8).map(|_| scope.spawn(run)).collect();
            let baseline = run();
            for worker in workers {
                let got = worker.join().expect("worker thread");
                for (a, b) in got.iter().zip(&baseline) {
                    assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
                    assert_eq!(a.effective_bits, b.effective_bits);
                    assert_eq!(a.top1_accuracy.to_bits(), b.top1_accuracy.to_bits());
                    assert_eq!(a.pristine_accuracy.to_bits(), b.pristine_accuracy.to_bits());
                }
            }
        });
    }
}
