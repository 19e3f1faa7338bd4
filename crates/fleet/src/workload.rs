//! Request workloads: network classes, traffic mixes, arrival processes.
//!
//! A [`NetworkClass`] pairs a conv-layer stack from the model zoo with a
//! latency SLO and a traffic weight. An [`ArrivalProcess`] generates the
//! request arrival times; all three processes are sampled by thinning
//! against their peak rate, which keeps one code path exact for the
//! homogeneous (Poisson), Markov-modulated (MMPP), and time-varying
//! (diurnal) cases.

use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::network::Network;
use pcnna_cnn::zoo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A served network: its conv stack, SLO, and share of the traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkClass {
    /// Class name (used in per-class reporting).
    pub name: String,
    /// The conv-layer stack PCNNA executes for one request.
    pub layers: Vec<(String, ConvGeometry)>,
    /// Latency SLO, seconds from arrival to completion.
    pub slo_s: f64,
    /// Relative traffic weight within the mix (need not be normalized).
    pub weight: f64,
    /// Accuracy SLO: minimum quoted top-1 accuracy this class accepts,
    /// in `[0, 1]`. `0.0` (the default) disables the floor — latency is
    /// then the only service dimension, which is the pre-accuracy
    /// contract. The floor is compared against the engine's quoted
    /// [`AccuracyQuote::top1_accuracy`] per instance; see
    /// [`FleetScenario::accuracy_routing`] for how violations are
    /// handled.
    ///
    /// [`AccuracyQuote::top1_accuracy`]: pcnna_core::serving::AccuracyQuote
    /// [`FleetScenario::accuracy_routing`]: crate::engine::FleetScenario::accuracy_routing
    pub min_accuracy: f64,
}

impl NetworkClass {
    /// Builds a class from borrowed layer names (zoo format).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        layers: &[(&str, ConvGeometry)],
        slo_s: f64,
        weight: f64,
    ) -> Self {
        NetworkClass {
            name: name.into(),
            layers: layers.iter().map(|(n, g)| ((*n).to_owned(), *g)).collect(),
            slo_s,
            weight,
            min_accuracy: 0.0,
        }
    }

    /// Builds a class from a zoo [`Network`]'s conv layers.
    #[must_use]
    pub fn from_network(net: &Network, slo_s: f64, weight: f64) -> Self {
        NetworkClass {
            name: net.name().to_owned(),
            layers: net
                .conv_layers()
                .map(|c| (c.name.clone(), c.geometry))
                .collect(),
            slo_s,
            weight,
            min_accuracy: 0.0,
        }
    }

    /// Sets the class's accuracy SLO (builder form).
    #[must_use]
    pub fn with_min_accuracy(mut self, min_accuracy: f64) -> Self {
        self.min_accuracy = min_accuracy;
        self
    }

    /// The paper's AlexNet conv stack.
    #[must_use]
    pub fn alexnet(slo_s: f64, weight: f64) -> Self {
        NetworkClass::new("alexnet", &zoo::alexnet_conv_layers(), slo_s, weight)
    }

    /// LeNet-5's conv stack (light requests).
    #[must_use]
    pub fn lenet5(slo_s: f64, weight: f64) -> Self {
        NetworkClass::from_network(&zoo::lenet5(), slo_s, weight)
    }

    /// VGG-16's conv stack (heavy requests).
    #[must_use]
    pub fn vgg16(slo_s: f64, weight: f64) -> Self {
        NetworkClass::new("vgg16", &zoo::vgg16_conv_layers(), slo_s, weight)
    }

    /// Layers in the borrowed form a `pcnna_core::serving::QuoteRequest`
    /// expects.
    #[must_use]
    pub fn layer_refs(&self) -> Vec<(&str, ConvGeometry)> {
        self.layers.iter().map(|(n, g)| (n.as_str(), *g)).collect()
    }
}

/// Weighted class sampling over a *borrowed* class list.
///
/// The engine builds one of these per run from `&scenario.classes`, so
/// no class's layer stack is copied. Construction is O(classes) once;
/// sampling is an allocation-free binary search per request.
#[derive(Debug, Clone)]
pub struct ClassSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ClassSampler {
    /// Builds a sampler from the classes' weights.
    ///
    /// Accepts any input without panicking; degenerate weight sets get
    /// the documented defaults described on [`sample`](Self::sample).
    /// Use [`try_new`](Self::try_new) to reject them instead.
    #[must_use]
    pub fn new(classes: &[NetworkClass]) -> Self {
        let mut acc = 0.0;
        let cumulative = classes
            .iter()
            .map(|c| {
                acc += c.weight;
                acc
            })
            .collect();
        ClassSampler {
            cumulative,
            total: acc,
        }
    }

    /// [`new`](Self::new), but rejecting mixes a weighted draw cannot
    /// be meaningfully defined over.
    ///
    /// # Errors
    ///
    /// Returns a reason string for an empty class list, a non-finite
    /// or negative weight, or an all-zero weight total.
    pub fn try_new(classes: &[NetworkClass]) -> core::result::Result<Self, String> {
        if classes.is_empty() {
            return Err("traffic mix has no classes to sample".to_owned());
        }
        for c in classes {
            if !c.weight.is_finite() || c.weight < 0.0 {
                return Err(format!(
                    "class {} weight must be finite and non-negative, got {}",
                    c.name, c.weight
                ));
            }
        }
        let sampler = ClassSampler::new(classes);
        if !(sampler.total > 0.0) {
            return Err("traffic mix weights sum to zero".to_owned());
        }
        Ok(sampler)
    }

    /// Draws a class index proportional to the weights: the first class
    /// whose cumulative weight reaches a uniform draw over the total.
    ///
    /// Documented defaults at the edges (no panics): an **empty**
    /// sampler returns 0 (no valid index exists — don't sample an
    /// empty mix you admitted past [`try_new`](Self::try_new)), and a
    /// zero/negative total degenerates to a constant pick.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x = rng.gen_range(0.0..self.total.max(f64::MIN_POSITIVE));
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len().saturating_sub(1))
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Monotone sequence number.
    pub id: u64,
    /// Index into the scenario's class list.
    pub class: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// SLO deadline, seconds (arrival + class SLO).
    pub deadline_s: f64,
}

/// The request arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean rate, requests/second.
        rate_rps: f64,
    },
    /// Two-state Markov-modulated Poisson process (bursty traffic): the
    /// rate alternates between `low_rps` and `high_rps` with exponentially
    /// distributed dwell times.
    Mmpp {
        /// Rate in the quiet state, requests/second.
        low_rps: f64,
        /// Rate in the burst state, requests/second.
        high_rps: f64,
        /// Mean dwell in the quiet state, seconds.
        dwell_low_s: f64,
        /// Mean dwell in the burst state, seconds.
        dwell_high_s: f64,
    },
    /// Sinusoidal diurnal cycle: rate(t) ramps `base_rps → peak_rps → base`
    /// over each `period_s` (a compressed day).
    Diurnal {
        /// Trough rate, requests/second.
        base_rps: f64,
        /// Peak rate, requests/second.
        peak_rps: f64,
        /// Cycle length, seconds.
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean rate, requests/second.
    #[must_use]
    pub fn mean_rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                dwell_low_s,
                dwell_high_s,
            } => {
                let total = dwell_low_s + dwell_high_s;
                if total > 0.0 {
                    (low_rps * dwell_low_s + high_rps * dwell_high_s) / total
                } else {
                    0.5 * (low_rps + high_rps)
                }
            }
            ArrivalProcess::Diurnal {
                base_rps, peak_rps, ..
            } => 0.5 * (base_rps + peak_rps),
        }
    }

    /// The peak instantaneous rate (the thinning envelope).
    #[must_use]
    pub fn peak_rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Mmpp {
                low_rps, high_rps, ..
            } => low_rps.max(high_rps),
            ArrivalProcess::Diurnal {
                base_rps, peak_rps, ..
            } => base_rps.max(peak_rps),
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a reason string for non-positive or non-finite rates.
    pub fn validate(&self) -> core::result::Result<(), String> {
        let check = |label: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{label} must be finite and positive, got {v}"))
            }
        };
        match *self {
            ArrivalProcess::Poisson { rate_rps } => check("rate_rps", rate_rps),
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                dwell_low_s,
                dwell_high_s,
            } => {
                check("low_rps", low_rps)?;
                check("high_rps", high_rps)?;
                check("dwell_low_s", dwell_low_s)?;
                check("dwell_high_s", dwell_high_s)
            }
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => {
                check("base_rps", base_rps)?;
                check("peak_rps", peak_rps)?;
                check("period_s", period_s)
            }
        }
    }
}

/// Streaming arrival-time sampler (Lewis–Shedler thinning against the
/// process's peak rate; exact for all three process shapes).
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    rng: StdRng,
    t: f64,
    // MMPP modulation state.
    in_high_state: bool,
    next_switch_s: f64,
    // False when the process failed validation at construction: the
    // thinning loop (and the MMPP state walk) can spin forever on
    // zero rates, zero dwells, or a zero diurnal period, so an invalid
    // process is pinned to "never arrives" instead.
    valid: bool,
}

impl ArrivalSampler {
    /// Starts a sampler at t = 0.
    ///
    /// Documented default (no panics, no hangs): a process that fails
    /// [`ArrivalProcess::validate`] — zero/NaN rates, zero dwells, a
    /// zero diurnal period — yields a sampler whose every arrival is
    /// at `f64::INFINITY`, i.e. **no arrivals ever**. Use
    /// [`try_new`](Self::try_new) to surface the error instead.
    #[must_use]
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let valid = process.validate().is_ok();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7A61C);
        let (in_high_state, next_switch_s) = match process {
            ArrivalProcess::Mmpp { dwell_low_s, .. } if valid => {
                (false, exp_sample(&mut rng, 1.0 / dwell_low_s))
            }
            _ => (false, f64::INFINITY),
        };
        ArrivalSampler {
            process,
            rng,
            t: 0.0,
            in_high_state,
            next_switch_s,
            valid,
        }
    }

    /// [`new`](Self::new), but propagating the validation error.
    ///
    /// # Errors
    ///
    /// Returns the [`ArrivalProcess::validate`] reason string.
    pub fn try_new(process: ArrivalProcess, seed: u64) -> core::result::Result<Self, String> {
        process.validate()?;
        Ok(ArrivalSampler::new(process, seed))
    }

    /// Instantaneous rate at time `t`, advancing modulation state to `t`.
    fn rate_at(&mut self, t: f64) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate_rps } => rate_rps,
            ArrivalProcess::Mmpp {
                low_rps,
                high_rps,
                dwell_low_s,
                dwell_high_s,
            } => {
                while t >= self.next_switch_s {
                    self.in_high_state = !self.in_high_state;
                    let mean_dwell = if self.in_high_state {
                        dwell_high_s
                    } else {
                        dwell_low_s
                    };
                    self.next_switch_s += exp_sample(&mut self.rng, 1.0 / mean_dwell);
                }
                if self.in_high_state {
                    high_rps
                } else {
                    low_rps
                }
            }
            ArrivalProcess::Diurnal {
                base_rps,
                peak_rps,
                period_s,
            } => {
                let phase = (t / period_s) * core::f64::consts::TAU;
                base_rps + (peak_rps - base_rps) * 0.5 * (1.0 - phase.cos())
            }
        }
    }

    /// The next arrival time, seconds (monotone increasing; always
    /// `f64::INFINITY` for a sampler built over an invalid process).
    pub fn next_arrival_s(&mut self) -> f64 {
        if !self.valid {
            return f64::INFINITY;
        }
        // Homogeneous fast path: a Poisson process is its own thinning
        // envelope (every candidate accepts), so skip the acceptance
        // machinery on the per-request hot path.
        if let ArrivalProcess::Poisson { rate_rps } = self.process {
            self.t += exp_sample(&mut self.rng, rate_rps);
            return self.t;
        }
        let peak = self.process.peak_rate_rps();
        loop {
            self.t += exp_sample(&mut self.rng, peak);
            let accept = self.rate_at(self.t) / peak;
            if accept >= 1.0 || self.rng.gen_range(0.0..1.0) < accept {
                return self.t;
            }
        }
    }
}

/// Exponential sample with the given rate.
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_arrivals(p: ArrivalProcess, horizon: f64, seed: u64) -> usize {
        let mut s = ArrivalSampler::new(p, seed);
        let mut n = 0;
        while s.next_arrival_s() < horizon {
            n += 1;
        }
        n
    }

    #[test]
    fn poisson_rate_is_respected() {
        let n = count_arrivals(ArrivalProcess::Poisson { rate_rps: 1000.0 }, 10.0, 7);
        // 10k expected, sd = 100 — accept ±5 sd.
        assert!((9_500..10_500).contains(&n), "{n}");
    }

    #[test]
    fn mmpp_mean_rate_is_between_states() {
        let p = ArrivalProcess::Mmpp {
            low_rps: 100.0,
            high_rps: 2000.0,
            dwell_low_s: 0.5,
            dwell_high_s: 0.5,
        };
        let n = count_arrivals(p, 50.0, 11) as f64 / 50.0;
        assert!(n > 150.0 && n < 2000.0, "measured rate {n}");
        assert!((p.mean_rate_rps() - 1050.0).abs() < 1e-9);
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Windowed counts: the MMPP's variance-to-mean ratio should exceed
        // a rate-matched Poisson's.
        let horizon = 100.0;
        let window = 0.25;
        let vmr = |p: ArrivalProcess, seed| {
            let mut s = ArrivalSampler::new(p, seed);
            let mut counts = vec![0f64; (horizon / window) as usize];
            loop {
                let t = s.next_arrival_s();
                if t >= horizon {
                    break;
                }
                counts[(t / window) as usize] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
            var / mean
        };
        let mmpp = vmr(
            ArrivalProcess::Mmpp {
                low_rps: 50.0,
                high_rps: 1500.0,
                dwell_low_s: 1.0,
                dwell_high_s: 1.0,
            },
            3,
        );
        let poisson = vmr(ArrivalProcess::Poisson { rate_rps: 775.0 }, 3);
        assert!(
            mmpp > 2.0 * poisson,
            "MMPP VMR {mmpp:.2} vs Poisson {poisson:.2}"
        );
    }

    #[test]
    fn diurnal_peak_window_beats_trough_window() {
        let p = ArrivalProcess::Diurnal {
            base_rps: 100.0,
            peak_rps: 2000.0,
            period_s: 10.0,
        };
        let mut s = ArrivalSampler::new(p, 5);
        let (mut trough, mut peak) = (0u64, 0u64);
        loop {
            let t = s.next_arrival_s();
            if t >= 10.0 {
                break;
            }
            // rate(t) peaks at t = period/2 and troughs at t = 0 / period.
            if (4.0..6.0).contains(&t) {
                peak += 1;
            } else if !(1.0..=9.0).contains(&t) {
                trough += 1;
            }
        }
        assert!(peak > 4 * trough.max(1), "peak {peak} trough {trough}");
    }

    #[test]
    fn mix_sampling_follows_weights() {
        let sampler = ClassSampler::new(&[
            NetworkClass::lenet5(0.01, 3.0),
            NetworkClass::alexnet(0.05, 1.0),
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 40_000;
        let lenet = (0..n).filter(|_| sampler.sample(&mut rng) == 0).count();
        let share = lenet as f64 / n as f64;
        assert!((share - 0.75).abs() < 0.02, "share {share}");
    }

    #[test]
    fn class_constructors_carry_zoo_layers() {
        assert_eq!(NetworkClass::alexnet(0.05, 1.0).layers.len(), 5);
        assert_eq!(NetworkClass::lenet5(0.01, 1.0).layers.len(), 3);
        assert_eq!(NetworkClass::vgg16(0.1, 1.0).layers.len(), 13);
    }

    #[test]
    fn degenerate_arrival_processes_never_arrive_and_never_hang() {
        // Regression: these all used to hang (MMPP zero dwells spin the
        // state walk; a zero diurnal period makes the acceptance
        // probability NaN, rejecting forever) or poison t with inf.
        let degenerate = [
            ArrivalProcess::Poisson { rate_rps: 0.0 },
            ArrivalProcess::Poisson { rate_rps: f64::NAN },
            ArrivalProcess::Mmpp {
                low_rps: 100.0,
                high_rps: 1000.0,
                dwell_low_s: 0.0,
                dwell_high_s: 0.0,
            },
            ArrivalProcess::Diurnal {
                base_rps: 100.0,
                peak_rps: 1000.0,
                period_s: 0.0,
            },
        ];
        for p in degenerate {
            let mut s = ArrivalSampler::new(p, 1);
            for _ in 0..3 {
                assert_eq!(s.next_arrival_s(), f64::INFINITY, "{p:?}");
            }
            assert!(ArrivalSampler::try_new(p, 1).is_err(), "{p:?}");
        }
        assert!(ArrivalSampler::try_new(ArrivalProcess::Poisson { rate_rps: 10.0 }, 1).is_ok());
    }

    #[test]
    fn empty_and_zero_weight_mixes_use_documented_defaults() {
        let mut rng = StdRng::seed_from_u64(4);
        // empty mix: index 0, not an underflow panic on len() - 1
        let empty_sampler = ClassSampler::new(&[]);
        assert_eq!(empty_sampler.sample(&mut rng), 0);
        assert!(ClassSampler::try_new(&[]).is_err());
        // all-zero weights: constant pick, and try_new rejects
        let zero = vec![
            NetworkClass::lenet5(0.01, 0.0),
            NetworkClass::alexnet(0.05, 0.0),
        ];
        let sampler = ClassSampler::new(&zero);
        let picks: Vec<usize> = (0..16).map(|_| sampler.sample(&mut rng)).collect();
        assert!(picks.iter().all(|&p| p < zero.len() && p == picks[0]));
        assert!(ClassSampler::try_new(&zero).is_err());
        // negative / NaN weights are rejected by try_new
        assert!(ClassSampler::try_new(&[NetworkClass::lenet5(0.01, -1.0)]).is_err());
        assert!(ClassSampler::try_new(&[NetworkClass::lenet5(0.01, f64::NAN)]).is_err());
        // and a valid mix passes
        assert!(ClassSampler::try_new(&[NetworkClass::lenet5(0.01, 1.0)]).is_ok());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(ArrivalProcess::Poisson { rate_rps: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson { rate_rps: f64::NAN }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson { rate_rps: 10.0 }
            .validate()
            .is_ok());
    }
}
