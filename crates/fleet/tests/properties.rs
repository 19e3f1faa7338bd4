//! Property-based invariants of the fleet simulator.

use proptest::prelude::*;

use pcnna_core::PcnnaConfig;
use pcnna_fleet::engine::wheel::{EventTime, TimingWheel, WheelEvent};
use pcnna_fleet::prelude::*;

/// A small scenario space: LeNet-class requests (cheap to quote and serve)
/// over varying load, fleet size, batch bound, policy, and seed.
fn scenarios() -> impl Strategy<Value = FleetScenario> {
    (
        200.0f64..20_000.0, // arrival rate
        1usize..5,          // instances
        1u64..48,           // max_batch
        0usize..3,          // policy index
        0u64..1_000,        // seed
        16usize..2_000,     // queue capacity
    )
        .prop_map(
            |(rate, n_inst, max_batch, policy, seed, cap)| FleetScenario {
                classes: vec![
                    NetworkClass::lenet5(0.005, 2.0),
                    NetworkClass::alexnet(0.050, 1.0),
                ],
                arrival: ArrivalProcess::Poisson { rate_rps: rate },
                policy: [
                    Policy::Fifo,
                    Policy::EarliestDeadlineFirst,
                    Policy::NetworkAffinity,
                ][policy],
                instances: vec![PcnnaConfig::default(); n_inst],
                max_batch,
                queue_capacity: cap,
                horizon_s: 0.02,
                seed,
                ..FleetScenario::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn requests_are_conserved(s in scenarios()) {
        let r = s.simulate().unwrap();
        // Nothing is created or lost: every offered request is either
        // rejected at admission or served to completion (the engine
        // drains the queue after arrivals stop).
        prop_assert_eq!(r.offered, r.admitted + r.rejected);
        prop_assert_eq!(r.admitted, r.completed);
        let per_class: u64 = r.per_class.iter().map(|c| c.completed).sum();
        prop_assert_eq!(per_class, r.completed);
        let admitted_per_class: u64 = r.per_class.iter().map(|c| c.admitted).sum();
        prop_assert_eq!(admitted_per_class, r.admitted);
    }

    #[test]
    fn latency_is_bounded_below_by_service_time(s in scenarios()) {
        let quotes = s.quote_table().unwrap();
        let r = s.simulate().unwrap();
        if r.completed == 0 { return Ok(()); }
        // No request can complete faster than one frame's marginal service
        // time on the fastest instance for the cheapest class.
        let floor = (0..s.instances.len())
            .flat_map(|i| (0..s.classes.len()).map(move |c| (i, c)))
            .map(|(i, c)| quotes.get(i, c).per_frame.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        prop_assert!(floor > 0.0);
        // 1 ulp of slack: latency is (arrival + service) − arrival in f64.
        prop_assert!(
            r.latency.min_s >= floor * (1.0 - 1e-9),
            "min latency {} < service floor {}", r.latency.min_s, floor
        );
    }

    #[test]
    fn report_statistics_are_sane(s in scenarios()) {
        let r = s.simulate().unwrap();
        if r.completed == 0 { return Ok(()); }
        prop_assert!(r.latency.min_s <= r.latency.p50_s);
        prop_assert!(r.latency.p50_s <= r.latency.p95_s);
        prop_assert!(r.latency.p95_s <= r.latency.p99_s);
        prop_assert!(r.latency.p99_s <= r.latency.p999_s);
        prop_assert!(r.latency.p999_s <= r.latency.max_s);
        prop_assert!((0.0..=1.0).contains(&r.slo_attainment));
        prop_assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
        prop_assert!(r.energy_per_request_j > 0.0);
        prop_assert!(r.weight_reloads <= r.batches);
        prop_assert!(r.mean_batch >= 1.0 - 1e-12);
        prop_assert!(r.mean_batch <= s.max_batch as f64 + 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn histogram_quantiles_match_exact_sort(
        samples in prop::collection::vec(1e-6f64..10.0, 1..1500),
    ) {
        // The engine's streaming histogram must agree with the exact
        // sort-based summary within its documented 1% relative error on
        // every reported quantile — and exactly on mean/min/max.
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        let exact = LatencySummary::from_samples(&mut sorted);
        let approx = LatencySummary::from_histogram(&hist);
        for (label, a, e) in [
            ("p50", approx.p50_s, exact.p50_s),
            ("p95", approx.p95_s, exact.p95_s),
            ("p99", approx.p99_s, exact.p99_s),
            ("p999", approx.p999_s, exact.p999_s),
        ] {
            prop_assert!(
                (a - e).abs() <= 0.01 * e,
                "{label}: histogram {a} vs exact {e}"
            );
        }
        prop_assert!((approx.mean_s - exact.mean_s).abs() <= 1e-12 + 1e-9 * exact.mean_s);
        prop_assert_eq!(approx.min_s, exact.min_s);
        prop_assert_eq!(approx.max_s, exact.max_s);
        // quantiles stay monotone and inside [min, max]
        prop_assert!(approx.min_s <= approx.p50_s);
        prop_assert!(approx.p50_s <= approx.p95_s);
        prop_assert!(approx.p95_s <= approx.p99_s);
        prop_assert!(approx.p99_s <= approx.p999_s);
        prop_assert!(approx.p999_s <= approx.max_s);
    }
}

#[test]
fn histogram_handles_empty_and_single_sample_classes() {
    // Empty: the PR 2 NaN-hardening contract — all-zero, finite summary.
    let empty = LatencyHistogram::new();
    let s = LatencySummary::from_histogram(&empty);
    assert_eq!(s, LatencySummary::default());
    for v in [
        s.p50_s, s.p95_s, s.p99_s, s.p999_s, s.mean_s, s.min_s, s.max_s,
    ] {
        assert!(v.is_finite());
        assert_eq!(v, 0.0);
    }
    // Single sample: every quantile is (within the error bound) that
    // sample, and min/max/mean are exactly it.
    let mut one = LatencyHistogram::new();
    one.record(0.042);
    let s = LatencySummary::from_histogram(&one);
    assert_eq!(s.min_s, 0.042);
    assert_eq!(s.max_s, 0.042);
    assert_eq!(s.mean_s, 0.042);
    for q in [s.p50_s, s.p999_s] {
        assert!((q - 0.042).abs() <= 0.01 * 0.042, "{q}");
    }
}

#[test]
fn longer_runs_do_not_grow_report_memory() {
    // The engine's latency state is O(1) in the request count: a
    // 10×-longer run must produce a report with the identical footprint
    // (same per-class/per-instance vector lengths), backed by histograms
    // whose bin array never grows.
    let scenario = |horizon_s: f64| FleetScenario {
        classes: vec![
            NetworkClass::lenet5(0.005, 2.0),
            NetworkClass::alexnet(0.050, 1.0),
        ],
        arrival: ArrivalProcess::Poisson { rate_rps: 20_000.0 },
        instances: vec![PcnnaConfig::default(); 2],
        horizon_s,
        queue_capacity: 1_000_000,
        seed: 3,
        ..FleetScenario::default()
    };
    let short = scenario(0.05).simulate().unwrap();
    let long = scenario(0.5).simulate().unwrap();
    assert!(
        long.completed >= 9 * short.completed,
        "10× run, 10× requests"
    );
    // identical report footprint: the report carries summaries, not
    // samples, so its size is a function of the scenario shape only
    assert_eq!(short.per_class.len(), long.per_class.len());
    assert_eq!(
        short.per_instance_batches.len(),
        long.per_instance_batches.len()
    );
    // and the streaming histogram itself is fixed-size however much is
    // recorded
    let mut h = LatencyHistogram::new();
    assert_eq!(h.bin_count(), LatencyHistogram::BIN_COUNT);
    for i in 0..1_000_000u64 {
        h.record(1e-5 + (i as f64) * 1e-8);
    }
    assert_eq!(h.bin_count(), LatencyHistogram::BIN_COUNT);
    assert_eq!(h.count(), 1_000_000);
}

/// A small fault-timeline space over a 3-instance fleet: degrades with
/// random channel loss, hard failures, and recalibrations at random
/// times inside the horizon.
fn fault_timelines(horizon_s: f64) -> impl Strategy<Value = FaultTimeline> {
    let event = (
        0.0..horizon_s,
        0usize..3,  // instance
        0usize..3,  // action selector
        0usize..10, // dead input channels for Degrade
    )
        .prop_map(move |(at_s, instance, action, dead)| FaultEvent {
            at_s,
            instance,
            action: match action {
                0 => FaultAction::Degrade(HealthState {
                    dead_input_channels: dead,
                    ..HealthState::nominal()
                }),
                1 => FaultAction::Fail,
                _ => FaultAction::Recalibrate {
                    duration_s: horizon_s * 0.05,
                },
            },
        });
    prop::collection::vec(event, 0..8).prop_map(FaultTimeline::from_events)
}

fn faulty_scenarios() -> impl Strategy<Value = FleetScenario> {
    let horizon_s = 0.02;
    (
        500.0f64..20_000.0, // arrival rate
        0usize..3,          // policy index
        0u64..1_000,        // seed
        fault_timelines(horizon_s),
    )
        .prop_map(move |(rate, policy, seed, faults)| FleetScenario {
            classes: vec![
                NetworkClass::lenet5(0.005, 2.0),
                NetworkClass::alexnet(0.050, 1.0),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            policy: [
                Policy::Fifo,
                Policy::EarliestDeadlineFirst,
                Policy::NetworkAffinity,
            ][policy],
            instances: vec![PcnnaConfig::default(); 3],
            queue_capacity: 100_000,
            horizon_s,
            seed,
            faults,
            ..FleetScenario::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faults_preserve_request_conservation(s in faulty_scenarios()) {
        // Failover must neither drop nor duplicate: every offered
        // request is rejected at admission, served to completion, or —
        // only when capacity never comes back — left unserved in the
        // queues. Nothing else.
        let r = s.simulate().unwrap();
        prop_assert_eq!(r.offered, r.admitted + r.rejected);
        prop_assert_eq!(r.admitted, r.completed + r.resilience.unserved);
        let per_class: u64 = r.per_class.iter().map(|c| c.completed).sum();
        prop_assert_eq!(per_class, r.completed);
        let batches_served: u64 = r.per_instance_batches.iter().sum();
        prop_assert_eq!(batches_served, r.batches);
        prop_assert!((0.0..=1.0).contains(&r.resilience.availability));
        prop_assert!(r.resilience.offline_s >= 0.0);
        // debug_asserts inside dispatch double-check that no batch was
        // ever routed to a drained/offline instance (tests build with
        // debug assertions on)
    }

    #[test]
    fn no_request_is_routed_to_an_instance_failed_from_the_start(
        rate in 1_000.0f64..20_000.0,
        seed in 0u64..1_000,
        policy in 0usize..3,
    ) {
        // An instance hard-failed before any arrival must serve zero
        // batches, whatever the policy or load.
        let r = FleetScenario {
            classes: vec![
                NetworkClass::lenet5(0.005, 2.0),
                NetworkClass::alexnet(0.050, 1.0),
            ],
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            policy: [
                Policy::Fifo,
                Policy::EarliestDeadlineFirst,
                Policy::NetworkAffinity,
            ][policy],
            instances: vec![PcnnaConfig::default(); 3],
            queue_capacity: 100_000,
            horizon_s: 0.02,
            seed,
            faults: FaultTimeline::from_events(vec![FaultEvent {
                at_s: 0.0,
                instance: 1,
                action: FaultAction::Fail,
            }]),
            ..FleetScenario::default()
        }
        .simulate()
        .unwrap();
        prop_assert_eq!(
            r.per_instance_batches[1], 0,
            "drained instance must take no work"
        );
        prop_assert_eq!(r.admitted, r.completed, "survivors absorb the load");
    }

    #[test]
    fn same_seed_and_timeline_reproduce_at_any_thread_count(
        s in faulty_scenarios(),
    ) {
        // The engine is single-threaded per replica; replication must
        // be a pure function of the seed list regardless of how many
        // worker threads the map runs on.
        let seeds: Vec<u64> = (0..6).map(|k| s.seed ^ (k * 7919)).collect();
        let run = |seed| FleetScenario { seed, ..s.clone() }.simulate().unwrap();
        let serial = par::par_map_slice(&seeds, 1, run);
        let wide = par::par_map_slice(&seeds, 8, run);
        for (a, b) in serial.iter().zip(&wide) {
            prop_assert_eq!(a, b, "thread count changed a replica's metrics");
        }
    }
}

/// Random interleavings of pushes and removals for the event-set-vs-heap
/// equivalence: `(delay_num, instance, op)` per operation, with push
/// times made monotone-from-last-pop the same way the engine's
/// simulation clock is. `op` picks what follows the push: nothing
/// (0–1), a `pop` (2), a `pop_front_batch` (3) or a `peek` (4).
fn wheel_programs() -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    prop::collection::vec((0u32..1_000, 0u32..64, 0u8..5), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_pops_in_heap_order(program in wheel_programs()) {
        // The engine's event set must pop in *exactly* ascending
        // `(time, instance, epoch)` order — the order of a
        // `BinaryHeap<Reverse<(EventTime, usize, u32)>>`, which every
        // committed record was produced under. The stream honours the
        // engine's one contract: every push is at or after the last
        // popped time.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
        let key = |e: &WheelEvent| (e.at.bits(), e.instance, e.epoch);
        let mut batch = Vec::new();
        let (mut now, mut epoch, mut pops) = (0.0f64, 0u32, 0u64);
        for (pushes, (delay_num, instance, op)) in (1u64..).zip(program) {
            // Half the pushes land on a 4-point grid of 1 ms steps from
            // `now`, so same-instant cohorts are common; the rest spread
            // over ~6 decades.
            let t = if delay_num < 500 {
                now + f64::from(delay_num % 4) * 1e-3
            } else {
                now + f64::from(delay_num) * f64::from(delay_num) * 1e-5
            };
            let at = EventTime::try_new(t).unwrap();
            wheel.push(at, instance, epoch);
            heap.push(Reverse((at.bits(), instance, epoch)));
            epoch = epoch.wrapping_add(1);
            match op {
                2 => {
                    let w = wheel.pop().unwrap();
                    let Reverse(h) = heap.pop().unwrap();
                    prop_assert_eq!(key(&w), h);
                    now = w.at.get();
                    pops += 1;
                }
                3 => {
                    // Appends after what the buffer already holds.
                    let before = batch.len();
                    let n = wheel.pop_front_batch(&mut batch);
                    prop_assert_eq!(n, batch.len() - before);
                    let Reverse(first) = heap.pop().unwrap();
                    let mut cohort = vec![first];
                    while heap.peek().is_some_and(|&Reverse(h)| h.0 == first.0) {
                        let Reverse(h) = heap.pop().unwrap();
                        cohort.push(h);
                    }
                    let got: Vec<_> = batch[before..].iter().map(key).collect();
                    prop_assert_eq!(got, cohort);
                    now = f64::from_bits(first.0);
                    pops += n as u64;
                }
                4 => {
                    let w = wheel.peek().map(|e| key(&e));
                    prop_assert_eq!(w, heap.peek().map(|&Reverse(h)| h));
                }
                _ => {}
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!((wheel.pushes(), wheel.pops()), (pushes, pops));
        }
        while let Some(w) = wheel.pop() {
            let Reverse(h) = heap.pop().unwrap();
            prop_assert_eq!(key(&w), h);
            pops += 1;
        }
        prop_assert!(heap.is_empty());
        prop_assert_eq!(wheel.peek(), None);
        prop_assert_eq!(wheel.pops(), pops);
    }
}

/// The chaos-matrix scenario shape at CI smoke size, as a function of
/// the seed.
/// Parses every line of a trace's JSONL rendering (a [`FleetTrace`],
/// then any window samples) and checks it reads back exactly: floats
/// bit for bit, sentinel ids and a missing accuracy as `null`.
fn assert_jsonl_reads_back(jsonl: &str, trace: &FleetTrace, windows: &[WindowSample]) {
    use pcnna_fleet::scenario::json::Json;
    use pcnna_fleet::telemetry::{NO_CLASS, NO_INSTANCE, NO_REQUEST};
    let lines: Vec<Json> = jsonl
        .lines()
        .map(|l| Json::parse(l).expect("every JSONL line parses"))
        .collect();
    assert_eq!(lines.len(), 1 + trace.events.len() + windows.len());
    assert_eq!(
        lines[0].get("events_recorded").and_then(Json::as_u64),
        Some(trace.profile.events_recorded)
    );
    let bits = |line: &Json, key: &str| line.get(key).and_then(Json::as_f64).map(f64::to_bits);
    for (line, ev) in lines[1..].iter().zip(&trace.events) {
        assert_eq!(bits(line, "t_s"), Some(ev.t_s.to_bits()), "{ev:?}");
        for (key, v, sentinel) in [
            ("id", ev.id, NO_REQUEST),
            ("class", ev.class.into(), NO_CLASS.into()),
            ("instance", ev.instance.into(), NO_INSTANCE.into()),
        ] {
            let got = line.get(key).expect("every event carries every id");
            if v == sentinel {
                assert_eq!(got, &Json::Null, "{key} of {ev:?}");
            } else {
                assert_eq!(got.as_u64(), Some(v), "{key} of {ev:?}");
            }
        }
        if ev.accuracy < 0.0 {
            assert_eq!(line.get("accuracy"), Some(&Json::Null), "{ev:?}");
        } else {
            assert_eq!(
                bits(line, "accuracy"),
                Some(ev.accuracy.to_bits()),
                "{ev:?}"
            );
        }
    }
    for (line, w) in lines[1 + trace.events.len()..].iter().zip(windows) {
        assert_eq!(
            bits(line, "t_s"),
            Some(w.t_s.to_bits()),
            "window {}",
            w.index
        );
        assert_eq!(
            bits(line, "utilization"),
            Some(w.utilization.to_bits()),
            "window {}",
            w.index
        );
    }
}

fn chaos_base(seed: u64) -> FleetScenario {
    FleetScenario {
        classes: vec![
            NetworkClass::alexnet(0.004, 1.0),
            NetworkClass::lenet5(0.001, 3.0),
        ],
        arrival: ArrivalProcess::Poisson { rate_rps: 45_000.0 },
        policy: Policy::NetworkAffinity,
        instances: vec![PcnnaConfig::default(); 4],
        queue_capacity: 100_000,
        horizon_s: 0.05,
        seed,
        ..FleetScenario::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_chaos_reports_are_bit_identical_across_shards_and_threads(
        seed in 0u64..1_000,
    ) {
        // The headline determinism contract of the sharded engine, for
        // all four named chaos scenarios: the shards = 1 run is the
        // oracle, and every (shards, threads) combination must
        // reproduce it bit for bit — FleetReport implements PartialEq
        // field-for-field, including every f64 ledger and histogram bin.
        let base = chaos_base(seed);
        let cfg = ChaosConfig { seed, ..ChaosConfig::default() };
        for kind in ChaosKind::ALL {
            let scenario = FleetScenario {
                faults: chaos_timeline(kind, &base.instances, base.horizon_s, &cfg),
                ..base.clone()
            };
            let oracle = scenario.simulate_sharded(1, 1).unwrap();
            prop_assert!(oracle.completed > 0, "{kind:?}");
            for (shards, threads) in [(2, 1), (2, 8), (3, 3), (4, 2), (8, 8)] {
                let r = scenario.simulate_sharded(shards, threads).unwrap();
                prop_assert_eq!(
                    &oracle, &r,
                    "{:?} diverged at shards={} threads={}", kind, shards, threads
                );
            }
            // and the sharded engine honours the same conservation laws
            prop_assert_eq!(oracle.offered, oracle.admitted + oracle.rejected, "{kind:?}");
            prop_assert_eq!(
                oracle.admitted,
                oracle.completed + oracle.resilience.unserved,
                "{kind:?}"
            );
        }
    }
}

/// A scripted worst-case controller: every window it flips the scale
/// target between the full fleet and the floor. With a boot time longer
/// than the window, every second plan aborts boots still in flight —
/// maximal exercise of the control-epoch cancellation path, on top of
/// whatever fault timeline is running.
struct Flapper {
    n: usize,
    tick: u64,
}

impl ControlPolicy for Flapper {
    fn name(&self) -> &str {
        "flapper"
    }

    fn plan(&mut self, _obs: &WindowObservation, view: &FleetView) -> ControlAction {
        self.tick += 1;
        ControlAction {
            target_active: if self.tick.is_multiple_of(2) {
                self.n
            } else {
                1
            },
            admission: vec![Admission::Open; view.n_classes],
            shed_to: vec![None; view.n_classes],
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn controlled_runs_conserve_requests_and_reproduce(
        s in faulty_scenarios(),
        policy_ix in 0usize..2,
        window_ms in 1u32..5,
    ) {
        // The closed loop must keep both conservation laws however the
        // policy scales, throttles, or sheds — and stay a pure function
        // of (scenario, config, policy). The dispatch-path debug_asserts
        // (tests build with debug assertions) double-check that no
        // scaling event ever routes work to a draining, parked, or
        // absent instance.
        let cfg = ControlConfig {
            window_s: f64::from(window_ms) * 1e-3,
            boot_s: 2e-3,
            min_active: 1,
            initial_active: usize::MAX,
            max_step: 4,
            idle_power_w: 2.0,
        };
        let fresh = || -> Box<dyn ControlPolicy> {
            if policy_ix == 0 {
                Box::new(ReactivePolicy::new())
            } else {
                Box::new(PredictivePolicy::new())
            }
        };
        let a = s.simulate_controlled(&cfg, &mut *fresh()).unwrap();
        let b = s.simulate_controlled(&cfg, &mut *fresh()).unwrap();
        prop_assert_eq!(&a.report, &b.report, "controlled run must reproduce");
        prop_assert_eq!(a.throttled, b.throttled);
        let r = &a.report;
        prop_assert_eq!(r.offered, r.admitted + r.rejected);
        prop_assert_eq!(
            r.admitted,
            r.completed + r.resilience.unserved + r.resilience.shed,
            "admitted = completed + unserved + shed"
        );
        let class_admitted: u64 = r.per_class.iter().map(|c| c.admitted).sum();
        let class_shed: u64 = r.per_class.iter().map(|c| c.shed).sum();
        let class_unserved: u64 = r.per_class.iter().map(|c| c.unserved).sum();
        prop_assert_eq!(class_admitted, r.admitted);
        prop_assert_eq!(class_shed, r.resilience.shed);
        prop_assert_eq!(class_unserved, r.resilience.unserved);
        for c in &r.per_class {
            prop_assert_eq!(c.admitted, c.completed + c.shed + c.unserved, "per-class books");
        }
        // A policy that never acts is invisible, faults included: the
        // window edges only pump events that would fire anyway.
        prop_assert_eq!(
            s.simulate_controlled(&cfg, &mut Hold).unwrap().report,
            s.simulate().unwrap(),
            "Hold must reproduce the open-loop report"
        );
    }

    #[test]
    fn scale_down_aborts_cancel_in_flight_boots_cleanly(s in faulty_scenarios()) {
        // Boot (2.5 ms) > window (1 ms): the flapper's every down-flip
        // catches boots mid-flight, so the run leans entirely on the
        // control-epoch token to cancel the pending restore events —
        // stale tokens must be skipped, never double-admit an instance,
        // and never corrupt the books, fault timeline included.
        let cfg = ControlConfig {
            window_s: 1e-3,
            boot_s: 2.5e-3,
            min_active: 1,
            initial_active: usize::MAX,
            max_step: 8,
            idle_power_w: 2.0,
        };
        let n = s.instances.len();
        let a = s.simulate_controlled(&cfg, &mut Flapper { n, tick: 0 }).unwrap();
        let b = s.simulate_controlled(&cfg, &mut Flapper { n, tick: 0 }).unwrap();
        prop_assert_eq!(&a.report, &b.report, "flapping run must reproduce");
        prop_assert!(a.scale_downs > 0, "the flapper must actually park");
        let r = &a.report;
        prop_assert_eq!(r.offered, r.admitted + r.rejected);
        prop_assert_eq!(
            r.admitted,
            r.completed + r.resilience.unserved + r.resilience.shed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batching_never_worsens_fifo_throughput_on_uniform_traffic(
        rate in 500.0f64..8_000.0,
        batch in 2u64..64,
        seed in 0u64..500,
    ) {
        // Uniform workload (one class), FIFO, same arrivals: allowing
        // batches must not reduce throughput relative to batch-size-1.
        let base = FleetScenario {
            classes: vec![NetworkClass::lenet5(0.010, 1.0)],
            arrival: ArrivalProcess::Poisson { rate_rps: rate },
            policy: Policy::Fifo,
            instances: vec![PcnnaConfig::default(); 2],
            queue_capacity: usize::MAX,
            horizon_s: 0.02,
            seed,
            ..FleetScenario::default()
        };
        let unbatched = FleetScenario { max_batch: 1, ..base.clone() }.simulate().unwrap();
        let batched = FleetScenario { max_batch: batch, ..base }.simulate().unwrap();
        // identical arrivals, both drain fully
        prop_assert_eq!(unbatched.completed, batched.completed);
        prop_assert!(
            batched.throughput_rps >= unbatched.throughput_rps * (1.0 - 1e-9),
            "batch {} throughput {} < batch-1 throughput {}",
            batch, batched.throughput_rps, unbatched.throughput_rps
        );
        // and batching can only help tail latency or leave it unchanged
        // under saturation — but never break conservation
        prop_assert_eq!(batched.offered, unbatched.offered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn traced_chaos_runs_are_byte_identical_across_shards_and_threads(
        seed in 0u64..1_000,
    ) {
        // The telemetry determinism contract, for all four named chaos
        // scenarios: the rendered JSONL trace — every event, every
        // (cell, seq) id, every formatted f64 timestamp — is a pure
        // function of the scenario, whatever (shards, threads) executed
        // it. Cell decomposition never depends on who runs the cells,
        // so neither does the trace.
        let base = chaos_base(seed);
        let cfg = ChaosConfig { seed, ..ChaosConfig::default() };
        let tcfg = TraceConfig { stride: 16, ..TraceConfig::default() };
        for kind in ChaosKind::ALL {
            let scenario = FleetScenario {
                faults: chaos_timeline(kind, &base.instances, base.horizon_s, &cfg),
                ..base.clone()
            };
            let (oracle_report, oracle_trace) =
                scenario.simulate_sharded_traced(1, 1, &tcfg).unwrap();
            let oracle_jsonl = oracle_trace.render_jsonl();
            prop_assert!(
                oracle_trace.profile.events_recorded > 0,
                "{kind:?}: the sampler must catch something at stride 16"
            );
            assert_jsonl_reads_back(&oracle_jsonl, &oracle_trace, &[]);
            let (_, telemetry) = scenario
                .simulate_controlled_traced(
                    &ControlConfig::default(),
                    &mut ReactivePolicy::new(),
                    &tcfg,
                )
                .unwrap();
            prop_assert!(!telemetry.timeline.samples().is_empty());
            assert_jsonl_reads_back(
                &telemetry.render_jsonl(),
                &telemetry.trace,
                telemetry.timeline.samples(),
            );
            // tracing is observation only: the report is the untraced one
            let plain = scenario.simulate_sharded(1, 1).unwrap();
            prop_assert_eq!(&oracle_report, &plain, "{:?}: sink must not steer", kind);
            for shards in [1usize, 2, 4, 8] {
                for threads in [1usize, 2, 8] {
                    let (report, trace) = scenario
                        .simulate_sharded_traced(shards, threads, &tcfg)
                        .unwrap();
                    prop_assert_eq!(&report, &oracle_report, "{:?}", kind);
                    prop_assert_eq!(
                        &trace.render_jsonl(), &oracle_jsonl,
                        "{:?} trace diverged at shards={} threads={}",
                        kind, shards, threads
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_traces_conserve_every_request(seed in 0u64..1_000) {
        // Event conservation per traced request: each sampled id tells a
        // complete, consistent lifecycle story. Stride 1 traces every
        // request, so this is the full engine ledger replayed from the
        // event stream.
        use pcnna_fleet::telemetry::NO_REQUEST;
        use std::collections::HashMap;
        let base = chaos_base(seed);
        let cfg = ChaosConfig { seed, ..ChaosConfig::default() };
        let tcfg = TraceConfig {
            stride: 1,
            max_per_class: u64::MAX,
            ..TraceConfig::default()
        };
        for kind in ChaosKind::ALL {
            let scenario = FleetScenario {
                faults: chaos_timeline(kind, &base.instances, base.horizon_s, &cfg),
                ..base.clone()
            };
            let (report, trace) = scenario.simulate_sharded_traced(4, 2, &tcfg).unwrap();
            let mut per_id: HashMap<u64, Vec<TraceEventKind>> = HashMap::new();
            for ev in &trace.events {
                if ev.id != NO_REQUEST {
                    per_id.entry(ev.id).or_default().push(ev.kind);
                }
            }
            let (mut enqueued, mut completed, mut shed) = (0u64, 0u64, 0u64);
            for (id, kinds) in &per_id {
                let n = |k: TraceEventKind| kinds.iter().filter(|&&x| x == k).count() as u64;
                prop_assert_eq!(n(TraceEventKind::Arrive), 1, "{}: one arrival", id);
                prop_assert_eq!(kinds[0], TraceEventKind::Arrive, "{}: arrival first", id);
                let enq = n(TraceEventKind::Enqueue);
                let refused = n(TraceEventKind::Refuse);
                prop_assert_eq!(enq + refused, 1, "{}: enqueue xor refuse", id);
                if refused == 1 {
                    prop_assert_eq!(kinds.len(), 2, "{}: refusal is terminal", id);
                    continue;
                }
                // every dispatch ends in exactly one completion or one
                // failover-abort (which requeues for a later dispatch)
                prop_assert_eq!(
                    n(TraceEventKind::Dispatch),
                    n(TraceEventKind::Complete) + n(TraceEventKind::Failover),
                    "{}: dispatches resolve", id
                );
                let done = n(TraceEventKind::Complete);
                let dropped = n(TraceEventKind::Shed);
                prop_assert!(done + dropped <= 1, "{id}: at most one terminal state");
                enqueued += 1;
                completed += done;
                shed += dropped;
            }
            // aggregate ledger: the event stream reproduces the report
            prop_assert_eq!(per_id.len() as u64, report.offered, "{:?}", kind);
            prop_assert_eq!(enqueued, report.admitted, "{:?}", kind);
            prop_assert_eq!(completed, report.completed, "{:?}", kind);
            prop_assert_eq!(shed, report.resilience.shed, "{:?}", kind);
            prop_assert_eq!(
                enqueued - completed - shed,
                report.resilience.unserved,
                "{:?}: stranded = unserved", kind
            );
        }
    }

    #[test]
    fn per_class_histograms_merge_to_the_fleet_summary(seed in 0u64..1_000) {
        // Satellite of the telemetry layer: every class report now
        // carries its full latency histogram, exact under merge — the
        // bin-wise sum of the per-class histograms must reproduce the
        // fleet-wide latency summary, and the sharded run's per-class
        // histograms must equal the whole-run oracle's bin for bin.
        let base = chaos_base(seed);
        let cfg = ChaosConfig { seed, ..ChaosConfig::default() };
        for kind in ChaosKind::ALL {
            let scenario = FleetScenario {
                faults: chaos_timeline(kind, &base.instances, base.horizon_s, &cfg),
                ..base.clone()
            };
            let whole = scenario.simulate_sharded(1, 1).unwrap();
            let parts = scenario.simulate_sharded(4, 2).unwrap();
            let mut merged = LatencyHistogram::new();
            for (c, class) in parts.per_class.iter().enumerate() {
                prop_assert_eq!(
                    &class.histogram, &whole.per_class[c].histogram,
                    "{:?}: class {} histogram diverged under sharding", kind, c
                );
                prop_assert_eq!(class.histogram.count(), class.completed, "{:?}", kind);
                prop_assert_eq!(
                    &LatencySummary::from_histogram(&class.histogram), &class.latency,
                    "{:?}: summary must be derived from the carried histogram", kind
                );
                merged.merge(&class.histogram);
            }
            prop_assert_eq!(merged.count(), whole.completed, "{:?}", kind);
            prop_assert_eq!(
                &LatencySummary::from_histogram(&merged), &whole.latency,
                "{:?}: merge of the parts must equal the whole", kind
            );
        }
    }
}
