//! Sharding one simulation across cores — deterministically.
//!
//! ## The partition
//!
//! [`ShardPlan`] splits a scenario into up to [`ShardPlan::MAX_CELLS`]
//! **cells**: workload classes are dealt round-robin over the cells, and
//! each cell receives a contiguous slice of the instance list sized to
//! its share of the **service demand** — traffic weight × mean
//! per-frame quote, so a class of few-but-heavy requests gets the
//! hardware its seconds actually need, not its request count
//! (largest-remainder apportionment, every cell at least one
//! instance) — plus a traffic-weighted slice of the admission bound
//! (queue slots hold requests, so request share is the right key
//! there) and the cell's slice of the fault timeline. A cell is a complete
//! sub-simulation — its own queues, scheduler state, health state,
//! in-flight arena, latency histograms — and, crucially, the plan is a
//! **pure function of the scenario**: it never looks at the shard or
//! thread count. That is the root of the determinism contract:
//!
//! > same seed ⇒ bit-identical [`FleetReport`], for every
//! > `(shards, threads)` combination.
//!
//! Shards and threads only decide *who executes* a cell; *what* a cell
//! computes, and the canonical order its numbers are merged in (the
//! engine's private `merge` module), never change.
//!
//! ## One driver
//!
//! Every run — `simulate()` (the whole-fleet plan), the sharded entries
//! and closed-loop control — replays one arrival stream (the sampler,
//! RNG streams and ids of the whole-fleet engine) through one window
//! loop, the barrier-per-window scheme of D. M. Nicol (JACM 40(2),
//! 1993), and hands each arrival, in order, to the cell owning its
//! class. No event crosses cells (failover and affinity routing stay
//! inside one), so the window length never changes a result. One worker
//! feeds the cells on the calling thread; more take them round-robin,
//! fed window by window over bounded channels, the window being the
//! fleet's fastest per-frame quote (at least 1/64 horizon). A window
//! hook — the control loop — sees the cells at start and at every edge,
//! once each has advanced through it, and rules on each arrival; a
//! hooked run's cells stay on the calling thread.
//!
//! A lone-cell run with a thread to spare (`simulate()` and the control
//! loop may use the host's cores, the sharded entries their `threads`)
//! draws its stream on a scoped producer thread: arrival times and
//! classes, from the same sampler and RNG streams, in recycled blocks of
//! 1 024 that the calling thread numbers and gives their deadlines. The
//! requests are the same, request for request, so the producer never
//! changes a result; it only takes the draws (a `log` and a class pick
//! each) off the event loop's critical path. `threads = 1` and
//! multi-cell runs draw on the calling thread (`par::spare_thread` says
//! why).
//!
//! ## What sharding changes — honestly
//!
//! The partitioned fleet is a *different serving system* from the
//! single-shard engine: a class is placed only within its cell's
//! instances (placement loses the other cells' hardware), and admission
//! bounds are per-cell slices of the global bound. The single-shard
//! (`shards = 1`) run of **this** engine — not the whole-fleet
//! `simulate()` — is therefore the oracle every other shard/thread
//! count must reproduce bit-for-bit. For a scenario with one class (or
//! one instance) the plan degenerates to a single cell and
//! `simulate_sharded` coincides with `simulate()` exactly.

use super::core::{CellEngine, CellOutcome};
use super::merge;
use super::{FleetScenario, QuoteTable};
use crate::metrics::FleetReport;
use crate::par::{spare_thread, worker_count};
use crate::telemetry::{FleetTrace, NullSink, TraceConfig, TraceSink, TracingSink};
use crate::workload::{ArrivalSampler, ClassSampler, Request};
use crate::{FleetError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One cell of the partition: the classes it owns, its contiguous
/// instance slice, and its slice of the admission bound.
#[derive(Debug, Clone)]
pub(crate) struct CellSpec {
    /// Global class indices owned by this cell.
    pub classes: Vec<usize>,
    /// Global instance range owned by this cell.
    pub instances: Range<usize>,
    /// This cell's admission bound (its slice of `queue_capacity`).
    pub queue_capacity: usize,
}

/// The deterministic partition of a scenario into shard cells (module
/// docs describe the scheme and the determinism contract).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub(crate) cells: Vec<CellSpec>,
    pub(crate) class_to_cell: Vec<usize>,
}

impl ShardPlan {
    /// Upper bound on the number of cells a plan creates. The
    /// actual count is `min(classes, instances, MAX_CELLS)` — a cell
    /// must own at least one class and one instance to be a simulation
    /// at all. The count is blind to the worker count: workers are
    /// dealt cells round-robin, however many there are.
    pub const MAX_CELLS: usize = 1024;

    /// Builds the plan for `scenario`, using `quotes` (when available)
    /// to size instance slices by service demand rather than raw
    /// request share. Pure function of the scenario — deliberately
    /// blind to shard and thread counts.
    #[must_use]
    pub fn new(scenario: &FleetScenario, quotes: Option<&QuoteTable>) -> ShardPlan {
        let n_c = scenario.classes.len();
        let n_i = scenario.instances.len();
        if n_c == 0 || n_i == 0 {
            // Degenerate (invalid) scenarios still get a well-formed
            // single-cell plan; validation rejects them before any run.
            return ShardPlan::whole_fleet(scenario);
        }
        let l = n_c.min(n_i).min(Self::MAX_CELLS);
        let mut cell_classes: Vec<Vec<usize>> = vec![Vec::new(); l];
        let mut class_to_cell = vec![0usize; n_c];
        for c in 0..n_c {
            cell_classes[c % l].push(c);
            class_to_cell[c] = c % l;
        }
        // A class's expected service demand is its traffic weight times
        // its mean per-frame quote: instance-seconds per offered
        // request, which is what hardware shares must match. Without a
        // quote table (or with a degenerate one) the demand degrades to
        // the plain traffic weight.
        let demand = |c: usize| -> f64 {
            let w = scenario.classes[c].weight;
            let Some(q) = quotes else { return w };
            let mean_frame = (0..n_i)
                .map(|i| q.get(i, c).per_frame.as_secs_f64())
                .sum::<f64>()
                / n_i as f64;
            if mean_frame.is_finite() && mean_frame > 0.0 {
                w * mean_frame
            } else {
                w
            }
        };
        let demand_shares: Vec<f64> = cell_classes
            .iter()
            .map(|cs| cs.iter().map(|&c| demand(c)).sum())
            .collect();
        // Traffic-weight share per cell drives the admission-bound
        // split (queue slots hold requests, not seconds).
        let shares: Vec<f64> = cell_classes
            .iter()
            .map(|cs| cs.iter().map(|&c| scenario.classes[c].weight).sum())
            .collect();
        let mut counts = apportion(n_i, &demand_shares);
        // Every cell serves traffic, so every cell needs hardware: move
        // instances from the largest allocations to any zero-sized ones
        // (deterministic donor choice: largest count, lowest index).
        for i in 0..l {
            while counts[i] == 0 {
                // `0..l` holds `i`, so it is not empty.
                #[allow(clippy::expect_used)]
                let donor = (0..l)
                    .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(b.cmp(&a)))
                    .expect("plan has at least one cell");
                debug_assert!(counts[donor] > 1, "l <= n_i guarantees a donor");
                counts[donor] -= 1;
                counts[i] += 1;
            }
        }
        // Admission bound: same apportionment, with a floor of 1 so no
        // cell rejects everything. An effectively unbounded queue stays
        // unbounded per cell.
        let caps: Vec<usize> = if scenario.queue_capacity >= usize::MAX / 2 {
            vec![scenario.queue_capacity; l]
        } else {
            apportion(scenario.queue_capacity, &shares)
                .into_iter()
                .map(|c| c.max(1))
                .collect()
        };
        let mut start = 0usize;
        let cells = cell_classes
            .into_iter()
            .zip(counts)
            .zip(caps)
            .map(|((classes, count), queue_capacity)| {
                let spec = CellSpec {
                    classes,
                    instances: start..start + count,
                    queue_capacity,
                };
                start += count;
                spec
            })
            .collect();
        ShardPlan {
            cells,
            class_to_cell,
        }
    }

    /// The one-cell plan, the whole fleet: what `simulate()` and the
    /// control loop run, the pre-shard engine event for event.
    pub(crate) fn whole_fleet(scenario: &FleetScenario) -> ShardPlan {
        ShardPlan {
            cells: vec![CellSpec {
                classes: (0..scenario.classes.len()).collect(),
                instances: 0..scenario.instances.len(),
                queue_capacity: scenario.queue_capacity,
            }],
            class_to_cell: vec![0; scenario.classes.len()],
        }
    }

    /// Number of cells in the plan.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Global class indices owned by `cell`.
    #[must_use]
    pub fn cell_classes(&self, cell: usize) -> &[usize] {
        &self.cells[cell].classes
    }

    /// Global instance range owned by `cell`.
    #[must_use]
    pub fn cell_instances(&self, cell: usize) -> Range<usize> {
        self.cells[cell].instances.clone()
    }

    /// The cell owning `class`.
    #[must_use]
    pub fn cell_of_class(&self, class: usize) -> usize {
        self.class_to_cell[class]
    }
}

/// Largest-remainder apportionment of `total` items over `shares`
/// (deterministic: remainder ties resolve to the lower index).
fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    let sum: f64 = shares.iter().sum();
    let quota: Vec<f64> = shares
        .iter()
        .map(|&s| total as f64 * s / sum.max(f64::MIN_POSITIVE))
        .collect();
    let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quota[a] - counts[a] as f64;
        let rb = quota[b] - counts[b] as f64;
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut rem = total.saturating_sub(assigned);
    let mut k = 0usize;
    while rem > 0 {
        counts[order[k % order.len()]] += 1;
        k += 1;
        rem -= 1;
    }
    counts
}

/// One arrival as drawn: its instant and class, before the stream
/// numbers it and attaches its deadline.
type Draw = (f64, usize);

/// Where an arrival stream's draws come from: the calling thread
/// ([`Draws`]) or a producer thread ([`Feed`]). A type parameter, so the
/// calling thread's stream compiles to the plain draw.
trait Source {
    /// The next arrival, or `None` once one falls at or past the horizon.
    fn draw(&mut self) -> Option<Draw>;
}

/// The scenario's arrival draws — the exact sampler and RNG streams the
/// whole-fleet engine consumes — up to the horizon.
struct Draws {
    sampler: ArrivalSampler,
    class_rng: StdRng,
    mix: ClassSampler,
    horizon_s: f64,
}

impl Draws {
    fn new(scenario: &FleetScenario) -> Draws {
        Draws {
            sampler: ArrivalSampler::new(scenario.arrival, scenario.seed),
            class_rng: StdRng::seed_from_u64(scenario.seed ^ 0xC1A5_55E5),
            mix: ClassSampler::new(&scenario.classes),
            horizon_s: scenario.horizon_s,
        }
    }
}

impl Source for Draws {
    #[inline(always)]
    fn draw(&mut self) -> Option<Draw> {
        let t = self.sampler.next_arrival_s();
        if !(t < self.horizon_s) {
            return None;
        }
        Some((t, self.mix.sample(&mut self.class_rng)))
    }
}

/// Draws per block a producer hands over (16 KiB of pairs).
const BLOCK: usize = 1024;

/// Filled blocks a producer may run ahead of its consumer. With the block
/// being filled and the one being read, a producer owns `BLOCKS_AHEAD + 2`
/// recycled blocks, 64 KiB.
const BLOCKS_AHEAD: usize = 2;

/// The consumer's side of a producer thread: the block being read and
/// the channels that bring filled blocks and take spent ones back.
struct Feed {
    block: Vec<Draw>,
    at: usize,
    full: mpsc::Receiver<Vec<Draw>>,
    spent: mpsc::SyncSender<Vec<Draw>>,
}

impl Source for Feed {
    #[inline(always)]
    fn draw(&mut self) -> Option<Draw> {
        let draw = self.block.get(self.at).copied();
        self.at += 1;
        draw.or_else(|| self.refill())
    }
}

impl Feed {
    /// Hands the spent block back and reads the next filled one; `None`
    /// once the producer has passed the horizon and hung up.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Option<Draw> {
        // fails only once the producer has finished
        let _ = self.spent.send(std::mem::take(&mut self.block));
        // the producer sends no empty block
        self.block = self.full.recv().ok()?;
        self.at = 1;
        self.block.first().copied()
    }
}

/// The producer thread: fills each recycled block with the next draws and
/// hands it on, until the horizon is passed or the consumer hangs up.
fn produce(mut draws: Draws, spent: mpsc::Receiver<Vec<Draw>>, full: mpsc::SyncSender<Vec<Draw>>) {
    while let Ok(mut block) = spent.recv() {
        block.clear();
        block.extend(std::iter::from_fn(|| draws.draw()).take(BLOCK));
        // a short block ends at the horizon
        let ended = block.len() < BLOCK;
        if block.is_empty() || full.send(block).is_err() || ended {
            return;
        }
    }
}

/// Replays the scenario's arrival stream — the whole-fleet engine's
/// draws, numbered in order with their deadlines attached — so the
/// stream (times, classes, ids, deadlines) is identical however many
/// shards consume it and whichever thread draws it.
struct ArrivalGen<A = Draws> {
    source: A,
    slo: Vec<f64>,
    next_id: u64,
    pending: Option<Request>,
    done: bool,
}

impl ArrivalGen {
    /// The stream drawn on the calling thread.
    fn new(scenario: &FleetScenario) -> ArrivalGen {
        ArrivalGen::with_source(scenario, Draws::new(scenario))
    }
}

impl<A: Source> ArrivalGen<A> {
    fn with_source(scenario: &FleetScenario, source: A) -> ArrivalGen<A> {
        ArrivalGen {
            source,
            slo: scenario.classes.iter().map(|c| c.slo_s).collect(),
            next_id: 0,
            pending: None,
            done: false,
        }
    }

    /// The next request strictly before `t_edge`, buffering the first at
    /// or past it. Inlined, like `next`: as calls they cost the window loop ~10%.
    #[inline(always)]
    fn next_before(&mut self, t_edge: f64) -> Option<Request> {
        let req = match self.pending.take() {
            Some(req) => req,
            None => self.next()?,
        };
        if req.arrival_s < t_edge {
            Some(req)
        } else {
            self.pending = Some(req);
            None
        }
    }

    /// The next request, if any arrives before the horizon. Fused: once
    /// the horizon is passed the source is never consulted again.
    #[inline(always)]
    fn next(&mut self) -> Option<Request> {
        if self.done {
            return None;
        }
        let Some((t, class)) = self.source.draw() else {
            self.done = true;
            return None;
        };
        let req = Request {
            id: self.next_id,
            class,
            arrival_s: t,
            deadline_s: t + self.slo[class],
        };
        self.next_id += 1;
        Some(req)
    }

    fn exhausted(&self) -> bool {
        self.done && self.pending.is_none()
    }
}

/// Runs `f` over the scenario's arrival stream as a scoped producer
/// thread draws it into recycled blocks (allocated here, on the calling
/// thread): the same stream as [`ArrivalGen::new`], request for request.
/// If `f` panics, unwinding drops the stream, which hangs up on the
/// producer: it stops at its next hand-off and is joined before the
/// panic propagates.
fn with_producer<R>(scenario: &FleetScenario, f: impl FnOnce(&mut ArrivalGen<Feed>) -> R) -> R {
    let (full_tx, full) = mpsc::sync_channel(BLOCKS_AHEAD);
    let (spent, spent_rx) = mpsc::sync_channel(BLOCKS_AHEAD + 2);
    for _ in 0..=BLOCKS_AHEAD {
        // the receiver is alive and the channel holds every block
        let _ = spent.send(Vec::with_capacity(BLOCK));
    }
    let feed = Feed {
        block: Vec::with_capacity(BLOCK),
        at: 0,
        full,
        spent,
    };
    let draws = Draws::new(scenario);
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || produce(draws, spent_rx, full_tx));
        let mut gen = ArrivalGen::with_source(scenario, feed);
        let out = f(&mut gen);
        drop(gen); // hang up on a producer that is still drawing
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
        out
    })
}

/// How many arrival batches the window loop may run ahead of the slowest
/// worker (the bounded-channel depth): the conservative lookahead
/// barrier. A batch is at most [`ARRIVAL_CHUNK`] requests, so this also
/// bounds buffered-arrival memory per worker.
const BATCHES_IN_FLIGHT: usize = 4;

/// Mid-window flush threshold: a cell's arrival buffer is delivered as
/// soon as it holds this many requests, so buffered arrivals stay
/// bounded however long (in requests) a window is.
const ARRIVAL_CHUNK: usize = 65536;

/// Cap on the *expected* request count of one generation window. With
/// the chunk flush bounding per-cell buffers this mainly bounds the
/// per-window bookkeeping sweep; together they keep a billion-request
/// horizon at a few MB of driver state.
const MAX_WINDOW_EXPECTED: f64 = 262_144.0;

/// Coarse floor on the window count per run (windows are a pacing and
/// memory knob, not a correctness one — see the module docs).
const MIN_WINDOWS: f64 = 64.0;

/// A batch shipped to a worker: `(cell index, its arrivals in order)`s.
type WindowBatch = Vec<(usize, Vec<Request>)>;

/// The driver's window hook (module docs, "One driver"), a type
/// parameter so a [`NoHook`] run compiles to the plain arrival feed.
pub(crate) trait WindowHook {
    /// `false` only for [`NoHook`], whose runs skip the window edges.
    const ACTIVE: bool = true;
    /// Window length, seconds; one window spans the whole run.
    fn window_s(&self) -> f64 {
        f64::INFINITY
    }
    /// Sees every cell once, before the first arrival.
    fn start<S: TraceSink>(&mut self, _cells: &mut [CellEngine<'_, S>]) {}
    /// Admits (`true`) or refuses one arrival, in its cell's order.
    fn admits(&mut self, _req: &Request) -> bool {
        true
    }
    /// Sees every cell at window edge `t_s`, each advanced through it.
    fn edge<S: TraceSink>(&mut self, _cells: &mut [CellEngine<'_, S>], _t_s: f64) {}
}

/// The absent hook.
pub(crate) struct NoHook;

impl WindowHook for NoHook {
    const ACTIVE: bool = false;
}

impl FleetScenario {
    /// The deterministic shard partition of this scenario (see
    /// [`ShardPlan`]) — demand-aware when the scenario quotes cleanly,
    /// traffic-weighted otherwise.
    #[must_use]
    pub fn shard_plan(&self) -> ShardPlan {
        ShardPlan::new(self, self.quote_table().ok().as_ref())
    }

    /// Runs the sharded engine: the scenario's [`ShardPlan`] cells,
    /// executed by `min(shards, threads, cells, available cores)` worker
    /// threads, merged in canonical order. One worker runs the cells on
    /// the calling thread; for a one-cell plan, if `threads ≥ 2` and the
    /// host has two cores, a second thread draws the arrival stream
    /// (module docs, "One driver"). `threads = 1` starts no thread.
    ///
    /// **Determinism contract:** same seed ⇒ bit-identical report for
    /// every `(shards, threads)` combination. The `shards = 1` run is
    /// the oracle; see the module docs for how the partitioned fleet
    /// differs semantically from [`simulate`](FleetScenario::simulate).
    ///
    /// # Errors
    ///
    /// Returns scenario-validation or core quoting failures.
    pub fn simulate_sharded(&self, shards: usize, threads: usize) -> Result<FleetReport> {
        let (outcomes, _) = self.drive_plan(shards, threads, |_| NullSink)?;
        Ok(merge::assemble(self, &outcomes))
    }

    /// [`simulate_sharded`](Self::simulate_sharded) with the telemetry
    /// layer recording: returns the ordinary report plus the merged
    /// [`FleetTrace`] (sampled request lifecycles and the engine
    /// profile).
    ///
    /// **Determinism contract:** the trace inherits the report's — the
    /// shard plan fixes the cells and their event order independently
    /// of `(shards, threads)`, per-cell events carry dense
    /// `(cell, seq)` ids, and cells merge in cell-index order, so the
    /// rendered JSONL is byte-identical at any shard/thread count for
    /// the same seed.
    ///
    /// # Errors
    ///
    /// As [`simulate_sharded`](Self::simulate_sharded).
    pub fn simulate_sharded_traced(
        &self,
        shards: usize,
        threads: usize,
        cfg: &TraceConfig,
    ) -> Result<(FleetReport, FleetTrace)> {
        let n_classes = self.classes.len();
        let (outcomes, sinks) = self.drive_plan(shards, threads, |cell| {
            TracingSink::new(cell, n_classes, cfg)
        })?;
        let report = merge::assemble(self, &outcomes);
        let mut trace = FleetTrace::from_sinks(sinks);
        // assemble() folds one ledger per cell and one slot per class
        trace.profile.merge_folds = outcomes.len() as u64 + n_classes as u64;
        Ok((report, trace))
    }

    /// The sharded entries' common part: validate, quote, plan, drive.
    fn drive_plan<S: TraceSink + Send>(
        &self,
        shards: usize,
        threads: usize,
        make_sink: impl FnMut(usize) -> S,
    ) -> Result<(Vec<CellOutcome>, Vec<S>)> {
        self.validate()?;
        let quotes = self.quote_table()?;
        let plan = ShardPlan::new(self, Some(&quotes));
        let workers = worker_count(shards.min(threads), plan.n_cells());
        let producer = spare_thread(threads, plan.n_cells());
        let (outcomes, sinks, _) =
            self.drive(&quotes, &plan, workers, producer, make_sink, NoHook)?;
        Ok((outcomes, sinks))
    }

    /// The one arrival driver (module docs, "One driver"): runs the plan's
    /// cells, cell `i` with sink `make_sink(i)`, and returns their
    /// outcomes and sinks in cell order, and the hook. A one-worker run
    /// draws its arrivals on a producer thread when `producer` is set
    /// (the callers set it by `par::spare_thread`).
    pub(crate) fn drive<S: TraceSink + Send, H: WindowHook>(
        &self,
        quotes: &QuoteTable,
        plan: &ShardPlan,
        workers: usize,
        producer: bool,
        mut make_sink: impl FnMut(usize) -> S,
        mut hook: H,
    ) -> Result<(Vec<CellOutcome>, Vec<S>, H)> {
        let mut cells: Vec<CellEngine<'_, S>> = plan
            .cells
            .iter()
            .enumerate()
            .map(|(i, spec)| CellEngine::with_sink(self, quotes, spec, make_sink(i)))
            .collect();
        if !H::ACTIVE && workers > 1 {
            let gen = ArrivalGen::new(self);
            let (outcomes, sinks) =
                run_workers(gen, cells, plan, workers, window_len(self, quotes))?;
            return Ok((outcomes, sinks, hook));
        }
        hook.start(&mut cells);
        let chunk = if cells.len() == 1 { 0 } else { ARRIVAL_CHUNK };
        let bufs = cells.iter().map(|_| Vec::with_capacity(chunk)).collect();
        let mut local = Local { cells, bufs, hook };
        let window_s = local.hook.window_s();
        if producer {
            with_producer(self, |gen| window_loop(gen, plan, window_s, &mut local));
        } else {
            window_loop(&mut ArrivalGen::new(self), plan, window_s, &mut local);
        }
        let cells = local.cells.into_iter();
        let (outcomes, sinks) = cells.map(CellEngine::finish_with_sink).unzip();
        Ok((outcomes, sinks, local.hook))
    }
}

/// The generation window of a threaded run: the fleet's fastest
/// per-frame quote is the lookahead floor (nothing observable happens on
/// a finer scale), with a coarse floor of 1/[`MIN_WINDOWS`] horizon so
/// short runs still pipeline across workers.
fn window_len(scenario: &FleetScenario, quotes: &QuoteTable) -> f64 {
    let lookahead = quotes.min_per_frame_s();
    let floor = scenario.horizon_s / MIN_WINDOWS;
    let window = if lookahead.is_finite() && lookahead > floor {
        lookahead
    } else {
        floor
    };
    // Cap the window's expected request count so the per-window sweep
    // stays bounded at planetary arrival rates (the window is pacing,
    // not correctness — shrinking it never changes the report).
    let mean = scenario.arrival.mean_rate_rps();
    if mean.is_finite() && mean * window > MAX_WINDOW_EXPECTED {
        MAX_WINDOW_EXPECTED / mean
    } else {
        window
    }
}

/// Feeds `reqs` to `cell` in order: the events before each arrival fire
/// first, then the hook's verdict admits or refuses it.
#[inline(always)]
fn feed<S: TraceSink, H: WindowHook>(
    cell: &mut CellEngine<'_, S>,
    reqs: impl IntoIterator<Item = Request>,
    hook: &mut H,
) {
    for req in reqs {
        cell.advance_through(req.arrival_s);
        if hook.admits(&req) {
            cell.admit(req);
        } else {
            cell.refuse(&req);
        }
    }
}

/// Where the window loop hands each arrival (with its cell) and each
/// window edge: to cells on the calling thread ([`Local`]) or over
/// channels to workers ([`Channels`]). `false` stops the stream.
trait Deliver {
    fn arrival(&mut self, cell: usize, req: Request) -> bool;
    fn edge(&mut self, t_s: f64) -> bool;
}

/// The one window loop: generates the stream window by window, hands
/// each arrival on for the cell owning its class, and closes every
/// window, the last one included.
fn window_loop<A: Source, D: Deliver>(
    gen: &mut ArrivalGen<A>,
    plan: &ShardPlan,
    window_s: f64,
    out: &mut D,
) {
    let mut t_edge = window_s;
    loop {
        while let Some(req) = gen.next_before(t_edge) {
            if !out.arrival(plan.class_to_cell[req.class], req) {
                return;
            }
        }
        if !out.edge(t_edge) || gen.exhausted() {
            return;
        }
        t_edge += window_s;
    }
}

/// Every cell on the calling thread, with the hook. A lone cell takes
/// each arrival straight through; several drain per-cell chunks, a pure
/// reordering of independent work that keeps a cell's state in cache.
struct Local<'a, S: TraceSink, H> {
    cells: Vec<CellEngine<'a, S>>,
    bufs: Vec<Vec<Request>>,
    hook: H,
}

impl<S: TraceSink, H: WindowHook> Deliver for Local<'_, S, H> {
    #[inline(always)]
    fn arrival(&mut self, cell: usize, req: Request) -> bool {
        if let [only] = self.cells.as_mut_slice() {
            feed(only, [req], &mut self.hook);
            return true;
        }
        let buf = &mut self.bufs[cell];
        buf.push(req);
        if buf.len() >= ARRIVAL_CHUNK {
            feed(&mut self.cells[cell], buf.drain(..), &mut self.hook);
        }
        true
    }

    /// Flushes every buffer (a hookless run's one edge ends the stream);
    /// with a hook, advances every cell to the edge and hands them over.
    fn edge(&mut self, t_s: f64) -> bool {
        for (cell, buf) in self.cells.iter_mut().zip(&mut self.bufs) {
            feed(cell, buf.drain(..), &mut self.hook);
            if H::ACTIVE {
                cell.advance_through(t_s);
            }
        }
        if H::ACTIVE {
            self.hook.edge(&mut self.cells, t_s);
        }
        true
    }
}

/// The bounded channels to the workers (cell `c` on worker `c % workers`)
/// and the open window's buffers. A failed send means a worker panicked.
struct Channels {
    senders: Vec<mpsc::SyncSender<WindowBatch>>,
    bufs: Vec<Vec<Request>>,
}

impl Deliver for Channels {
    #[inline(always)]
    fn arrival(&mut self, cell: usize, req: Request) -> bool {
        let buf = &mut self.bufs[cell];
        buf.push(req);
        if buf.len() < ARRIVAL_CHUNK {
            return true;
        }
        // mid-window flush, in order down the cell's one channel
        let reqs = std::mem::replace(buf, Vec::with_capacity(ARRIVAL_CHUNK));
        let tx = &self.senders[cell % self.senders.len()];
        tx.send(vec![(cell, reqs)]).is_ok()
    }

    fn edge(&mut self, _: f64) -> bool {
        let workers = self.senders.len();
        let mut batches: Vec<WindowBatch> = (0..workers).map(|_| Vec::new()).collect();
        for (i, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                let hint = buf.len().min(ARRIVAL_CHUNK);
                batches[i % workers].push((i, std::mem::replace(buf, Vec::with_capacity(hint))));
            }
        }
        let mut sends = self.senders.iter().zip(batches);
        sends.all(|(tx, batch)| batch.is_empty() || tx.send(batch).is_ok())
    }
}

/// The threaded path: the calling thread runs the window loop into
/// [`Channels`]; each worker feeds its cells their batches in order and
/// drains them when the stream closes. A worker that panics stops the
/// stream, and the run returns [`FleetError::WorkerPanicked`] naming the
/// cell it was running and the panic's message.
fn run_workers<'a, S: TraceSink + Send>(
    mut gen: ArrivalGen,
    cells: Vec<CellEngine<'a, S>>,
    plan: &ShardPlan,
    workers: usize,
    window_s: f64,
) -> Result<(Vec<CellOutcome>, Vec<S>)> {
    let n_cells = cells.len();
    let mut worker_cells: Vec<Vec<(usize, CellEngine<'a, S>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, cell) in cells.into_iter().enumerate() {
        worker_cells[i % workers].push((i, cell));
    }
    // The cell each worker is running, read only after its join (which
    // orders the worker's last store before the load: Relaxed suffices).
    let running: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();

    let mut finished = Vec::with_capacity(workers);
    let mut panicked: Option<(usize, String)> = None;
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (mut owned, running) in worker_cells.into_iter().zip(&running) {
            let (tx, rx) = mpsc::sync_channel(BATCHES_IN_FLIGHT);
            senders.push(tx);
            handles.push(scope.spawn(move || {
                for batch in rx {
                    for (cell_idx, reqs) in batch {
                        running.store(cell_idx, Ordering::Relaxed);
                        // dealt round-robin: cell c is this worker's c / workers-th
                        feed(&mut owned[cell_idx / workers].1, reqs, &mut NoHook);
                    }
                }
                owned
                    .into_iter()
                    .map(|(i, cell)| {
                        running.store(i, Ordering::Relaxed);
                        cell.finish_with_sink()
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let bufs = (0..n_cells).map(|_| Vec::new()).collect();
        let mut channels = Channels { senders, bufs };
        window_loop(&mut gen, plan, window_s, &mut channels);
        drop(channels); // close the channels: workers drain and finish
        for (handle, running) in handles.into_iter().zip(&running) {
            match handle.join() {
                Ok(outcomes) => finished.push(Vec::into_iter(outcomes)),
                Err(payload) if panicked.is_none() => {
                    panicked = Some((running.load(Ordering::Relaxed), panic_message(&*payload)));
                }
                Err(_) => {}
            }
        }
    });
    if let Some((cell, message)) = panicked {
        return Err(FleetError::WorkerPanicked { cell, message });
    }
    // No worker panicked, so worker w returned cells w, w + workers, …
    // in order: dealing them back out restores the cell order.
    Ok((0..n_cells)
        .filter_map(|i| finished[i % workers].next())
        .unzip())
}

/// The text a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ProfileOp, TraceEventKind};
    use crate::workload::{ArrivalProcess, NetworkClass};
    use pcnna_core::PcnnaConfig;

    fn scenario(n_classes: usize, n_instances: usize) -> FleetScenario {
        FleetScenario {
            classes: (0..n_classes)
                .map(|i| NetworkClass::lenet5(0.002 + 0.001 * i as f64, 1.0))
                .collect(),
            arrival: ArrivalProcess::Poisson { rate_rps: 20_000.0 },
            instances: vec![PcnnaConfig::default(); n_instances],
            horizon_s: 0.02,
            queue_capacity: 10_000,
            seed: 7,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn degenerate_single_cell_plan() {
        // One class ⇒ one cell owning the whole fleet.
        let s = scenario(1, 8);
        let plan = ShardPlan::new(&s, None);
        assert_eq!(plan.cells.len(), 1);
        assert_eq!(plan.cells[0].instances, 0..8);
        assert_eq!(plan.cells[0].queue_capacity, s.queue_capacity);
    }

    #[test]
    fn degenerate_one_instance_per_cell() {
        // classes == instances: every cell gets exactly one instance.
        let s = scenario(4, 4);
        let plan = ShardPlan::new(&s, None);
        assert_eq!(plan.cells.len(), 4);
        for cell in &plan.cells {
            assert_eq!(cell.instances.len(), 1);
        }
        // instance ranges tile 0..4 contiguously
        let mut next = 0;
        for cell in &plan.cells {
            assert_eq!(cell.instances.start, next);
            next = cell.instances.end;
        }
        assert_eq!(next, 4);
    }

    #[test]
    fn degenerate_more_classes_than_instances() {
        // 6 classes over 2 instances: the plan can build at most 2
        // cells (a cell must own at least one instance), and every
        // class still lands in exactly one cell.
        let s = scenario(6, 2);
        let plan = ShardPlan::new(&s, None);
        assert!(plan.cells.len() <= 2, "{} cells", plan.cells.len());
        assert_eq!(plan.class_to_cell.len(), 6);
        let mut owned = [0usize; 6];
        for (class, &cell) in plan.class_to_cell.iter().enumerate() {
            assert!(cell < plan.cells.len());
            assert!(plan.cells[cell].classes.contains(&class));
            owned[class] += 1;
        }
        assert!(owned.iter().all(|&n| n == 1));
    }

    #[test]
    fn streaming_iterator_matches_windowed_stepping() {
        // The streaming contract: driving ArrivalGen through
        // `next_before` window edges (what the window loop does) must
        // reproduce the plain iterator's event sequence exactly — same
        // ids, same classes, same arrival instants, for any window
        // length. Ids are per-run ordinals, so equality here is what
        // keeps stride-sampled trace ids shard-layout-independent.
        for seed in [0u64, 7, 42, 1234] {
            let s = FleetScenario {
                seed,
                ..scenario(4, 8)
            };
            let mut whole = ArrivalGen::new(&s);
            let materialized: Vec<Request> = std::iter::from_fn(|| whole.next()).collect();
            assert!(!materialized.is_empty());
            for window_s in [1e-4, 7.3e-4, 5e-3, 1.0] {
                let mut gen = ArrivalGen::new(&s);
                let mut streamed: Vec<Request> = Vec::new();
                let mut t_edge = window_s;
                loop {
                    while let Some(req) = gen.next_before(t_edge) {
                        streamed.push(req);
                    }
                    if gen.exhausted() {
                        break;
                    }
                    t_edge += window_s;
                }
                assert_eq!(materialized, streamed, "window {window_s}");
            }
        }
    }

    /// What a consumer sees of a stream stepped through windows of
    /// `window_s`, as the window loop steps it: every request (its float
    /// fields as bits), and at every edge whether the stream is exhausted.
    #[derive(Debug, PartialEq)]
    enum Step {
        Req(u64, usize, u64, u64),
        Edge(bool),
    }

    fn steps<A: Source>(gen: &mut ArrivalGen<A>, window_s: f64) -> Vec<Step> {
        let mut out = Vec::new();
        let mut t_edge = window_s;
        loop {
            while let Some(r) = gen.next_before(t_edge) {
                let (t, deadline) = (r.arrival_s.to_bits(), r.deadline_s.to_bits());
                out.push(Step::Req(r.id, r.class, t, deadline));
            }
            out.push(Step::Edge(gen.exhausted()));
            if gen.exhausted() {
                return out;
            }
            t_edge += window_s;
        }
    }

    #[test]
    fn producer_stream_matches_the_direct_stream() {
        // The producer's stream oracle: request for request (ids, classes,
        // arrival and deadline bits) and edge for edge (where `exhausted`
        // turns true, so a hooked run's window count cannot move), the
        // blocks a producer thread fills must replay the direct draws.
        let processes = [
            ArrivalProcess::Poisson { rate_rps: 50_000.0 },
            ArrivalProcess::Mmpp {
                low_rps: 10_000.0,
                high_rps: 200_000.0,
                dwell_low_s: 0.004,
                dwell_high_s: 0.002,
            },
            ArrivalProcess::Diurnal {
                base_rps: 5_000.0,
                peak_rps: 120_000.0,
                period_s: 0.03,
            },
        ];
        for arrival in processes {
            for n_classes in [1, 16] {
                let long = FleetScenario {
                    arrival,
                    horizon_s: 0.06,
                    ..scenario(n_classes, 8)
                };
                let times: Vec<f64> = {
                    let mut gen = ArrivalGen::new(&long);
                    std::iter::from_fn(|| gen.next())
                        .map(|r| r.arrival_s)
                        .collect()
                };
                assert!(times.len() > 2 * BLOCK + 1, "{} arrivals", times.len());
                // an arrival at the horizon is not drawn: horizon t[k] ends
                // the stream after exactly k requests
                let horizons = [
                    (times[1500], 1500),   // mid-block
                    (times[BLOCK], BLOCK), // on a block boundary
                    (times[2 * BLOCK], 2 * BLOCK),
                    (times[0], 0), // before the first arrival
                    (long.horizon_s, times.len()),
                ];
                for (horizon_s, expected) in horizons {
                    let s = FleetScenario {
                        horizon_s,
                        ..long.clone()
                    };
                    // windows of a few arrivals put edges inside blocks
                    // with a request pending; infinity is a hookless run
                    for window_s in [3e-5, 7.3e-4, f64::INFINITY] {
                        let direct = steps(&mut ArrivalGen::new(&s), window_s);
                        let fed = with_producer(&s, |gen| steps(gen, window_s));
                        let reqs = direct.iter().filter(|x| matches!(x, Step::Req(..)));
                        assert_eq!(reqs.count(), expected);
                        assert_eq!(
                            fed, direct,
                            "{arrival:?}, {n_classes} classes, horizon {horizon_s}, window {window_s}"
                        );
                    }
                }
            }
        }
    }

    /// A sink that panics on the first request its cell is offered when
    /// that cell is `faulty`, and records nothing otherwise.
    struct PanickingSink {
        cell: usize,
        faulty: usize,
    }

    impl TraceSink for PanickingSink {
        const ENABLED: bool = true;

        fn sample(&mut self, _class: usize, _id: u64) -> bool {
            assert!(
                self.cell != self.faulty,
                "injected fault in cell {}",
                self.cell
            );
            false
        }

        fn is_traced(&self, _id: u64) -> bool {
            false
        }

        fn event(&mut self, _: TraceEventKind, _: f64, _: u64, _: usize, _: usize) {}

        fn count(&mut self, _op: ProfileOp, _n: u64) {}
    }

    /// Drives `s`'s shard plan on exactly `workers` workers: the public
    /// entries bound the count by the host's cores, these tests must not.
    fn drive_on<S: TraceSink + Send>(
        s: &FleetScenario,
        workers: usize,
        make_sink: impl FnMut(usize) -> S,
    ) -> Result<Vec<CellOutcome>> {
        let quotes = s.quote_table()?;
        let plan = ShardPlan::new(s, Some(&quotes));
        let (outcomes, _, _) = s.drive(&quotes, &plan, workers, false, make_sink, NoHook)?;
        Ok(outcomes)
    }

    #[test]
    fn worker_panic_is_reported_with_its_cell_and_message() {
        let s = scenario(4, 8);
        assert_eq!(s.shard_plan().n_cells(), 4);
        let faulty = 2;
        let result = drive_on(&s, 2, |cell| PanickingSink { cell, faulty });
        match result {
            Err(FleetError::WorkerPanicked { cell, message }) => {
                assert_eq!(cell, faulty);
                assert_eq!(message, "injected fault in cell 2");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a panicking cell must fail the run"),
        }
    }

    /// Runs `f` on a thread of its own and returns its result, failing
    /// the test if it takes longer than a minute: a hang, not a slow run.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hung")
    }

    #[test]
    fn consumer_panic_propagates_and_joins_the_producer() {
        // One worker with a spare thread (the traced `threads = 2` path):
        // the consuming thread panics at its first request while the
        // producer is still drawing a long stream. The panic must reach
        // the caller, the scope having joined the producer, not hang on a
        // producer blocked at a hand-off.
        for (n_classes, workers_cells) in [(1, 1), (4, 4)] {
            let panicked = within_a_minute(move || {
                let s = FleetScenario {
                    arrival: ArrivalProcess::Poisson {
                        rate_rps: 1_000_000.0,
                    },
                    horizon_s: 1.0,
                    ..scenario(n_classes, 8)
                };
                let quotes = s.quote_table().unwrap();
                let plan = ShardPlan::new(&s, Some(&quotes));
                assert_eq!(plan.n_cells(), workers_cells);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let sink = |cell| PanickingSink { cell, faulty: 0 };
                    s.drive(&quotes, &plan, 1, true, sink, NoHook).is_ok()
                }))
                .map_err(|payload| panic_message(&*payload))
            });
            assert_eq!(panicked, Err("injected fault in cell 0".to_string()));
        }
    }

    /// A hook that counts the window edges it sees and changes nothing.
    struct Noop {
        edges: usize,
    }

    impl WindowHook for Noop {
        fn window_s(&self) -> f64 {
            1e-3
        }

        fn edge<S: TraceSink>(&mut self, _: &mut [CellEngine<'_, S>], _: f64) {
            self.edges += 1;
        }
    }

    #[test]
    fn no_op_hook_is_invisible_on_a_multi_cell_plan() {
        // Edge pumping only fires events that the next arrival would
        // fire anyway, so a hook that changes nothing must leave the
        // hookless report and trace intact, bit for bit.
        // loaded enough that batches are in flight across window edges
        let s = FleetScenario {
            arrival: ArrivalProcess::Poisson {
                rate_rps: 4_000_000.0,
            },
            ..scenario(4, 8)
        };
        let cfg = TraceConfig {
            stride: 1,
            ..TraceConfig::default()
        };
        let (oracle, oracle_trace) = s.simulate_sharded_traced(1, 1, &cfg).unwrap();
        let quotes = s.quote_table().unwrap();
        let plan = ShardPlan::new(&s, Some(&quotes));
        assert_eq!(plan.n_cells(), 4);
        let n_classes = s.classes.len();
        let (outcomes, sinks, hook) = s
            .drive(
                &quotes,
                &plan,
                1,
                false,
                |cell| TracingSink::new(cell, n_classes, &cfg),
                Noop { edges: 0 },
            )
            .unwrap();
        assert_eq!(
            hook.edges, 20,
            "one edge per 1 ms window of the 20 ms horizon"
        );
        assert_eq!(merge::assemble(&s, &outcomes), oracle);
        let mut trace = FleetTrace::from_sinks(sinks);
        trace.profile.merge_folds = oracle_trace.profile.merge_folds;
        assert!(trace.profile.events_recorded > 0);
        assert_eq!(trace, oracle_trace);
    }

    #[test]
    fn uneven_round_robin_dealing_reproduces_the_serial_report() {
        // Eight cells over worker counts that do not divide them: every
        // dealing of `cell % workers` must merge to the shards = 1 report.
        let s = scenario(8, 24);
        assert_eq!(s.shard_plan().n_cells(), 8);
        let oracle = s.simulate_sharded(1, 1).unwrap();
        assert!(oracle.completed > 0);
        for workers in [3, 5, 7] {
            let outcomes = drive_on(&s, workers, |_| NullSink).unwrap();
            assert_eq!(oracle, merge::assemble(&s, &outcomes), "{workers} workers");
        }
    }
}
