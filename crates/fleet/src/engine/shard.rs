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
//! feeds the cells on the calling thread. A window hook — the control
//! loop — sees the cells at start and at every edge, once each has
//! advanced through it, and rules on each arrival; a hooked run's cells
//! stay on the calling thread.
//!
//! A hookless run of `w ≥ 2` workers runs on `w` threads, the calling
//! thread one of them, and its windows close every 8 192 arrivals. The
//! calling thread fills the next window's per-cell buffers while the
//! other threads serve the open window's cells; then it serves cells
//! too, and it opens the next window (one uncontended lock per cell to
//! swap the buffers in) only once every cell has served this one, so each
//! cell takes its arrivals in stream order. Cells are claimed from the
//! two ends of one range, the spawned threads upward from cell 0 and
//! the calling thread downward from the top, so each thread keeps mostly
//! the same cells window after window, and no thread idles while a cell
//! is left (the two-ended deque of Blumofe and Leiserson's work
//! stealing, JACM 46(5), 1999). A waiting thread spins briefly, then
//! blocks. A cell that panics, on any thread, stops every thread at its
//! next claim or wait, and the run returns
//! [`FleetError::WorkerPanicked`].
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

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
    /// at all. The count is blind to the worker count: threads claim
    /// cells window by window, however many there are.
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

/// Mid-window flush threshold of a one-worker multi-cell run: a cell's
/// arrival buffer is fed as soon as it holds this many requests, so
/// buffered arrivals stay bounded however long (in requests) a window is.
const ARRIVAL_CHUNK: usize = 65536;

/// Arrivals per window of a multi-worker run. The calling thread fills
/// the next window while the other threads serve the open one, so the
/// driver holds two windows of requests (2 × 256 KiB) at any length of
/// run.
const WINDOW_ARRIVALS: usize = 8192;

/// Checks a waiting thread spins through before it blocks.
const SPINS: u32 = 256;

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
    /// threads, the calling thread one of them, merged in canonical
    /// order. Several workers claim cells window by window while the
    /// calling thread draws the next window and serves cells too; one
    /// worker runs the cells on the calling thread, and for a one-cell
    /// plan, if `threads ≥ 2` and the host has two cores, a second thread
    /// draws the arrival stream (module docs, "One driver").
    /// `threads = 1` starts no thread.
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
    /// outcomes and sinks in cell order, and the hook. A hookless run of
    /// several workers spawns all but one of them; a one-worker run draws
    /// its arrivals on a producer thread when `producer` is set (the
    /// callers set it by `par::spare_thread`).
    pub(crate) fn drive<S: TraceSink + Send, H: WindowHook>(
        &self,
        quotes: &QuoteTable,
        plan: &ShardPlan,
        workers: usize,
        producer: bool,
        make_sink: impl FnMut(usize) -> S,
        mut hook: H,
    ) -> Result<(Vec<CellOutcome>, Vec<S>, H)> {
        let mut cells = self.cells(quotes, plan, make_sink);
        if !H::ACTIVE && workers > 1 {
            let gen = ArrivalGen::new(self);
            let (outcomes, sinks) = run_workers(gen, cells, plan, workers, WINDOW_ARRIVALS)?;
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

    /// The plan's cells, cell `i` recording into `make_sink(i)`.
    fn cells<S: TraceSink>(
        &self,
        quotes: &QuoteTable,
        plan: &ShardPlan,
        mut make_sink: impl FnMut(usize) -> S,
    ) -> Vec<CellEngine<'_, S>> {
        let specs = plan.cells.iter().enumerate();
        specs
            .map(|(i, spec)| CellEngine::with_sink(self, quotes, spec, make_sink(i)))
            .collect()
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

/// The one window loop of a run on the calling thread: generates the
/// stream window by window, hands each arrival to the cell owning its
/// class, and closes every window, the last one included.
fn window_loop<A: Source, S: TraceSink, H: WindowHook>(
    gen: &mut ArrivalGen<A>,
    plan: &ShardPlan,
    window_s: f64,
    local: &mut Local<'_, S, H>,
) {
    let mut t_edge = window_s;
    loop {
        while let Some(req) = gen.next_before(t_edge) {
            local.arrival(plan.class_to_cell[req.class], req);
        }
        local.edge(t_edge);
        if gen.exhausted() {
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

impl<S: TraceSink, H: WindowHook> Local<'_, S, H> {
    #[inline(always)]
    fn arrival(&mut self, cell: usize, req: Request) {
        if let [only] = self.cells.as_mut_slice() {
            feed(only, [req], &mut self.hook);
            return;
        }
        let buf = &mut self.bufs[cell];
        buf.push(req);
        if buf.len() >= ARRIVAL_CHUNK {
            feed(&mut self.cells[cell], buf.drain(..), &mut self.hook);
        }
    }

    /// Flushes every buffer (a hookless run's one edge ends the stream);
    /// with a hook, advances every cell to the edge and hands them over.
    fn edge(&mut self, t_s: f64) {
        for (cell, buf) in self.cells.iter_mut().zip(&mut self.bufs) {
            feed(cell, buf.drain(..), &mut self.hook);
            if H::ACTIVE {
                cell.advance_through(t_s);
            }
        }
        if H::ACTIVE {
            self.hook.edge(&mut self.cells, t_s);
        }
    }
}

/// A cell of a multi-worker run, behind its own lock: the engine, the
/// open window's arrivals, and whether that window is the last (after it
/// the cell finishes, handing back its outcome and sink).
struct Slot<'a, S: TraceSink> {
    cell: Option<CellEngine<'a, S>>,
    reqs: Vec<Request>,
    last: bool,
    out: Option<(CellOutcome, S)>,
}

impl<S: TraceSink> Slot<'_, S> {
    fn serve(&mut self) {
        if let Some(cell) = &mut self.cell {
            feed(cell, self.reqs.drain(..), &mut NoHook);
        }
        if self.last {
            self.out = self.cell.take().map(CellEngine::finish_with_sink);
        }
    }
}

/// What the threads of a multi-worker run share ([`run_workers`]).
struct Shared<'a, S: TraceSink> {
    slots: Vec<Mutex<Slot<'a, S>>>,
    /// The open window's unclaimed cells `lo..hi`, as `lo | hi << 32`.
    claim: AtomicU64,
    /// Cells served in the open window.
    served: AtomicUsize,
    /// Set when the run ends or a cell panics: every wait returns.
    stop: AtomicBool,
    /// The first panic's cell and message.
    panicked: Mutex<Option<(usize, String)>>,
    /// The calling thread, woken when a window is served or a cell panics.
    caller: Thread,
}

impl<S: TraceSink> Shared<'_, S> {
    /// Claims the open window's lowest unclaimed cell (`up`) or its
    /// highest; `None` once every cell is claimed or the run stopped.
    fn claim(&self, up: bool) -> Option<usize> {
        let mut word = self.claim.load(Ordering::Acquire);
        loop {
            let (lo, hi) = (word & u64::from(u32::MAX), word >> 32);
            if lo >= hi || self.stop.load(Ordering::Relaxed) {
                return None;
            }
            let (next, cell) = if up {
                (word + 1, lo)
            } else {
                (lo | (hi - 1) << 32, hi - 1)
            };
            match self
                .claim
                .compare_exchange_weak(word, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(cell as usize),
                Err(seen) => word = seen,
            }
        }
    }

    /// Whether the open window has a cell left to claim.
    fn open(&self) -> bool {
        let word = self.claim.load(Ordering::Acquire);
        word & u64::from(u32::MAX) < word >> 32
    }

    /// Serves every cell of the open window this thread can claim. A
    /// panic in one is caught, recorded (the first wins) and stops the run.
    fn serve_claims(&self, up: bool) {
        while let Some(i) = self.claim(up) {
            let mut slot = lock(&self.slots[i]);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| slot.serve())) {
                lock(&self.panicked).get_or_insert((i, panic_message(&*payload)));
                self.stop.store(true, Ordering::Release);
                self.caller.unpark();
            }
            drop(slot);
            if self.served.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() {
                self.caller.unpark();
            }
        }
    }

    /// Hands the calling thread's filled buffers to the cells (taking
    /// their drained ones back) and opens the window they hold.
    fn publish(&self, bufs: &mut [Vec<Request>], last: bool) {
        for (slot, buf) in self.slots.iter().zip(bufs) {
            let mut slot = lock(slot);
            std::mem::swap(&mut slot.reqs, buf);
            slot.last = last;
        }
        self.served.store(0, Ordering::Relaxed);
        // lo = 0, hi = cells. A claim's Acquire pairs with this Release,
        // so the claimer sees the swapped buffers and the reset count.
        self.claim
            .store((self.slots.len() as u64) << 32, Ordering::Release);
    }
}

/// Locks `m`. No lock is held across a panic (each cell's feed is caught
/// inside its lock), so a poisoned lock's data is still whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spins [`SPINS`] checks, then blocks, until `ready` holds (`true`) or
/// the run stops (`false`). Every thread that can make `ready` hold, or
/// stop the run, unparks the waiter after.
fn wait(stop: &AtomicBool, ready: impl Fn() -> bool) -> bool {
    let mut spins = 0;
    loop {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        if ready() {
            return true;
        }
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

/// A spawned thread of a multi-worker run: serves cells upward from the
/// bottom of every window it finds open, until the run stops.
fn help<S: TraceSink>(shared: &Shared<'_, S>) {
    while wait(&shared.stop, || shared.open()) {
        shared.serve_claims(true);
    }
}

/// Stops a multi-worker run when dropped, at its end or as a panic
/// unwinds the calling thread, and wakes the spawned threads to see it.
struct Stop<'s, 'a, S: TraceSink> {
    shared: &'s Shared<'a, S>,
    helpers: Vec<Thread>,
}

impl<S: TraceSink> Drop for Stop<'_, '_, S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.helpers.iter().for_each(Thread::unpark);
    }
}

/// Fills `bufs`, one per cell, with the stream's next `window` arrivals;
/// `false` once the stream has ended.
fn fill(gen: &mut ArrivalGen, plan: &ShardPlan, bufs: &mut [Vec<Request>], window: usize) -> bool {
    for _ in 0..window {
        let Some(req) = gen.next() else {
            return false;
        };
        bufs[plan.class_to_cell[req.class]].push(req);
    }
    true
}

/// The multi-worker path (module docs, "One driver"): `workers` threads,
/// the calling thread one of them, serve the cells window by window. The
/// calling thread fills the next window of `window` arrivals, then claims
/// the open window's cells from the top while the spawned threads claim
/// them from the bottom, and opens the next window once every cell has
/// served this one. A cell that panics stops the run, and the run returns
/// [`FleetError::WorkerPanicked`] naming the cell and the panic's message.
fn run_workers<S: TraceSink + Send>(
    mut gen: ArrivalGen,
    cells: Vec<CellEngine<'_, S>>,
    plan: &ShardPlan,
    workers: usize,
    window: usize,
) -> Result<(Vec<CellOutcome>, Vec<S>)> {
    let n = cells.len();
    let slot = |cell| Slot {
        cell: Some(cell),
        reqs: Vec::new(),
        last: false,
        out: None,
    };
    let shared = Shared {
        slots: cells
            .into_iter()
            .map(|cell| Mutex::new(slot(cell)))
            .collect(),
        claim: AtomicU64::new(0),
        served: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        panicked: Mutex::new(None),
        caller: std::thread::current(),
    };
    let mut bufs: Vec<Vec<Request>> = (0..n).map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let shared = &shared;
        // built before the first spawn, so a failed spawn still stops
        // the threads already started
        let mut stop = Stop {
            shared,
            helpers: Vec::with_capacity(workers - 1),
        };
        for _ in 1..workers {
            let helper = scope.spawn(move || help(shared));
            stop.helpers.push(helper.thread().clone());
        }
        let mut more = fill(&mut gen, plan, &mut bufs, window);
        loop {
            let last = !more;
            shared.publish(&mut bufs, last);
            stop.helpers.iter().for_each(Thread::unpark);
            if more {
                more = fill(&mut gen, plan, &mut bufs, window);
            }
            shared.serve_claims(false);
            // Served, not just claimed: a thread may hold a claim it has
            // not locked yet, and that cell must not see the next window
            // before this one.
            if !wait(&shared.stop, || shared.served.load(Ordering::Acquire) == n) || last {
                break;
            }
        }
    });
    let Shared {
        slots, panicked, ..
    } = shared;
    if let Some((cell, message)) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(FleetError::WorkerPanicked { cell, message });
    }
    let slots = slots.into_iter().map(|slot| {
        let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        // No cell panicked, so every cell finished with the last window.
        #[allow(clippy::expect_used)]
        slot.out.expect("a cell left unfinished")
    });
    Ok(slots.unzip())
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

    /// Drives `s`'s shard plan on exactly `workers` workers, `window`
    /// arrivals to a window: the public entries bound the count by the
    /// host's cores, these tests must not.
    fn drive_on<S: TraceSink + Send>(
        s: &FleetScenario,
        workers: usize,
        window: usize,
        make_sink: impl FnMut(usize) -> S,
    ) -> Result<Vec<CellOutcome>> {
        let quotes = s.quote_table()?;
        let plan = ShardPlan::new(s, Some(&quotes));
        let cells = s.cells(&quotes, &plan, make_sink);
        let (outcomes, _) = run_workers(ArrivalGen::new(s), cells, &plan, workers, window)?;
        Ok(outcomes)
    }

    #[test]
    fn worker_panic_is_reported_with_its_cell_and_message() {
        // Each cell panics in turn. Which thread claims it varies from
        // window to window, so the panic lands on the calling thread in
        // some runs and on a spawned one in others; every run must fail
        // with the cell and its message, and none may hang.
        within_a_minute(|| {
            for (n_classes, n_cells) in [(4, 4), (16, 16)] {
                let s = scenario(n_classes, 32);
                assert_eq!(s.shard_plan().n_cells(), n_cells);
                for faulty in 0..n_cells {
                    for (workers, window) in [(2, 7), (3, 7), (2, WINDOW_ARRIVALS), (3, 64)] {
                        let result =
                            drive_on(&s, workers, window, |cell| PanickingSink { cell, faulty });
                        let Err(FleetError::WorkerPanicked { cell, message }) = result else {
                            panic!("cell {faulty}, {workers} workers: the run must fail");
                        };
                        assert_eq!(cell, faulty);
                        assert_eq!(message, format!("injected fault in cell {faulty}"));
                    }
                }
            }
        });
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
    fn uneven_two_ended_claims_reproduce_the_serial_report() {
        // Eight cells over worker counts that do not divide them: however
        // the two ends of each window's claim range meet, the outcomes
        // must merge to the shards = 1 report.
        let s = scenario(8, 24);
        assert_eq!(s.shard_plan().n_cells(), 8);
        let oracle = s.simulate_sharded(1, 1).unwrap();
        assert!(oracle.completed > 0);
        for workers in [3, 5, 7] {
            let outcomes = drive_on(&s, workers, WINDOW_ARRIVALS, |_| NullSink).unwrap();
            assert_eq!(oracle, merge::assemble(&s, &outcomes), "{workers} workers");
        }
    }

    #[test]
    fn every_window_and_worker_count_reproduces_the_serial_report() {
        // Windows of one arrival (a barrier per request), of a prime
        // count, and of the driver's own length, at worker counts above
        // the host's cores: every chaos kind and a 16-class plan must
        // merge to the (1, 1) report bit for bit.
        use crate::faults::{chaos_timeline, ChaosConfig, ChaosKind};
        let base = scenario(4, 8);
        let chaos = ChaosKind::ALL.map(|kind| FleetScenario {
            faults: chaos_timeline(
                kind,
                &base.instances,
                base.horizon_s,
                &ChaosConfig::default(),
            ),
            ..base.clone()
        });
        for s in chaos.iter().chain([&scenario(16, 32)]) {
            let oracle = s.simulate_sharded(1, 1).unwrap();
            assert!(oracle.completed > 0);
            for window in [1, 7, WINDOW_ARRIVALS] {
                for workers in [2, 3, 5] {
                    let outcomes = drive_on(s, workers, window, |_| NullSink).unwrap();
                    let report = merge::assemble(s, &outcomes);
                    assert_eq!(oracle, report, "window {window}, {workers} workers");
                }
            }
        }
    }
}
