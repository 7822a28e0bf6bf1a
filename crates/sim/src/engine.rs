//! The demand-driven simulation loop.
//!
//! One event loop serves every network model. It is generic over a private
//! `Link` trait with two instances:
//!
//! * the **free** link ([`NetworkModel::Infinite`], the paper's model)
//!   makes every transfer instantaneous: a batch starts computing the
//!   moment its worker requests it, and the worker requests again when the
//!   batch is done;
//! * the **priced** link ([`NetState`]) times transfers over the master's
//!   channels, and communication overlaps computation through depth-1
//!   prefetch: when a batch starts computing, its worker at once requests
//!   the next one. An arriving batch starts at `max(arrival,
//!   compute-done)`; the gap, when positive, is the worker's *transfer
//!   wait* — the quantity the free link assumes away — counted from the
//!   later of the worker's last compute-done and its request. A transfer
//!   ends in an `Arrive` event of its own only when it lands at or after
//!   its worker's compute-done, or goes to an idle or dying worker: a
//!   batch that lands while its worker still computes is started by that
//!   worker's `Done`, and an `Arrive` for it would only have marked it
//!   landed.
//!
//! Both instances share the event queue, the fault bookkeeping, the
//! re-ship ledger, the request path, the recorder calls and the report.
//! Monomorphisation compiles the priced parts out of the free instance: it
//! pushes no `Arrive` events, parks no batches and samples no link state.
//! On the free link nearly every event is a `Done` whose handler pushes
//! the same worker's next `Done`, which the queue turns into one
//! replace-top (see the `event` module).
//!
//! Fail-stop semantics: worker deaths are `Death` events pushed before
//! anything else, so a failure at time `f` is handled before any other
//! event at `f`. A batch whose computation would finish strictly after the
//! failure time is lost (its blocks and the burned compute time are
//! recorded, its tasks re-allocated), while a batch finishing exactly at
//! the failure time completes. A batch in transfer (or arrived but never
//! started) toward a dead worker is pure waste: its blocks count as
//! shipped *and* wasted, and its tasks return to the scheduler exactly
//! once.

use crate::event::{Event, EventQueue};
use crate::metrics::CommLedger;
use crate::probe::{ProbeConfig, Recorder};
use crate::scheduler::Scheduler;
use crate::sink::StreamingSink;
use crate::trace::{EventKind, Trace, TraceEvent};
use hetsched_net::{NetState, NetworkModel, TransferPlan};
use hetsched_platform::{FailureModel, Platform, ProcId, SpeedModel, SpeedState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Per-worker communication/work ledger.
    pub ledger: CommLedger,
    /// Simulated time at which the last task completed.
    pub makespan: f64,
    /// Total blocks shipped (denormalized convenience copy).
    pub total_blocks: u64,
    /// Tasks lost to worker failures (each was re-allocated and completed
    /// elsewhere; zero without fault injection).
    pub lost_tasks: u64,
    /// Blocks shipped for batches that re-allocate failure-lost tasks (zero
    /// without fault injection).
    pub reshipped_blocks: u64,
    /// Master-link utilization (busy time over `makespan × channels`; zero
    /// under [`NetworkModel::Infinite`]).
    pub link_utilization: f64,
    /// Largest number of batches ever queued behind the master's busy
    /// channels (zero under [`NetworkModel::Infinite`]).
    pub max_queue_depth: usize,
    /// Blocks transferred toward workers that failed before computing on
    /// them — bandwidth wasted on corpses (zero without fault injection or
    /// under [`NetworkModel::Infinite`]).
    pub wasted_blocks: u64,
    /// Blocks shipped over root → sub-master links by the hierarchical tree
    /// topology ([`crate::tree::run_tree_with`]). Always zero on the flat
    /// topology and for a single-sub-master tree; counted in
    /// [`total_blocks`](Self::total_blocks) but not in the per-worker
    /// ledger.
    pub tier_blocks: u64,
    /// Result (C-block) volume written back to the master over the priced
    /// link. Zero unless return-path pricing is enabled
    /// ([`Engine::with_return_pricing`]); kept out of
    /// [`total_blocks`](Self::total_blocks) so the input-traffic lower-bound
    /// comparison stays meaningful.
    pub returned_blocks: u64,
}

impl SimReport {
    /// Total communication normalized by a lower bound.
    pub fn normalized(&self, lower_bound: f64) -> f64 {
        self.total_blocks as f64 / lower_bound
    }
}

/// The simulation engine: borrows the platform, drives a [`Scheduler`]
/// and reports the run's clock and [`CommLedger`].
///
/// # Examples
///
/// ```
/// use hetsched_platform::{Platform, SpeedModel};
/// use hetsched_sim::Engine;
/// use hetsched_util::rng::rng_for;
/// # use hetsched_sim::{Allocation, Scheduler};
/// # use hetsched_platform::ProcId;
/// # struct Chunks(usize);
/// # impl Scheduler for Chunks {
/// #     fn on_request(&mut self, _: ProcId, _: &mut rand::rngs::StdRng, out: &mut Vec<u32>) -> Allocation {
/// #         let t = self.0.min(4); self.0 -= t;
/// #         out.extend((self.0 as u32)..(self.0 + t) as u32);
/// #         Allocation { tasks: t, blocks: t as u64 }
/// #     }
/// #     fn remaining(&self) -> usize { self.0 }
/// #     fn total_tasks(&self) -> usize { 100 }
/// #     fn name(&self) -> &'static str { "chunks" }
/// # }
///
/// let platform = Platform::from_speeds(vec![25.0, 75.0]);
/// let (report, _) = Engine::new(&platform, SpeedModel::Fixed, Chunks(100)).run(&mut rng_for(0, 0));
/// assert_eq!(report.ledger.total_tasks(), 100);
/// // Demand driven ⇒ work conserving: makespan ≈ work / Σspeed.
/// assert!((report.makespan - 1.0).abs() < 0.2);
/// ```
pub struct Engine<'a, S: Scheduler> {
    platform: &'a Platform,
    speeds: SpeedState,
    scheduler: S,
    failures: FailureModel,
    network: NetworkModel,
    price_returns: bool,
}

impl<'a, S: Scheduler> Engine<'a, S> {
    /// Creates an engine over `platform` with the given run-time speed model.
    pub fn new(platform: &'a Platform, model: SpeedModel, scheduler: S) -> Self {
        Engine {
            platform,
            speeds: SpeedState::new(platform, model),
            scheduler,
            failures: FailureModel::none(),
            network: NetworkModel::Infinite,
            price_returns: false,
        }
    }

    /// Prices transfers under `network` instead of the paper's free
    /// communication model. With [`NetworkModel::Infinite`] (the default)
    /// the engine runs the free instance of its loop, so results are
    /// bit-for-bit identical to an engine without this call.
    ///
    /// # Panics
    ///
    /// If the model's bandwidths do not validate.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        network.validate().expect("invalid network model");
        self.network = network;
        self
    }

    /// Also charges each completed batch's result write-back (one C block
    /// per task, the coarse uniform-block model the input path already uses)
    /// on the master link. Returns contend with input transfers for the same
    /// channels, so enabling this raises link utilization and can extend the
    /// makespan to the arrival of the last write-back. Off by default —
    /// existing runs stay bit-identical — and a no-op under
    /// [`NetworkModel::Infinite`], where all transfers are free anyway.
    pub fn with_return_pricing(mut self, price_returns: bool) -> Self {
        self.price_returns = price_returns;
        self
    }

    /// Injects a fault scenario. Stragglers degrade their worker's speed
    /// immediately; a fail-stop failure at time `f` is handled at `f`.
    /// With [`FailureModel::none`] the engine takes no extra RNG draws and
    /// schedules no extra events, so results are bit-for-bit identical to
    /// a fault-free run.
    ///
    /// # Panics
    ///
    /// If the scenario does not validate against this platform.
    pub fn with_failures(mut self, failures: &FailureModel) -> Self {
        failures
            .validate(self.platform.len())
            .expect("invalid failure scenario for this platform");
        assert!(
            !failures.has_stochastic(),
            "stochastic failure entries must be resolved (FailureModel::resolve) \
             before the engine consumes the scenario"
        );
        for &(k, factor) in failures.stragglers() {
            self.speeds.slow_down(k, factor);
        }
        self.failures = failures.clone();
        self
    }

    /// Runs to completion and returns the report plus the scheduler (whose
    /// final state tests may want to audit).
    ///
    /// All workers request at `t = 0` in a random order — the paper's
    /// strategies are demand driven and the initial service order is an
    /// artifact of the platform, so it is randomized under the run's seed.
    pub fn run(self, rng: &mut StdRng) -> (SimReport, S) {
        self.run_impl(rng, None::<&mut Recorder>)
    }

    /// Like [`run`](Self::run) but also records a [`Trace`] of every
    /// satisfied request (a [`Recorder`] with probing disabled).
    pub fn run_traced(self, rng: &mut StdRng) -> (SimReport, S, Trace) {
        let mut rec = Recorder::new(ProbeConfig::disabled());
        let (report, scheduler) = self.run_impl(rng, Some(&mut rec));
        (report, scheduler, rec.into_trace())
    }

    /// Like [`run`](Self::run) but emits every event and probe sample
    /// through `rec`. With probing disabled this is trace collection; with
    /// a cadence configured the recorder also snapshots the ODE-observable
    /// state ([`crate::ProbeSample`]) over the run. The recorder may be
    /// buffered (the default) or [streaming](Recorder::streaming) into any
    /// [`StreamingSink`].
    pub fn run_recorded<K: StreamingSink>(
        self,
        rng: &mut StdRng,
        rec: &mut Recorder<K>,
    ) -> (SimReport, S) {
        self.run_impl(rng, Some(rec))
    }

    /// Picks the loop instance: the network model is the only selector.
    fn run_impl<K: StreamingSink>(
        self,
        rng: &mut StdRng,
        rec: Option<&mut Recorder<K>>,
    ) -> (SimReport, S) {
        if self.network.is_infinite() {
            return Run::new(self, Free).go(rng, rec);
        }
        let p = self.platform.len();
        let net = NetState::new(self.network, p, self.platform.link_latencies().to_vec());
        let net = match self.platform.link_bandwidths() {
            Some(bws) => net.with_worker_bandwidths(bws.to_vec()),
            None => net,
        };
        Run::new(self, net).go(rng, rec)
    }
}

/// The master's outbound link, as the event loop sees it.
trait Link {
    /// Transfers take time: batches travel as `Arrive` events and workers
    /// prefetch. `false` compiles every priced branch out of the loop.
    const PRICED: bool;
    /// Prices sending `blocks` blocks to worker `k` at `now`.
    fn send(&mut self, k: ProcId, blocks: u64, now: f64) -> TransferPlan;
    /// The link state probe samples and the report read (`None` when free).
    fn state(&self) -> Option<&NetState>;
}

/// The paper's link: every transfer arrives the moment it is sent.
struct Free;

impl Link for Free {
    const PRICED: bool = false;

    fn send(&mut self, _k: ProcId, _blocks: u64, now: f64) -> TransferPlan {
        TransferPlan {
            start: now,
            end: now,
            arrival: now,
        }
    }

    fn state(&self) -> Option<&NetState> {
        None
    }
}

impl Link for NetState {
    const PRICED: bool = true;

    fn send(&mut self, k: ProcId, blocks: u64, now: f64) -> TransferPlan {
        NetState::send(self, k, blocks, now)
    }

    fn state(&self) -> Option<&NetState> {
        Some(self)
    }
}

/// The batch sent ahead to a worker on the priced link: in transfer, or
/// landed and waiting for the worker to free up. Empty when `ids` is — a
/// stored batch holds at least one task.
#[derive(Default)]
struct Parked {
    ids: Vec<u32>,
    blocks: u64,
    /// It lands before the running batch's compute-done, so no `Arrive`
    /// was queued for it and that `Done` starts it.
    landed: bool,
}

/// Per-worker state of one run.
#[derive(Default)]
struct Worker {
    /// Failure time (`INFINITY` for a worker that never fails).
    fail: f64,
    dead: bool,
    /// Computing a batch it will not finish; its `Death` event discovers
    /// the loss.
    dying: bool,
    computing: bool,
    /// When the batch being computed completes (while `computing`).
    finish: f64,
    /// Tasks of the batch being computed, written back at `Done` when
    /// return pricing is on.
    done_tasks: usize,
    /// When the worker last became idle and wanting work (its last `Done`,
    /// or the retry that unparked it); a batch starting later charges the
    /// gap as transfer wait.
    idle_since: f64,
    /// Task ids of the batch a dying worker is computing.
    doomed: Vec<u32>,
    /// The batch sent ahead (priced links only).
    pending: Parked,
}

/// One run of the event loop over link `L`. Every buffer is reused, so
/// the steady-state loop performs no heap allocation once warm.
struct Run<S, L> {
    speeds: SpeedState,
    scheduler: S,
    price_returns: bool,
    link: L,
    ledger: CommLedger,
    makespan: f64,
    queue: EventQueue,
    workers: Vec<Worker>,
    /// Ids lost to failures and not yet re-allocated, for re-ship
    /// accounting.
    lost_ids: HashSet<u32>,
    /// Scheduler fill buffer, handed to `on_request` empty.
    batch: Vec<u32>,
}

/// A trace event, positionally.
fn event(
    kind: EventKind,
    time: f64,
    proc: ProcId,
    tasks: usize,
    blocks: u64,
    duration: f64,
) -> TraceEvent {
    TraceEvent {
        kind,
        time,
        proc,
        tasks,
        blocks,
        duration,
    }
}

impl<S: Scheduler, L: Link> Run<S, L> {
    fn new(engine: Engine<'_, S>, link: L) -> Self {
        let workers = engine
            .platform
            .procs()
            .map(|k| Worker {
                fail: engine.failures.fail_time(k).unwrap_or(f64::INFINITY),
                ..Worker::default()
            })
            .collect();
        Run {
            speeds: engine.speeds,
            scheduler: engine.scheduler,
            price_returns: engine.price_returns,
            link,
            ledger: CommLedger::new(engine.platform.len()),
            makespan: 0.0,
            queue: EventQueue::default(),
            workers,
            lost_ids: HashSet::new(),
            batch: Vec::new(),
        }
    }

    fn go<K: StreamingSink>(
        mut self,
        rng: &mut StdRng,
        mut rec: Option<&mut Recorder<K>>,
    ) -> (SimReport, S) {
        let p = self.workers.len();
        let procs = || (0..p as u32).map(ProcId);
        // Deaths first: they carry the lowest sequence numbers.
        for k in procs() {
            let fail = self.workers[k.idx()].fail;
            if fail.is_finite() {
                self.queue.push(fail, Event::Death, k);
            }
        }
        // Every worker requests at t = 0, in a seed-shuffled order; on a
        // priced link the transfers are priced (and the link contended) in
        // that order.
        let mut initial: Vec<ProcId> = procs().collect();
        initial.shuffle(rng);
        for k in initial {
            self.queue.push(0.0, Event::Retry, k);
        }

        if let Some(r) = rec.as_deref_mut() {
            // Pre-size the trace: about one event per allocation (at most
            // one per task with single-task batches), a transfer and a wait
            // more per batch when priced, and one retirement per worker,
            // capped so absurd configs don't over-reserve.
            let per_task = if L::PRICED { 2 } else { 1 };
            r.reserve_events(
                (per_task * self.scheduler.total_tasks() + p).min(1 << 20),
                p,
            );
            // Anchor the probed trajectory at t = 0.
            r.sample(0.0, &self.scheduler, &self.ledger, self.link.state());
        }

        while let Some((now, kind, k)) = self.queue.pop() {
            let w = &mut self.workers[k.idx()];
            if w.dead {
                continue;
            }
            match kind {
                Event::Death => self.death(k, now, &mut rec),
                Event::Arrive => {
                    // Queued only toward a worker that is idle, dying, or
                    // done computing by the time the batch lands.
                    debug_assert!(!w.pending.ids.is_empty() && !w.computing);
                    // A doomed worker never starts it: its death strands it.
                    if !w.dying {
                        self.start_pending(k, now, rng, &mut rec);
                    }
                }
                Event::Done => {
                    if L::PRICED && self.price_returns {
                        // Write the finished batch's results (one C block
                        // per task) back over the same master channels the
                        // input path uses, so returns contend with sends.
                        // Priced here — at the batch's finish time — to
                        // keep channel bookings monotonic in event time.
                        let returned = w.done_tasks as u64;
                        let ret = self.link.send(k, returned, now);
                        self.ledger.record_returned(k, returned);
                        self.makespan = self.makespan.max(ret.arrival);
                    }
                    w.computing = false;
                    w.idle_since = now;
                    if !L::PRICED || w.pending.ids.is_empty() {
                        self.request(k, now, rng, &mut rec);
                    } else if w.pending.landed {
                        self.start_pending(k, now, rng, &mut rec);
                    }
                    // else: the prefetched batch is still in transfer; its
                    // `Arrive` starts it.
                }
                Event::Retry => {
                    let has_batch = L::PRICED && !w.pending.ids.is_empty();
                    if w.dying || w.computing || has_batch {
                        continue;
                    }
                    w.idle_since = now;
                    self.request(k, now, rng, &mut rec);
                }
            }
        }

        if let Some(r) = rec {
            // Anchor the probed trajectory at the makespan.
            r.sample(
                self.makespan,
                &self.scheduler,
                &self.ledger,
                self.link.state(),
            );
        }
        assert_eq!(
            self.scheduler.remaining(),
            0,
            "engine stopped with unallocated tasks"
        );
        let net = self.link.state();
        let report = SimReport {
            makespan: self.makespan,
            total_blocks: self.ledger.total_blocks(),
            lost_tasks: self.ledger.total_lost_tasks(),
            reshipped_blocks: self.ledger.total_reshipped_blocks(),
            link_utilization: net.map_or(0.0, |n| n.utilization(self.makespan)),
            max_queue_depth: net.map_or(0, NetState::max_queue_depth),
            wasted_blocks: self.ledger.total_wasted_blocks(),
            tier_blocks: 0,
            returned_blocks: self.ledger.total_returned_blocks(),
            ledger: self.ledger,
        };
        (report, self.scheduler)
    }

    /// Emits `ev` through the recorder, if one is attached.
    #[inline]
    fn emit<K: StreamingSink>(&self, rec: &mut Option<&mut Recorder<K>>, ev: TraceEvent) {
        if let Some(r) = rec.as_deref_mut() {
            r.observe(ev, &self.scheduler, &self.ledger, self.link.state());
        }
    }

    /// Returns failure-lost `ids` of worker `k` to the scheduler.
    fn lose(&mut self, k: ProcId, ids: &[u32]) {
        self.ledger.record_lost(k, ids.len());
        self.lost_ids.extend(ids.iter().copied());
        self.scheduler.on_tasks_lost(ids);
    }

    /// Worker `k` dies at `now`: the batch it was computing dies with it,
    /// and a batch in transfer (or landed but never started) is pure
    /// waste — the master spent the bandwidth, the tasks go back to the
    /// pool.
    fn death<K: StreamingSink>(&mut self, k: ProcId, now: f64, rec: &mut Option<&mut Recorder<K>>) {
        let w = &mut self.workers[k.idx()];
        w.dead = true;
        let doomed = std::mem::take(&mut w.doomed);
        let Parked { ids, blocks, .. } = std::mem::take(&mut w.pending);
        if w.dying {
            self.lose(k, &doomed);
        }
        if !ids.is_empty() {
            self.ledger.record(k, 0, blocks, 0.0);
            self.ledger.record_wasted(k, blocks);
            self.lose(k, &ids);
            self.emit(rec, event(EventKind::Stranded, now, k, 0, blocks, 0.0));
        }
    }

    /// Asks the scheduler for worker `k`'s next batch: on the free link the
    /// batch starts at once, on a priced one it goes on the wire. Parks the
    /// worker (a `Retry` at the next possible death) when the pool is
    /// empty but may be replenished.
    fn request<K: StreamingSink>(
        &mut self,
        k: ProcId,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) {
        if self.scheduler.remaining() == 0 {
            let w = &self.workers[k.idx()];
            if w.computing || w.dying {
                // A busy worker re-requests at compute-done.
                return;
            }
            // Tasks only return to the pool when a failure is handled:
            // wake at the earliest death still ahead, or drain.
            let earliest = self
                .workers
                .iter()
                .filter(|w| !w.dead && w.fail >= now)
                .fold(f64::INFINITY, |t, w| t.min(w.fail));
            if earliest.is_finite() {
                self.queue.push(earliest, Event::Retry, k);
            }
            return;
        }
        self.batch.clear();
        let alloc = self.scheduler.on_request(k, rng, &mut self.batch);
        debug_assert_eq!(
            self.batch.len(),
            alloc.tasks,
            "scheduler contract: out ids == tasks"
        );
        if let Some(r) = rec.as_deref_mut() {
            r.note_phase(now, k, &self.scheduler);
        }
        if alloc.is_done() {
            // Worker retired (cannot contribute further); its blocks
            // (normally zero) still ship and count.
            self.link.send(k, alloc.blocks, now);
            self.ledger.record(k, 0, alloc.blocks, 0.0);
            self.emit(rec, event(EventKind::Retire, now, k, 0, alloc.blocks, 0.0));
            return;
        }
        if !self.lost_ids.is_empty() {
            // Re-ship accounting, at batch granularity: a batch that
            // re-allocates any failure-lost task charges its blocks to the
            // recovery counter. Once every lost id has been re-allocated
            // the set is empty again and this block costs nothing.
            let mut reallocates = false;
            for id in &self.batch {
                reallocates |= self.lost_ids.remove(id);
            }
            if reallocates {
                self.ledger.record_reshipped(k, alloc.blocks);
            }
        }
        if !L::PRICED {
            if self.start(k, alloc.tasks, alloc.blocks, now, rng, rec) {
                // `doomed` is empty here, so the buffers change hands at
                // zero cost.
                std::mem::swap(&mut self.workers[k.idx()].doomed, &mut self.batch);
            }
            return;
        }
        let plan = self.link.send(k, alloc.blocks, now);
        if alloc.blocks > 0 {
            // The channel-busy interval, for the net lane of the gantt
            // chart. Its blocks duplicate the allocation event the batch
            // will emit, so sinks never re-count them.
            let wire = plan.end - plan.start;
            self.emit(
                rec,
                event(EventKind::Transfer, plan.start, k, 0, alloc.blocks, wire),
            );
        }
        let w = &mut self.workers[k.idx()];
        debug_assert!(w.pending.ids.is_empty(), "one batch in transfer per worker");
        std::mem::swap(&mut w.pending.ids, &mut self.batch);
        w.pending.blocks = alloc.blocks;
        // A batch landing before the running one completes needs no event:
        // its worker's `Done` starts it.
        w.pending.landed = w.computing && plan.arrival < w.finish;
        if !w.pending.landed {
            self.queue.push(plan.arrival, Event::Arrive, k);
        }
    }

    /// Starts computing a batch of `tasks` tasks and `blocks` blocks on
    /// worker `k` at `now`, charging its transfer wait. Returns `true` when
    /// the worker dies before the batch completes; the caller then keeps
    /// the batch's ids as the worker's `doomed` batch.
    fn start<K: StreamingSink>(
        &mut self,
        k: ProcId,
        tasks: usize,
        blocks: u64,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) -> bool {
        let (idle_since, fail) = (self.workers[k.idx()].idle_since, self.workers[k.idx()].fail);
        let wait = now - idle_since;
        self.ledger.record_wait(k, wait);
        if wait > 0.0 {
            self.emit(rec, event(EventKind::Wait, idle_since, k, 0, 0, wait));
        }
        let dur = self.speeds.batch_duration(k, tasks, rng);
        let finish = now + dur;
        if fail < finish {
            // The worker dies mid-batch: the blocks were shipped and
            // `fail − now` of compute is burned, but no task completes.
            self.ledger.record(k, 0, blocks, fail - now);
            self.workers[k.idx()].dying = true;
            self.emit(rec, event(EventKind::Lost, now, k, 0, blocks, fail - now));
            return true;
        }
        self.ledger.record(k, tasks, blocks, dur);
        self.emit(rec, event(EventKind::Batch, now, k, tasks, blocks, dur));
        self.makespan = self.makespan.max(finish);
        let w = &mut self.workers[k.idx()];
        w.computing = true;
        w.finish = finish;
        w.done_tasks = tasks;
        self.queue.push(finish, Event::Done, k);
        false
    }

    /// Starts the batch that landed at worker `k` (priced links only) and
    /// prefetches the next one, so its transfer overlaps this computation.
    fn start_pending<K: StreamingSink>(
        &mut self,
        k: ProcId,
        now: f64,
        rng: &mut StdRng,
        rec: &mut Option<&mut Recorder<K>>,
    ) {
        let pending = &self.workers[k.idx()].pending;
        let doomed = self.start(k, pending.ids.len(), pending.blocks, now, rng, rec);
        let w = &mut self.workers[k.idx()];
        if doomed {
            std::mem::swap(&mut w.pending.ids, &mut w.doomed);
        }
        w.pending.ids.clear();
        // Depth-1 prefetch. The master cannot know a worker is doomed, so
        // dying workers prefetch too — that bandwidth ends up wasted.
        self.request(k, now, rng, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Allocation;
    use crate::testkit::{pool, PoolSched};
    use hetsched_util::rng::rng_for;

    fn one_port(bw: f64) -> NetworkModel {
        NetworkModel::OnePort { master_bw: bw }
    }

    /// The free link and a one-port link at `bw`.
    fn both_links(bw: f64) -> [NetworkModel; 2] {
        [NetworkModel::Infinite, one_port(bw)]
    }

    /// Runs `sched` on `pf` under `failures` and `net`, seeded with `seed`.
    fn run<S: Scheduler>(
        pf: &Platform,
        model: SpeedModel,
        sched: S,
        failures: &FailureModel,
        net: NetworkModel,
        seed: u64,
    ) -> (SimReport, S) {
        Engine::new(pf, model, sched)
            .with_failures(failures)
            .with_network(net)
            .run(&mut rng_for(seed, 0))
    }

    /// A fault-free run on the free link.
    fn free<S: Scheduler>(pf: &Platform, model: SpeedModel, sched: S, seed: u64) -> (SimReport, S) {
        run(
            pf,
            model,
            sched,
            &FailureModel::none(),
            NetworkModel::Infinite,
            seed,
        )
    }

    #[test]
    fn all_tasks_get_done_exactly_once() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 70.0]);
        for net in both_links(50.0) {
            let (report, sched) = run(
                &pf,
                SpeedModel::Fixed,
                pool(1000, 4),
                &FailureModel::none(),
                net,
                0,
            );
            assert_eq!(sched.remaining(), 0, "{net:?}");
            assert_eq!(report.ledger.total_tasks(), 1000, "{net:?}");
            assert_eq!(report.total_blocks, 1000, "{net:?}");
            assert!(sched.counts.iter().all(|&c| c == 1), "{net:?}");
        }
    }

    #[test]
    fn faster_processors_do_proportionally_more() {
        let pf = Platform::from_speeds(vec![10.0, 90.0]);
        let (report, _) = free(&pf, SpeedModel::Fixed, pool(10_000, 1), 1);
        let t0 = report.ledger.tasks(ProcId(0)) as f64;
        let t1 = report.ledger.tasks(ProcId(1)) as f64;
        // Demand-driven: shares track relative speeds (0.1 / 0.9).
        assert!((t0 / 10_000.0 - 0.1).abs() < 0.01, "t0 = {t0}");
        assert!((t1 / 10_000.0 - 0.9).abs() < 0.01, "t1 = {t1}");
    }

    #[test]
    fn makespan_matches_total_work_over_total_speed() {
        // Single-task batches, fixed speeds: the demand-driven engine is
        // work conserving, so makespan ≈ total_tasks / Σ s_i, up to one task.
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let (report, _) = free(&pf, SpeedModel::Fixed, pool(5000, 1), 2);
        let ideal = 5000.0 / 100.0;
        assert!(
            (report.makespan - ideal).abs() < 2.0 / 25.0,
            "makespan {} vs ideal {}",
            report.makespan,
            ideal
        );
    }

    #[test]
    fn busy_time_within_one_batch_of_makespan() {
        // Work conservation: a worker only goes idle when the task pool is
        // empty, so its idle time is bounded by the duration of the last
        // batch still running elsewhere — at most one batch on the
        // *slowest* worker.
        let pf = Platform::from_speeds(vec![10.0, 40.0, 50.0]);
        let (report, _) = free(&pf, SpeedModel::Fixed, pool(2000, 7), 3);
        let slowest_batch = 7.0 / 10.0;
        for k in pf.procs() {
            let slack = report.makespan - report.ledger.busy(k);
            assert!(
                slack <= slowest_batch + 1e-9,
                "worker {k} idle for {slack}, more than the slowest batch {slowest_batch}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let pf = Platform::from_speeds(vec![30.0, 50.0, 20.0]);
        let faulty = FailureModel::none()
            .fail_at(ProcId(2), 0.7)
            .slow_down(ProcId(0), 2.0);
        for net in both_links(25.0) {
            for failures in [FailureModel::none(), faulty.clone()] {
                let go = || run(&pf, SpeedModel::dyn5(), pool(800, 3), &failures, net, 15).0;
                let (r1, r2) = (go(), go());
                assert_eq!(r1.total_blocks, r2.total_blocks);
                assert_eq!(r1.ledger.tasks_per_proc(), r2.ledger.tasks_per_proc());
                assert_eq!(r1.makespan, r2.makespan);
                assert_eq!(r1.lost_tasks, r2.lost_tasks);
                assert_eq!(r1.reshipped_blocks, r2.reshipped_blocks);
                assert_eq!(r1.link_utilization, r2.link_utilization);
                assert_eq!(r1.max_queue_depth, r2.max_queue_depth);
            }
        }
    }

    #[test]
    fn dynamic_speeds_complete_all_work() {
        let pf = Platform::from_speeds(vec![100.0, 100.0]);
        let (report, _) = free(&pf, SpeedModel::dyn20(), pool(3000, 5), 8);
        assert_eq!(report.ledger.total_tasks(), 3000);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn normalized_report() {
        let pf = Platform::homogeneous(4);
        let (report, _) = free(&pf, SpeedModel::Fixed, pool(100, 1), 9);
        assert!((report.normalized(50.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_worker_platform() {
        let pf = Platform::from_speeds(vec![7.0]);
        let (report, _) = free(&pf, SpeedModel::Fixed, pool(49, 6), 10);
        assert_eq!(report.ledger.tasks(ProcId(0)), 49);
        assert!((report.makespan - 7.0).abs() < 1e-9);
    }

    #[test]
    fn no_failures_is_bit_for_bit_identical() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 70.0]);
        let (plain, _) =
            Engine::new(&pf, SpeedModel::dyn5(), pool(600, 4)).run(&mut rng_for(11, 0));
        let (faulty, _) = free(&pf, SpeedModel::dyn5(), pool(600, 4), 11);
        assert_eq!(plain.total_blocks, faulty.total_blocks);
        assert_eq!(
            plain.ledger.tasks_per_proc(),
            faulty.ledger.tasks_per_proc()
        );
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(faulty.lost_tasks, 0);
        assert_eq!(faulty.reshipped_blocks, 0);
    }

    #[test]
    fn failed_worker_batch_is_reallocated_exactly_once() {
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 1.2);
        let (report, sched) = run(
            &pf,
            SpeedModel::Fixed,
            pool(100, 5),
            &failures,
            NetworkModel::Infinite,
            12,
        );
        // Worker 0 dies mid-batch: its 5 in-flight tasks are lost, returned
        // to the pool, and completed elsewhere.
        assert_eq!(report.lost_tasks, 5);
        assert_eq!(report.ledger.lost_tasks(ProcId(0)), 5);
        assert_eq!(report.ledger.total_tasks(), 100);
        assert!(report.reshipped_blocks > 0, "recovery re-ships blocks");
        assert!(
            sched.counts.iter().all(|&c| c == 1),
            "every task allocated exactly once net of losses"
        );
        // The survivor finishes the failed worker's share.
        assert!(report.ledger.tasks(ProcId(1)) > 50);
    }

    #[test]
    fn failure_discovery_unparks_drained_workers() {
        // The fast worker exhausts the pool and drains at t ≈ 0.1, long
        // before the slow worker's death at t = 5 returns 10 tasks to the
        // pool. The engine must bring it back to pick those up, and charge
        // it only the wait for that batch's transfer — not the time it sat
        // parked.
        let pf = Platform::from_speeds(vec![1.0, 100.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 5.0);
        for (net, seed, makespan, wait) in [
            (NetworkModel::Infinite, 13, 5.1, 0.0),
            (one_port(1000.0), 10, 5.11, 0.02),
        ] {
            let (report, sched, trace) = Engine::new(&pf, SpeedModel::Fixed, pool(20, 10))
                .with_failures(&failures)
                .with_network(net)
                .run_traced(&mut rng_for(seed, 0));
            assert_eq!(report.lost_tasks, 10, "{net:?}");
            assert_eq!(report.ledger.total_tasks(), 20, "{net:?}");
            assert_eq!(report.ledger.tasks(ProcId(1)), 20, "{net:?}");
            assert!(sched.counts.iter().all(|&c| c == 1), "{net:?}");
            // Recovery starts only at the discovery time.
            assert!(
                (report.makespan - makespan).abs() < 1e-9,
                "{net:?}: {}",
                report.makespan
            );
            let charged = report.ledger.transfer_wait(ProcId(1));
            assert!((charged - wait).abs() < 1e-9, "{net:?}: wait {charged}");
            // No single wait outlasts one 10-block transfer.
            let waits = trace
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::Wait && e.proc == ProcId(1));
            for e in waits {
                assert!(e.duration <= 0.01 + 1e-9, "{net:?}: {e:?}");
            }
        }
    }

    #[test]
    fn a_death_is_handled_before_a_same_instant_request() {
        // Worker 0 (speed 10) computes a 5-task batch in 0.5, worker 1
        // (speed 8) in 0.625, and worker 0 fails at 0.625, the very instant
        // worker 1 requests its second batch. On the free link worker 1 has
        // just finished its first batch and worker 0 is computing its
        // second. On a one-port link at 8 blocks per time unit, where the
        // seed sends worker 1's first batch first, that batch has just
        // arrived and worker 1 prefetches, while worker 0's first batch is
        // still in transfer. The death is handled first, so that request
        // re-allocates the tasks worker 0 lost.
        let pf = Platform::from_speeds(vec![10.0, 8.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 0.625);
        for net in both_links(8.0) {
            let (report, sched) = run(&pf, SpeedModel::Fixed, pool(40, 5), &failures, net, 3);
            assert!(report.lost_tasks > 0, "{net:?}");
            let lost: HashSet<u32> = sched.batches_of(ProcId(0)).concat().into_iter().collect();
            let second = sched.batches_of(ProcId(1))[1];
            assert!(
                second.iter().all(|id| lost.contains(id)),
                "{net:?}: worker 1's request at 0.625 got {second:?}, not the returned tasks"
            );
            assert!(sched.counts.iter().all(|&c| c == 1), "{net:?}");
        }
    }

    #[test]
    fn straggler_shifts_load_without_losing_tasks() {
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().slow_down(ProcId(0), 4.0);
        for (net, tasks, batch, seed, tol) in [
            (NetworkModel::Infinite, 1000, 1, 14, 0.02),
            (one_port(100.0), 600, 2, 8, 0.05),
        ] {
            let (report, _) = run(
                &pf,
                SpeedModel::Fixed,
                pool(tasks, batch),
                &failures,
                net,
                seed,
            );
            assert_eq!(report.lost_tasks, 0, "{net:?}");
            assert_eq!(report.ledger.total_tasks(), tasks as u64, "{net:?}");
            let t0 = report.ledger.tasks(ProcId(0)) as f64;
            // Effective speeds 2.5 vs 10 ⇒ the straggler does ~1/5 of the work.
            assert!((t0 / tasks as f64 - 0.2).abs() < tol, "{net:?}: t0 = {t0}");
        }
    }

    /// Worker 0 retires immediately (with one futile block); the others share
    /// the pool. Exercises the retirement trace event.
    struct RetireFirst(PoolSched);

    impl Scheduler for RetireFirst {
        fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            if k.idx() == 0 {
                return Allocation {
                    tasks: 0,
                    blocks: 1,
                };
            }
            self.0.on_request(k, rng, out)
        }
        fn on_tasks_lost(&mut self, ids: &[u32]) {
            self.0.on_tasks_lost(ids)
        }
        fn remaining(&self) -> usize {
            self.0.remaining()
        }
        fn total_tasks(&self) -> usize {
            self.0.total_tasks()
        }
        fn name(&self) -> &'static str {
            "RetireFirst"
        }
    }

    #[test]
    fn trace_reconciles_with_ledger_including_retirement_and_failure() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let failures = FailureModel::none().fail_at(ProcId(2), 0.9);
        for net in both_links(30.0) {
            let (report, _, trace) = Engine::new(&pf, SpeedModel::Fixed, RetireFirst(pool(300, 4)))
                .with_failures(&failures)
                .with_network(net)
                .run_traced(&mut rng_for(16, 0));
            assert!(report.lost_tasks > 0, "{net:?}: the failure struck");

            // The retirement is visible in the trace as a typed event…
            let retire: Vec<_> = trace
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::Retire)
                .collect();
            assert_eq!(retire.len(), 1, "{net:?}");
            assert_eq!(retire[0].proc, ProcId(0));
            assert_eq!(retire[0].blocks, 1);
            assert_eq!(retire[0].duration, 0.0);

            // …and the trace reconciles with the ledger event for event
            // (allocation kinds only — overlay kinds such as transfers and
            // waits carry no ledger volume).
            let alloc_events = || trace.events().iter().filter(|e| e.kind.is_allocation());
            let trace_blocks: u64 = alloc_events().map(|e| e.blocks).sum();
            assert_eq!(trace_blocks, report.ledger.total_blocks(), "{net:?}");
            let trace_tasks: usize = alloc_events().map(|e| e.tasks).sum();
            assert_eq!(trace_tasks as u64, report.ledger.total_tasks(), "{net:?}");
            let requests: u64 = pf.procs().map(|k| report.ledger.requests(k)).sum();
            assert_eq!(trace.allocation_count() as u64, requests, "{net:?}");
            for k in pf.procs() {
                assert!((trace.busy_time(k) - report.ledger.busy(k)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn recorded_run_matches_plain_run_and_probes_anchor() {
        let pf = Platform::from_speeds(vec![10.0, 30.0]);
        for net in both_links(200.0) {
            let engine = || Engine::new(&pf, SpeedModel::Fixed, pool(400, 4)).with_network(net);
            let (plain, _) = engine().run(&mut rng_for(17, 0));
            let mut rec = Recorder::new(ProbeConfig::by_events(10));
            let (probed, _) = engine().run_recorded(&mut rng_for(17, 0), &mut rec);
            // Observation never perturbs the simulation.
            assert_eq!(plain.total_blocks, probed.total_blocks);
            assert_eq!(plain.makespan, probed.makespan);
            let (trace, probes) = rec.into_parts();
            assert_eq!(trace.allocation_count(), 100, "{net:?}");
            // Anchors at both ends plus every tenth allocation in between.
            assert!(probes.len() >= 2 + 100 / 10, "{} samples", probes.len());
            let first = probes.get(0);
            let last = probes.last().unwrap();
            assert_eq!(first.time, 0.0);
            assert_eq!(first.remaining, 400);
            assert_eq!(last.time, probed.makespan);
            assert_eq!(last.remaining, 0);
            // Monotone residual trajectory.
            let all: Vec<_> = probes.iter().collect();
            for w in all.windows(2) {
                assert!(w[1].remaining <= w[0].remaining);
                assert!(w[1].time >= w[0].time);
            }
        }
    }

    #[test]
    fn makespan_respects_the_bandwidth_bound() {
        // Every block crosses the one-port link, so the makespan can never
        // beat total_blocks / master_bw.
        let pf = Platform::from_speeds(vec![40.0, 60.0]);
        let bw = 10.0;
        let (report, _) = run(
            &pf,
            SpeedModel::Fixed,
            pool(400, 5),
            &FailureModel::none(),
            one_port(bw),
            1,
        );
        let comm_lb = report.total_blocks as f64 / bw;
        assert!(
            report.makespan >= comm_lb - 1e-9,
            "makespan {} below the communication bound {}",
            report.makespan,
            comm_lb
        );
        // Comm-bound regime: the link is the bottleneck, so it is nearly
        // saturated and the workers mostly wait.
        assert!(report.link_utilization > 0.9, "{}", report.link_utilization);
        assert!(report.ledger.total_transfer_wait() > 0.0);
    }

    #[test]
    fn generous_bandwidth_approaches_the_infinite_makespan() {
        let pf = Platform::from_speeds(vec![25.0, 75.0]);
        let none = FailureModel::none();
        let [inf, fat] =
            both_links(1e6).map(|net| run(&pf, SpeedModel::Fixed, pool(500, 5), &none, net, 2).0);
        // With an effectively free link, the only slowdown left is the
        // initial (un-overlapped) transfer of the first batches.
        assert!(
            fat.makespan <= inf.makespan * 1.05,
            "fat {} vs infinite {}",
            fat.makespan,
            inf.makespan
        );
        assert_eq!(fat.total_blocks, inf.total_blocks);
    }

    #[test]
    fn tighter_bandwidth_never_helps() {
        let pf = Platform::from_speeds(vec![30.0, 70.0]);
        let none = FailureModel::none();
        let mk = |bw: f64| {
            run(&pf, SpeedModel::Fixed, pool(300, 4), &none, one_port(bw), 3)
                .0
                .makespan
        };
        assert!(mk(5.0) >= mk(20.0) - 1e-9);
        assert!(mk(20.0) >= mk(100.0) - 1e-9);
    }

    #[test]
    fn latency_delays_completion() {
        let pf = Platform::from_speeds(vec![50.0, 50.0]);
        let lagged = pf.clone().with_uniform_link_latency(0.5);
        let none = FailureModel::none();
        let mk = |p: &Platform| {
            run(
                p,
                SpeedModel::Fixed,
                pool(100, 10),
                &none,
                one_port(200.0),
                4,
            )
            .0
            .makespan
        };
        assert!(mk(&lagged) > mk(&pf) + 0.4, "latency must show up");
    }

    #[test]
    fn multiport_beats_one_port_at_equal_aggregate() {
        // Same aggregate bandwidth, but the multiport master overlaps
        // transfers to different workers; with per-worker caps the slow
        // serial phases shrink.
        let pf = Platform::from_speeds(vec![20.0, 20.0, 20.0, 20.0]);
        let none = FailureModel::none();
        let run_with = |net| run(&pf, SpeedModel::Fixed, pool(400, 5), &none, net, 5).0;
        let one = run_with(one_port(40.0));
        let multi = run_with(NetworkModel::BoundedMultiport {
            master_bw: 40.0,
            worker_bw: 10.0,
        });
        assert!(
            multi.makespan <= one.makespan + 1e-9,
            "multiport {} vs one-port {}",
            multi.makespan,
            one.makespan
        );
    }

    #[test]
    fn death_with_batch_in_flight_wastes_bandwidth() {
        // Slow link: worker 0 dies while transfers toward it are pending,
        // so some blocks are shipped but never computed on.
        let pf = Platform::from_speeds(vec![10.0, 10.0]);
        let failures = FailureModel::none().fail_at(ProcId(0), 1.0);
        let (report, sched) = run(
            &pf,
            SpeedModel::Fixed,
            pool(100, 5),
            &failures,
            one_port(8.0),
            6,
        );
        assert_eq!(report.ledger.total_tasks(), 100);
        assert!(
            sched.counts.iter().all(|&c| c == 1),
            "every task computed exactly once net of losses"
        );
        assert!(report.lost_tasks > 0);
        assert!(
            report.wasted_blocks > 0,
            "a transfer in flight to the dead worker must be attributed"
        );
        assert_eq!(
            report.wasted_blocks,
            report.ledger.wasted_blocks(ProcId(0)),
            "waste is attributed to the dead worker"
        );
        // Wasted blocks were still shipped: they are part of total volume.
        assert!(report.total_blocks > 100);
    }

    #[test]
    fn transfer_and_wait_events_reconcile_with_net_metrics() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0]);
        let (report, _, trace) = Engine::new(&pf, SpeedModel::Fixed, pool(300, 4))
            .with_network(one_port(20.0))
            .run_traced(&mut rng_for(11, 0));
        // Every shipped block rides exactly one transfer event.
        let transfer_blocks: u64 = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Transfer)
            .map(|e| e.blocks)
            .sum();
        assert_eq!(transfer_blocks, report.total_blocks);
        // Wait events sum to the ledger's transfer-wait total.
        let wait: f64 = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Wait)
            .map(|e| e.duration)
            .sum();
        assert!(
            (wait - report.ledger.total_transfer_wait()).abs() < 1e-9,
            "trace wait {wait} vs ledger {}",
            report.ledger.total_transfer_wait()
        );
        assert!(wait > 0.0, "a comm-bound run must record waits");
    }
}
