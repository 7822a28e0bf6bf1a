//! State probes: sampled time series of the quantities the paper's ODE
//! model evolves, and the [`Recorder`] that collects them alongside a
//! [`Trace`].
//!
//! The analysis in §3 of the paper describes the *time evolution* of
//! per-worker state: how many tasks remain, what fraction of each input
//! vector a worker already knows, how much data has crossed the master
//! link. A [`Recorder`] attached to a run samples exactly those quantities
//! on a configurable cadence ([`ProbeConfig`]), so simulated trajectories
//! can be overlaid on the analytic ones from `hetsched-analysis`.
//!
//! Recording is strictly opt-in: the engine takes an
//! `Option<&mut Recorder>` and the `None` path performs no extra work and
//! no heap allocation — the `bench-json` binary pins the unobserved
//! throughput per PR.
//!
//! ## Storage layout
//!
//! [`ProbeSeries`] is columnar (structure-of-arrays): each probed quantity
//! lives in one flat `Vec`, with the per-worker columns indexed by
//! `sample * workers + proc`. Appending a sample is a handful of
//! `extend_from_slice` calls into already-grown vectors — no per-sample
//! heap allocation, which is what made the original array-of-structs
//! layout cost a quarter of the engine's throughput. The cumulative
//! `blocks`/`tasks` counters can additionally be stored
//! [delta-encoded](ProbeConfig::with_delta_encoding) as `u32` increments,
//! halving their footprint on long runs.
//!
//! ## Streaming
//!
//! A [`Recorder`] is generic over a [`StreamingSink`]. The default
//! ([`NullSink`]) buffers the whole trace in memory, exactly as before.
//! [`Recorder::streaming`] instead bounds the in-memory trace to a fixed
//! chunk of events: whenever the buffer fills, it is flushed to the sink
//! and cleared, so peak trace memory is O(chunk), not O(events).

use crate::metrics::CommLedger;
use crate::scheduler::Scheduler;
use crate::sink::{NullSink, StreamingSink};
use crate::trace::{EventKind, Trace, TraceEvent};
use hetsched_net::NetState;
use hetsched_platform::ProcId;

/// When to take a [`ProbeSample`]. Event-count and sim-time cadences can
/// be combined; the default ([`ProbeConfig::disabled`]) never samples (the
/// recorder then only collects the trace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeConfig {
    every_events: u64,
    every_time: f64,
    delta: bool,
}

impl ProbeConfig {
    /// Never sample (trace collection only).
    pub fn disabled() -> Self {
        ProbeConfig::default()
    }

    /// Sample after every `n` allocation events (`0` disables the
    /// event-count cadence).
    pub fn by_events(n: u64) -> Self {
        ProbeConfig {
            every_events: n,
            every_time: 0.0,
            delta: false,
        }
    }

    /// Sample every `dt` units of simulated time (`dt <= 0` disables the
    /// sim-time cadence). Samples are taken at the first allocation event
    /// on or after each grid point, so they sit on event times.
    pub fn by_time(dt: f64) -> Self {
        assert!(dt.is_finite(), "probe period must be finite");
        ProbeConfig {
            every_events: 0,
            every_time: dt.max(0.0),
            delta: false,
        }
    }

    /// Store the cumulative `blocks`/`tasks` counters as `u32` deltas
    /// against the previous sample instead of absolute `u64`s, halving
    /// their memory per cell. Purely a storage choice: materialized
    /// samples ([`ProbeSeries::get`]/[`ProbeSeries::iter`]) and rendered
    /// sinks are bit-identical either way.
    pub fn with_delta_encoding(mut self) -> Self {
        self.delta = true;
        self
    }

    /// True if the counter columns are stored delta-encoded.
    pub fn delta_encoding(&self) -> bool {
        self.delta
    }

    /// True if either cadence is active.
    pub fn is_enabled(&self) -> bool {
        self.every_events > 0 || self.every_time > 0.0
    }
}

/// One snapshot of the engine's observable state, materialized from the
/// columnar [`ProbeSeries`] store.
#[derive(Clone, Debug)]
pub struct ProbeSample {
    /// Simulated time of the snapshot.
    pub time: f64,
    /// Allocation events recorded so far.
    pub events: u64,
    /// Tasks not yet allocated (the residual set the ODE evolves).
    pub remaining: usize,
    /// Cumulative blocks received per worker.
    pub blocks_per_proc: Vec<u64>,
    /// Cumulative tasks computed per worker.
    pub tasks_per_proc: Vec<u64>,
    /// The strategy's per-worker useful-task (knowledge) fraction, from
    /// [`Scheduler::useful_fraction`]; `NaN` when the strategy does not
    /// track it.
    pub useful_fraction: Vec<f64>,
    /// Cumulative master-link busy time (zero under the infinite network).
    pub link_busy: f64,
    /// Deepest master send queue observed so far (zero under the infinite
    /// network).
    pub queue_depth: usize,
}

/// The per-`(sample, worker)` cumulative counter columns. `Absolute`
/// stores the raw `u64` counters; `Delta` stores `u32` increments against
/// the previous sample (the counters are monotone non-decreasing), at half
/// the memory per cell. `last_*` keep the running absolutes so appends
/// stay O(p).
#[derive(Clone, Debug)]
enum Counters {
    Absolute {
        blocks: Vec<u64>,
        tasks: Vec<u64>,
    },
    Delta {
        blocks: Vec<u32>,
        tasks: Vec<u32>,
        last_blocks: Vec<u64>,
        last_tasks: Vec<u64>,
    },
}

/// The probe samples of one run, in time order, stored as flat columns
/// indexed by `(sample, proc)`.
///
/// Samples are materialized on demand: [`get`](ProbeSeries::get) builds
/// one [`ProbeSample`], [`iter`](ProbeSeries::iter) walks all of them in
/// O(p) per step (reconstructing delta-encoded counters with a running
/// cursor). Random access under delta encoding is O(i·p) — use `iter` for
/// scans.
#[derive(Clone, Debug)]
pub struct ProbeSeries {
    /// Workers per sample; fixed by the first push.
    p: usize,
    time: Vec<f64>,
    events: Vec<u64>,
    remaining: Vec<usize>,
    link_busy: Vec<f64>,
    queue_depth: Vec<usize>,
    /// Sample-major `len * p` column of useful fractions.
    useful: Vec<f64>,
    counters: Counters,
}

impl Default for ProbeSeries {
    fn default() -> Self {
        ProbeSeries::new()
    }
}

impl ProbeSeries {
    /// Empty series with absolute counter columns.
    pub fn new() -> Self {
        ProbeSeries {
            p: 0,
            time: Vec::new(),
            events: Vec::new(),
            remaining: Vec::new(),
            link_busy: Vec::new(),
            queue_depth: Vec::new(),
            useful: Vec::new(),
            counters: Counters::Absolute {
                blocks: Vec::new(),
                tasks: Vec::new(),
            },
        }
    }

    /// Empty series whose counter columns are stored as `u32` deltas.
    pub fn with_delta_encoding() -> Self {
        ProbeSeries {
            counters: Counters::Delta {
                blocks: Vec::new(),
                tasks: Vec::new(),
                last_blocks: Vec::new(),
                last_tasks: Vec::new(),
            },
            ..ProbeSeries::new()
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True if nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Workers per sample (0 until the first sample lands).
    pub fn workers(&self) -> usize {
        self.p
    }

    /// True if the counter columns are delta-encoded.
    pub fn delta_encoded(&self) -> bool {
        matches!(self.counters, Counters::Delta { .. })
    }

    /// Approximate heap footprint of the stored columns, in bytes.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let counters = match &self.counters {
            Counters::Absolute { blocks, tasks } => (blocks.len() + tasks.len()) * 8,
            Counters::Delta {
                blocks,
                tasks,
                last_blocks,
                last_tasks,
            } => (blocks.len() + tasks.len()) * 4 + (last_blocks.len() + last_tasks.len()) * 8,
        };
        self.time.len() * 8
            + self.events.len() * 8
            + self.remaining.len() * size_of::<usize>()
            + self.link_busy.len() * 8
            + self.queue_depth.len() * size_of::<usize>()
            + self.useful.len() * 8
            + counters
    }

    /// Materializes sample `i`. Panics if out of range. O(i·p) under delta
    /// encoding (must replay the increments); prefer [`iter`](Self::iter)
    /// for scans.
    pub fn get(&self, i: usize) -> ProbeSample {
        assert!(i < self.len(), "probe sample {i} out of range");
        let p = self.p;
        let (blocks_per_proc, tasks_per_proc) = match &self.counters {
            Counters::Absolute { blocks, tasks } => (
                blocks[i * p..(i + 1) * p].to_vec(),
                tasks[i * p..(i + 1) * p].to_vec(),
            ),
            Counters::Delta { blocks, tasks, .. } => {
                let mut b = vec![0u64; p];
                let mut t = vec![0u64; p];
                for row in 0..=i {
                    for k in 0..p {
                        b[k] += u64::from(blocks[row * p + k]);
                        t[k] += u64::from(tasks[row * p + k]);
                    }
                }
                (b, t)
            }
        };
        ProbeSample {
            time: self.time[i],
            events: self.events[i],
            remaining: self.remaining[i],
            blocks_per_proc,
            tasks_per_proc,
            useful_fraction: self.useful[i * p..(i + 1) * p].to_vec(),
            link_busy: self.link_busy[i],
            queue_depth: self.queue_depth[i],
        }
    }

    /// The final sample, if any (O(n·p) under delta encoding).
    pub fn last(&self) -> Option<ProbeSample> {
        (!self.is_empty()).then(|| self.get(self.len() - 1))
    }

    /// Iterates all samples in order, materializing each in O(p).
    pub fn iter(&self) -> ProbeIter<'_> {
        ProbeIter {
            series: self,
            i: 0,
            blocks: vec![0; self.p],
            tasks: vec![0; self.p],
        }
    }

    /// Appends one sample: scalars plus the per-worker counter slices and
    /// a useful-fraction generator evaluated for `0..p`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_sample(
        &mut self,
        time: f64,
        events: u64,
        remaining: usize,
        blocks: &[u64],
        tasks: &[u64],
        link_busy: f64,
        queue_depth: usize,
        useful: impl FnMut(usize) -> f64,
    ) {
        debug_assert_eq!(blocks.len(), tasks.len());
        if self.time.is_empty() {
            self.p = blocks.len();
        }
        debug_assert_eq!(blocks.len(), self.p, "worker count changed mid-series");
        self.time.push(time);
        self.events.push(events);
        self.remaining.push(remaining);
        self.link_busy.push(link_busy);
        self.queue_depth.push(queue_depth);
        self.useful.extend((0..self.p).map(useful));
        match &mut self.counters {
            Counters::Absolute {
                blocks: cb,
                tasks: ct,
            } => {
                cb.extend_from_slice(blocks);
                ct.extend_from_slice(tasks);
            }
            Counters::Delta {
                blocks: db,
                tasks: dt,
                last_blocks,
                last_tasks,
            } => {
                if last_blocks.is_empty() {
                    last_blocks.resize(self.p, 0);
                    last_tasks.resize(self.p, 0);
                }
                let delta32 = |cur: u64, last: u64| -> u32 {
                    u32::try_from(cur - last)
                        .expect("probe delta overflow: counter advanced by >= 2^32 between samples")
                };
                for k in 0..self.p {
                    db.push(delta32(blocks[k], last_blocks[k]));
                    dt.push(delta32(tasks[k], last_tasks[k]));
                    last_blocks[k] = blocks[k];
                    last_tasks[k] = tasks[k];
                }
            }
        }
    }
}

impl ProbeSeries {
    /// Pre-sizes every column for `samples` more samples of `p` workers
    /// each, so a probed run appends without reallocation-and-copy growth.
    pub(crate) fn reserve(&mut self, samples: usize, p: usize) {
        self.time.reserve(samples);
        self.events.reserve(samples);
        self.remaining.reserve(samples);
        self.link_busy.reserve(samples);
        self.queue_depth.reserve(samples);
        self.useful.reserve(samples * p);
        match &mut self.counters {
            Counters::Absolute { blocks, tasks } => {
                blocks.reserve(samples * p);
                tasks.reserve(samples * p);
            }
            Counters::Delta { blocks, tasks, .. } => {
                blocks.reserve(samples * p);
                tasks.reserve(samples * p);
            }
        }
    }
}

/// Sequential materializing iterator over a [`ProbeSeries`]; carries the
/// running counter absolutes so delta-encoded series decode in O(p) per
/// step.
pub struct ProbeIter<'a> {
    series: &'a ProbeSeries,
    i: usize,
    blocks: Vec<u64>,
    tasks: Vec<u64>,
}

impl Iterator for ProbeIter<'_> {
    type Item = ProbeSample;

    fn next(&mut self) -> Option<ProbeSample> {
        let s = self.series;
        let (i, p) = (self.i, s.p);
        if i >= s.len() {
            return None;
        }
        self.i += 1;
        match &s.counters {
            Counters::Absolute { blocks, tasks } => {
                self.blocks.copy_from_slice(&blocks[i * p..(i + 1) * p]);
                self.tasks.copy_from_slice(&tasks[i * p..(i + 1) * p]);
            }
            Counters::Delta { blocks, tasks, .. } => {
                for k in 0..p {
                    self.blocks[k] += u64::from(blocks[i * p + k]);
                    self.tasks[k] += u64::from(tasks[i * p + k]);
                }
            }
        }
        Some(ProbeSample {
            time: s.time[i],
            events: s.events[i],
            remaining: s.remaining[i],
            blocks_per_proc: self.blocks.clone(),
            tasks_per_proc: self.tasks.clone(),
            useful_fraction: s.useful[i * p..(i + 1) * p].to_vec(),
            link_busy: s.link_busy[i],
            queue_depth: s.queue_depth[i],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.series.len() - self.i;
        (left, Some(left))
    }
}

/// Collects a [`Trace`] and a [`ProbeSeries`] for one run.
///
/// Attach with [`Engine::run_recorded`](crate::Engine::run_recorded); the
/// engine emits every [`TraceEvent`] through it and it decides, per
/// [`ProbeConfig`], when to snapshot the run state. A fresh sample is
/// always taken at `t = 0` and at the end of the run, so trajectories are
/// anchored at both ends even with sampling disabled mid-run — unless the
/// config is fully [`disabled`](ProbeConfig::disabled), which suppresses
/// sampling entirely.
///
/// In the default buffered mode ([`Recorder::new`]) the whole trace stays
/// in memory and [`into_parts`](Recorder::into_parts) hands it back. In
/// streaming mode ([`Recorder::streaming`]) the trace buffer is flushed to
/// the sink every `chunk_events` events, so peak trace memory is bounded
/// by the chunk size; call [`finish`](Recorder::finish) to flush the tail
/// and recover the sink.
#[derive(Clone, Debug)]
pub struct Recorder<K: StreamingSink = NullSink> {
    cfg: ProbeConfig,
    trace: Trace,
    probes: ProbeSeries,
    alloc_events: u64,
    /// Allocation events left until the next event-cadence sample
    /// (`u64::MAX` when the event cadence is off) — a countdown instead of
    /// a modulo, keeping the per-event path division-free.
    events_until_sample: u64,
    next_sample_time: f64,
    last_phase: Option<u8>,
    sink: K,
    /// Flush threshold in events; 0 = buffered (never flush).
    chunk: usize,
    peak_events: usize,
    flushed_events: usize,
}

impl Recorder {
    /// Buffered recorder with the given probe cadence.
    pub fn new(cfg: ProbeConfig) -> Recorder<NullSink> {
        Recorder::with_sink(cfg, NullSink, 0)
    }
}

impl<K: StreamingSink> Recorder<K> {
    /// Streaming recorder: the trace buffer is flushed to `sink` whenever
    /// it holds `chunk_events` events (and once more, with the tail and
    /// the probe series, on [`finish`](Recorder::finish)).
    pub fn streaming(cfg: ProbeConfig, sink: K, chunk_events: usize) -> Recorder<K> {
        assert!(chunk_events > 0, "streaming chunk must hold >= 1 event");
        Recorder::with_sink(cfg, sink, chunk_events)
    }

    fn with_sink(cfg: ProbeConfig, sink: K, chunk: usize) -> Recorder<K> {
        Recorder {
            cfg,
            trace: Trace::new(),
            probes: if cfg.delta {
                ProbeSeries::with_delta_encoding()
            } else {
                ProbeSeries::new()
            },
            alloc_events: 0,
            events_until_sample: if cfg.every_events > 0 {
                cfg.every_events
            } else {
                u64::MAX
            },
            next_sample_time: if cfg.every_time > 0.0 {
                cfg.every_time
            } else {
                f64::INFINITY
            },
            last_phase: None,
            sink,
            chunk,
            peak_events: 0,
            flushed_events: 0,
        }
    }

    /// The trace recorded so far (in streaming mode: the unflushed tail).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The probe samples recorded so far.
    pub fn probes(&self) -> &ProbeSeries {
        &self.probes
    }

    /// High-water mark of the in-memory trace buffer, in events. Bounded
    /// by the chunk size in streaming mode.
    pub fn peak_buffered_events(&self) -> usize {
        self.peak_events
    }

    /// Events already handed to the sink (0 in buffered mode).
    pub fn flushed_events(&self) -> usize {
        self.flushed_events
    }

    /// Consumes the recorder, returning the trace and the probe series.
    /// In streaming mode the trace is only the unflushed tail — use
    /// [`finish`](Recorder::finish) there instead.
    pub fn into_parts(self) -> (Trace, ProbeSeries) {
        (self.trace, self.probes)
    }

    /// Consumes the recorder, returning just the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Flushes the remaining trace tail and the probe series to the sink
    /// and returns it. The sink's `finish` is called exactly once.
    pub fn finish(mut self) -> K {
        self.flush();
        self.sink.finish(&self.probes);
        self.sink
    }

    /// Pre-sizes the trace buffer and the probe columns: engines call
    /// this with their event estimate and worker count so recorded runs
    /// avoid reallocation-and-copy growth. In streaming mode the trace
    /// buffer never exceeds the chunk; the probe estimate covers the
    /// event-cadence samples plus the two anchor samples (the time
    /// cadence's sample count is unknown up front and grows normally).
    pub(crate) fn reserve_events(&mut self, n: usize, workers: usize) {
        let want = if self.chunk > 0 { self.chunk.min(n) } else { n };
        self.trace.reserve(want);
        if self.cfg.is_enabled() {
            let samples = (n as u64).checked_div(self.cfg.every_events).unwrap_or(0) + 2;
            self.probes.reserve(samples as usize, workers);
        }
    }

    fn flush(&mut self) {
        if !self.trace.is_empty() {
            self.sink.write_events(self.trace.events());
            self.flushed_events += self.trace.len();
            self.trace.clear();
        }
    }

    fn push_event(&mut self, ev: TraceEvent) {
        self.trace.push(ev);
        if self.trace.len() > self.peak_events {
            self.peak_events = self.trace.len();
        }
        if self.chunk > 0 && self.trace.len() >= self.chunk {
            self.flush();
        }
    }

    /// Feeds pre-built events (a merged tree-shard trace) through the
    /// normal event path, so streaming sinks see the usual chunked
    /// flushes. Probe cadence does not advance: the events were already
    /// recorded (or deliberately not sampled) by the engine that ran them.
    pub(crate) fn absorb_events(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        for ev in events {
            self.push_event(ev);
        }
    }

    /// Records one event and, for allocation events, advances the probe
    /// cadence (sampling the run state if a cadence point was reached).
    pub(crate) fn observe<S: Scheduler>(
        &mut self,
        ev: TraceEvent,
        sched: &S,
        ledger: &CommLedger,
        net: Option<&NetState>,
    ) {
        let now = ev.time;
        let is_alloc = ev.kind.is_allocation();
        self.push_event(ev);
        if !is_alloc {
            return;
        }
        self.alloc_events += 1;
        self.events_until_sample -= 1;
        let due_events = self.events_until_sample == 0;
        if due_events {
            self.events_until_sample = self.cfg.every_events;
        }
        let due_time = now >= self.next_sample_time;
        if due_time {
            while now >= self.next_sample_time {
                self.next_sample_time += self.cfg.every_time;
            }
        }
        if due_events || due_time {
            self.sample(now, sched, ledger, net);
        }
    }

    /// Emits a [`EventKind::PhaseSwitch`] event if the scheduler's phase
    /// changed since the last check. Engines call this right after
    /// [`Scheduler::on_request`], the only point a phase can flip.
    pub(crate) fn note_phase<S: Scheduler>(&mut self, now: f64, k: ProcId, sched: &S) {
        if let Some(phase) = sched.phase() {
            if self.last_phase.is_some_and(|prev| prev != phase) {
                self.push_event(TraceEvent {
                    kind: EventKind::PhaseSwitch,
                    time: now,
                    proc: k,
                    tasks: 0,
                    blocks: 0,
                    duration: 0.0,
                });
            }
            self.last_phase = Some(phase);
        }
    }

    /// Takes one snapshot unconditionally (engines use this for the
    /// anchoring samples at `t = 0` and at run end).
    pub(crate) fn sample<S: Scheduler>(
        &mut self,
        now: f64,
        sched: &S,
        ledger: &CommLedger,
        net: Option<&NetState>,
    ) {
        if !self.cfg.is_enabled() {
            return;
        }
        self.probes.push_sample(
            now,
            self.alloc_events,
            sched.remaining(),
            ledger.blocks_per_proc(),
            ledger.tasks_per_proc(),
            net.map_or(0.0, |n| n.master_busy()),
            net.map_or(0, |n| n.max_queue_depth()),
            |k| sched.useful_fraction(ProcId(k as u32)).unwrap_or(f64::NAN),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Allocation;
    use rand::rngs::StdRng;

    /// Toy scheduler with a controllable phase and tracked fractions.
    struct Toy {
        remaining: usize,
        phase: u8,
    }

    impl Scheduler for Toy {
        fn on_request(&mut self, _k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
            let t = 1.min(self.remaining);
            self.remaining -= t;
            out.extend(std::iter::repeat_n(0, t));
            Allocation {
                tasks: t,
                blocks: t as u64,
            }
        }
        fn remaining(&self) -> usize {
            self.remaining
        }
        fn total_tasks(&self) -> usize {
            10
        }
        fn name(&self) -> &'static str {
            "Toy"
        }
        fn phase(&self) -> Option<u8> {
            Some(self.phase)
        }
        fn useful_fraction(&self, k: ProcId) -> Option<f64> {
            (k.idx() == 0).then_some(0.25)
        }
    }

    fn batch(time: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Batch,
            time,
            proc: ProcId(0),
            tasks: 1,
            blocks: 1,
            duration: 0.5,
        }
    }

    #[test]
    fn event_cadence_samples_every_n_allocations() {
        let mut rec = Recorder::new(ProbeConfig::by_events(2));
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(2);
        for i in 0..5 {
            rec.observe(batch(i as f64), &sched, &ledger, None);
        }
        assert_eq!(rec.probes().len(), 2, "samples at events 2 and 4");
        assert_eq!(rec.probes().get(0).events, 2);
        assert_eq!(rec.probes().get(1).events, 4);
        assert_eq!(rec.trace().len(), 5);
    }

    #[test]
    fn time_cadence_snaps_to_next_event() {
        let mut rec = Recorder::new(ProbeConfig::by_time(1.0));
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(1);
        for &t in &[0.2, 0.4, 1.7, 1.8, 3.5] {
            rec.observe(batch(t), &sched, &ledger, None);
        }
        // Grid points 1.0 and (2.0, 3.0 coalesced) are each taken once, at
        // the first event past them.
        let times: Vec<f64> = rec.probes().iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1.7, 3.5]);
    }

    #[test]
    fn overlay_events_do_not_advance_the_cadence() {
        let mut rec = Recorder::new(ProbeConfig::by_events(1));
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(1);
        rec.observe(
            TraceEvent {
                kind: EventKind::Wait,
                time: 0.0,
                proc: ProcId(0),
                tasks: 0,
                blocks: 0,
                duration: 1.0,
            },
            &sched,
            &ledger,
            None,
        );
        assert_eq!(rec.probes().len(), 0);
        rec.observe(batch(1.0), &sched, &ledger, None);
        assert_eq!(rec.probes().len(), 1);
    }

    #[test]
    fn disabled_config_records_trace_only() {
        let mut rec = Recorder::new(ProbeConfig::disabled());
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(1);
        rec.observe(batch(0.0), &sched, &ledger, None);
        rec.sample(1.0, &sched, &ledger, None);
        assert_eq!(rec.trace().len(), 1);
        assert!(rec.probes().is_empty(), "disabled probes never sample");
    }

    #[test]
    fn phase_switch_emitted_once_per_transition() {
        let mut rec = Recorder::new(ProbeConfig::disabled());
        let mut sched = Toy {
            remaining: 7,
            phase: 1,
        };
        rec.note_phase(0.0, ProcId(0), &sched);
        rec.note_phase(0.5, ProcId(1), &sched);
        sched.phase = 2;
        rec.note_phase(1.0, ProcId(1), &sched);
        rec.note_phase(1.5, ProcId(0), &sched);
        let switches: Vec<_> = rec
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::PhaseSwitch)
            .collect();
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].time, 1.0);
        assert_eq!(switches[0].proc, ProcId(1));
    }

    #[test]
    fn samples_carry_useful_fraction_and_nan_for_untracked() {
        let mut rec = Recorder::new(ProbeConfig::by_events(1));
        let sched = Toy {
            remaining: 3,
            phase: 1,
        };
        let ledger = CommLedger::new(2);
        rec.observe(batch(0.0), &sched, &ledger, None);
        let s = rec.probes().get(0);
        assert_eq!(s.useful_fraction[0], 0.25);
        assert!(s.useful_fraction[1].is_nan());
        assert_eq!(s.remaining, 3);
        assert_eq!(s.link_busy, 0.0);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn delta_encoding_materializes_identically() {
        let mut abs = ProbeSeries::new();
        let mut del = ProbeSeries::with_delta_encoding();
        let rows: [(&[u64], &[u64]); 3] =
            [(&[3, 0], &[1, 0]), (&[3, 8], &[1, 4]), (&[10, 8], &[5, 4])];
        for (i, (b, t)) in rows.iter().enumerate() {
            for s in [&mut abs, &mut del] {
                s.push_sample(i as f64, i as u64, 9 - i, b, t, 0.5 * i as f64, i, |k| {
                    k as f64
                });
            }
        }
        assert!(del.delta_encoded() && !abs.delta_encoded());
        assert!(del.approx_bytes() < abs.approx_bytes());
        for (a, d) in abs.iter().zip(del.iter()) {
            assert_eq!(a.blocks_per_proc, d.blocks_per_proc);
            assert_eq!(a.tasks_per_proc, d.tasks_per_proc);
            assert_eq!(a.time, d.time);
            assert_eq!(a.useful_fraction, d.useful_fraction);
        }
        // Random access agrees with iteration.
        for i in 0..3 {
            assert_eq!(abs.get(i).blocks_per_proc, del.get(i).blocks_per_proc);
        }
        assert_eq!(del.last().unwrap().blocks_per_proc, vec![10, 8]);
    }

    /// Sink that remembers flushed chunk sizes.
    #[derive(Default)]
    struct CountChunks {
        chunks: Vec<usize>,
        probes: usize,
        finished: bool,
    }

    impl StreamingSink for CountChunks {
        fn write_events(&mut self, events: &[TraceEvent]) {
            self.chunks.push(events.len());
        }
        fn finish(&mut self, probes: &ProbeSeries) {
            self.probes = probes.len();
            self.finished = true;
        }
    }

    #[test]
    fn streaming_recorder_bounds_the_buffer_and_flushes_chunks() {
        let mut rec = Recorder::streaming(ProbeConfig::by_events(2), CountChunks::default(), 3);
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(1);
        for i in 0..8 {
            rec.observe(batch(i as f64), &sched, &ledger, None);
        }
        assert!(rec.peak_buffered_events() <= 3, "peak bounded by chunk");
        assert_eq!(rec.flushed_events(), 6, "two full chunks flushed");
        assert_eq!(rec.trace().len(), 2, "tail still buffered");
        let probes = rec.probes().len();
        let sink = rec.finish();
        assert_eq!(sink.chunks, vec![3, 3, 2], "tail flushed on finish");
        assert!(sink.finished);
        assert_eq!(sink.probes, probes);
    }

    #[test]
    fn buffered_recorder_never_flushes() {
        let mut rec = Recorder::new(ProbeConfig::disabled());
        let sched = Toy {
            remaining: 7,
            phase: 1,
        };
        let ledger = CommLedger::new(1);
        for i in 0..100 {
            rec.observe(batch(i as f64), &sched, &ledger, None);
        }
        assert_eq!(rec.flushed_events(), 0);
        assert_eq!(rec.peak_buffered_events(), 100);
        assert_eq!(rec.trace().len(), 100);
    }
}
