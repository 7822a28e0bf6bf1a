//! The `campaign` and `networked` workloads: seeded simulation campaigns
//! of the paper's eight strategies, on the free (Infinite) network and on
//! priced ones.
//!
//! Untraced operations call the runner exactly as `hetsched simulate`
//! does. Traced operations rebuild each run from the same public pieces
//! (`platform_for`, the β analysis, `Engine`, `plan_shards`,
//! `run_tree_with`) with a timing wrapper around the scheduler, so that
//! every layer gets its own span; both paths must produce the same
//! digest, which also pins the rebuilt path to the runner's.

use crate::trace::Tracer;
use crate::{Counters, Ctx, Fnv, OpOut, Workload};
use hetsched_analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched_core::runner::platform_for;
use hetsched_core::{
    plan_shards, run_once, run_trials_collected, stream_trace, BetaChoice, ExperimentConfig,
    Kernel, NetworkModel, RunResult, Strategy, TraceFormat,
};
use hetsched_matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
use hetsched_outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
use hetsched_platform::{Platform, ProcId};
use hetsched_sim::{
    run_tree_with, Allocation, Engine, ProbeConfig, Recorder, Scheduler, ShardSpec, SimReport,
    Topology, TreeOpts,
};
use hetsched_util::rng::{derive_seed, rng_for};
use rand::rngs::StdRng;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Trials per configuration in one operation.
const CAMPAIGN_TRIALS: usize = 8;
const NETWORKED_TRIALS: usize = 3;
/// RNG stream of the scheduling run, as the runner derives it.
const STREAM_RUN: u64 = 0x22;
/// Events per flushed trace chunk of the streamed trace.
const TRACE_CHUNK: usize = 4096;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Random,
    Strategy::Sorted,
    Strategy::Dynamic,
    Strategy::TwoPhase(BetaChoice::Analytic),
];

/// The paper's setting: outer product (n = 100) and matmul (n = 30) under
/// all four strategies each, p = 20, free communication, flat topology.
fn campaign_configs() -> Vec<ExperimentConfig> {
    let mut cfgs = Vec::new();
    for kernel in [Kernel::Outer { n: 100 }, Kernel::Matmul { n: 30 }] {
        for strategy in STRATEGIES {
            cfgs.push(ExperimentConfig {
                kernel,
                strategy,
                processors: 20,
                ..Default::default()
            });
        }
    }
    cfgs
}

/// The same strategies under priced networks: one-port with link latency
/// and priced result returns for the outer product, bounded multiport
/// with per-worker caps for matmul.
fn priced_configs() -> Vec<ExperimentConfig> {
    let mut cfgs = Vec::new();
    for strategy in STRATEGIES {
        cfgs.push(ExperimentConfig {
            kernel: Kernel::Outer { n: 100 },
            strategy,
            processors: 20,
            network: NetworkModel::OnePort { master_bw: 800.0 },
            link_latency: 0.002,
            price_returns: true,
            ..Default::default()
        });
    }
    for strategy in STRATEGIES {
        cfgs.push(ExperimentConfig {
            kernel: Kernel::Matmul { n: 30 },
            strategy,
            processors: 20,
            network: NetworkModel::BoundedMultiport {
                master_bw: 4000.0,
                worker_bw: 400.0,
            },
            link_bandwidths: Some((0..20).map(|k| [150.0, 300.0, 600.0][k % 3]).collect()),
            link_latency: 0.001,
            ..Default::default()
        });
    }
    cfgs
}

/// A large platform split across sub-masters, shards run serially.
fn tree_config() -> ExperimentConfig {
    ExperimentConfig {
        kernel: Kernel::Outer { n: 200 },
        strategy: Strategy::Dynamic,
        processors: 500,
        network: NetworkModel::OnePort { master_bw: 5000.0 },
        topology: Topology::Tree { submasters: 10 },
        ..Default::default()
    }
}

/// The run whose probed JSONL trace each `networked` operation streams.
fn trace_config() -> ExperimentConfig {
    ExperimentConfig {
        kernel: Kernel::Outer { n: 60 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        processors: 20,
        network: NetworkModel::OnePort { master_bw: 600.0 },
        ..Default::default()
    }
}

/// The fields of one run that the digest and the checks cover.
struct Outcome {
    makespan: f64,
    total_blocks: u64,
    normalized: f64,
    beta: Option<f64>,
    tasks: Vec<u64>,
    blocks: Vec<u64>,
    returned: u64,
    max_queue: usize,
    link_util: f64,
    tier: u64,
}

impl Outcome {
    fn of_result(r: &RunResult) -> Outcome {
        Outcome {
            makespan: r.makespan,
            total_blocks: r.total_blocks,
            normalized: r.normalized_comm,
            beta: r.beta_used,
            tasks: r.tasks_per_proc.clone(),
            blocks: r.blocks_per_proc.clone(),
            returned: r.returned_blocks,
            max_queue: r.max_queue_depth,
            link_util: r.link_utilization,
            tier: r.tier_blocks,
        }
    }

    fn of_report(r: &SimReport, lb: f64, beta: Option<f64>) -> Outcome {
        Outcome {
            makespan: r.makespan,
            total_blocks: r.total_blocks,
            normalized: r.normalized(lb),
            beta,
            tasks: r.ledger.tasks_per_proc().to_vec(),
            blocks: r.ledger.blocks_per_proc().to_vec(),
            returned: r.returned_blocks,
            max_queue: r.max_queue_depth,
            link_util: r.link_utilization,
            tier: r.tier_blocks,
        }
    }

    /// Checks what holds for every correct run and folds the run into the
    /// digest and the counters.
    fn check(&self, cfg: &ExperimentConfig, h: &mut Fnv, c: &mut Counters) -> Result<(), String> {
        let label = cfg.strategy.label(cfg.kernel);
        let tasks: u64 = self.tasks.iter().sum();
        if tasks != cfg.kernel.total_tasks() as u64 {
            return Err(format!(
                "{label}: {tasks} tasks computed, {} expected",
                cfg.kernel.total_tasks()
            ));
        }
        let worker_blocks: u64 = self.blocks.iter().sum();
        if worker_blocks + self.tier != self.total_blocks {
            return Err(format!("{label}: block ledger does not add up"));
        }
        if !(self.makespan.is_finite() && self.makespan > 0.0 && self.normalized >= 1.0) {
            return Err(format!(
                "{label}: implausible makespan {} or communication ratio {}",
                self.makespan, self.normalized
            ));
        }
        h.f64(self.makespan);
        h.u64(self.total_blocks);
        h.f64(self.normalized);
        h.f64(self.beta.unwrap_or(f64::NAN));
        self.tasks.iter().for_each(|&t| h.u64(t));
        self.blocks.iter().for_each(|&b| h.u64(b));
        h.u64(self.returned);
        h.u64(self.max_queue as u64);
        h.f64(self.link_util);
        h.u64(self.tier);
        *c.entry("runs").or_default() += 1;
        *c.entry("tasks").or_default() += tasks;
        *c.entry("blocks").or_default() += self.total_blocks;
        *c.entry("returned_blocks").or_default() += self.returned;
        Ok(())
    }
}

/// One in this many `on_request` calls is timed; a clock read costs about
/// as much as a call, so timing every call would double the request layer.
const REQUEST_SAMPLE: u64 = 16;

/// The cost of one clock read, the smallest gap between two reads.
fn clock_read_ns() -> u64 {
    static NS: OnceLock<u64> = OnceLock::new();
    *NS.get_or_init(|| {
        (0..1000)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    })
}

/// A scheduler wrapper that counts every `on_request` call and times a
/// fixed sample of them.
struct Timed<S> {
    inner: S,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl<S> Timed<S> {
    /// Estimated time inside `on_request`, less the clock reads.
    fn ns(&self) -> u64 {
        let per_call =
            (self.sampled_ns as f64 / self.sampled.max(1) as f64 - clock_read_ns() as f64).max(0.0);
        (per_call * self.calls as f64) as u64
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_request(&mut self, k: ProcId, rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        self.calls += 1;
        if !self.calls.is_multiple_of(REQUEST_SAMPLE) {
            return self.inner.on_request(k, rng, out);
        }
        let start = Instant::now();
        let a = self.inner.on_request(k, rng, out);
        self.sampled_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        a
    }

    fn on_tasks_lost(&mut self, ids: &[u32]) {
        self.inner.on_tasks_lost(ids)
    }

    fn phase(&self) -> Option<u8> {
        self.inner.phase()
    }

    fn useful_fraction(&self, k: ProcId) -> Option<f64> {
        self.inner.useful_fraction(k)
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn total_tasks(&self) -> usize {
        self.inner.total_tasks()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn timed<S>(inner: S) -> Timed<S> {
    Timed {
        inner,
        calls: 0,
        sampled: 0,
        sampled_ns: 0,
    }
}

fn request_layer(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Outer { .. } => "outer.on_request",
        Kernel::Matmul { .. } => "matmul.on_request",
    }
}

/// One flat engine run inside its engine span, crediting the scheduler's
/// request time as the span's child.
fn engine<S: Scheduler>(
    tr: &mut Tracer,
    platform: &Platform,
    cfg: &ExperimentConfig,
    sched: S,
    rng: &mut StdRng,
) -> SimReport {
    let layer = if cfg.network.is_infinite() {
        "sim.engine"
    } else {
        "sim.net_engine"
    };
    tr.span(layer, |tr| {
        let (report, s) = Engine::new(platform, cfg.speed_model, timed(sched))
            .with_failures(&cfg.failures)
            .with_network(cfg.network)
            .with_return_pricing(cfg.price_returns)
            .run(rng);
        tr.child(request_layer(cfg.kernel), s.ns(), s.calls);
        report
    })
}

/// A tree run: the shard plan, then one serial flat engine per shard
/// (dynamic outer product, the tree configuration's strategy).
fn tree(tr: &mut Tracer, platform: &Platform, cfg: &ExperimentConfig, seed: u64) -> SimReport {
    let (Kernel::Outer { n }, Strategy::Dynamic, Topology::Tree { submasters }) =
        (cfg.kernel, cfg.strategy, cfg.topology)
    else {
        panic!("the traced tree path covers the dynamic outer product only");
    };
    tr.span("sim.tree", |tr| {
        let plan = tr.span("core.plan_shards", |_| plan_shards(platform, submasters, n));
        let single = plan.len() == 1;
        let shards = plan
            .iter()
            .enumerate()
            .map(|(j, s)| ShardSpec {
                scheduler: timed(DynamicOuter::rect(s.rows(), s.cols(), s.len)),
                start: s.start,
                len: s.len,
                input_blocks: (s.rows() + s.cols()) as u64,
                rng: if single {
                    rng_for(seed, STREAM_RUN)
                } else {
                    rng_for(derive_seed(seed, j as u64), STREAM_RUN)
                },
            })
            .collect();
        let (outcome, scheds) = run_tree_with(
            platform,
            cfg.speed_model,
            &cfg.failures,
            cfg.network,
            shards,
            TreeOpts {
                threads: cfg.tree_threads,
            },
            None::<&mut Recorder>,
        );
        let (ns, calls) = scheds
            .iter()
            .fold((0, 0), |a, s| (a.0 + s.ns(), a.1 + s.calls));
        tr.child("outer.on_request", ns, calls);
        outcome.report
    })
}

/// One run rebuilt from the runner's public pieces, each in its span.
fn traced_once(tr: &mut Tracer, cfg: &ExperimentConfig, seed: u64) -> Outcome {
    let (platform, lb) = tr.span("platform.sample", |_| {
        let mut pf = platform_for(cfg, seed);
        if cfg.link_latency > 0.0 {
            pf = pf.with_uniform_link_latency(cfg.link_latency);
        }
        if let Some(bws) = &cfg.link_bandwidths {
            pf = pf.with_link_bandwidths(bws.clone());
        }
        let lb = cfg.kernel.lower_bound(&pf);
        (pf, lb)
    });
    let beta = match (cfg.strategy, cfg.kernel) {
        (Strategy::TwoPhase(BetaChoice::Analytic), Kernel::Outer { n }) => {
            Some(tr.span("analysis.beta", |_| {
                OuterAnalysis::new(&platform, n).optimal_beta().0
            }))
        }
        (Strategy::TwoPhase(BetaChoice::Analytic), Kernel::Matmul { n }) => {
            Some(tr.span("analysis.beta", |_| {
                MatmulAnalysis::new(&platform, n).optimal_beta().0
            }))
        }
        (Strategy::TwoPhase(_), _) => panic!("the traced path resolves analytic β only"),
        _ => None,
    };
    let p = cfg.processors;
    let mut rng = rng_for(seed, STREAM_RUN);
    let report = match (cfg.topology, cfg.kernel, cfg.strategy) {
        (Topology::Tree { .. }, _, _) => tree(tr, &platform, cfg, seed),
        (_, Kernel::Outer { n }, Strategy::Random) => {
            engine(tr, &platform, cfg, RandomOuter::new(n, p), &mut rng)
        }
        (_, Kernel::Outer { n }, Strategy::Sorted) => {
            engine(tr, &platform, cfg, SortedOuter::new(n, p), &mut rng)
        }
        (_, Kernel::Outer { n }, Strategy::Dynamic) => {
            engine(tr, &platform, cfg, DynamicOuter::new(n, p), &mut rng)
        }
        (_, Kernel::Outer { n }, Strategy::TwoPhase(_)) => {
            let s = DynamicOuter2Phases::with_beta(n, p, beta.expect("β resolved"));
            engine(tr, &platform, cfg, s, &mut rng)
        }
        (_, Kernel::Matmul { n }, Strategy::Random) => {
            engine(tr, &platform, cfg, RandomMatrix::new(n, p), &mut rng)
        }
        (_, Kernel::Matmul { n }, Strategy::Sorted) => {
            engine(tr, &platform, cfg, SortedMatrix::new(n, p), &mut rng)
        }
        (_, Kernel::Matmul { n }, Strategy::Dynamic) => {
            engine(tr, &platform, cfg, DynamicMatrix::new(n, p), &mut rng)
        }
        (_, Kernel::Matmul { n }, Strategy::TwoPhase(_)) => {
            let s = DynamicMatrix2Phases::with_beta(n, p, beta.expect("β resolved"));
            engine(tr, &platform, cfg, s, &mut rng)
        }
        (_, _, Strategy::Static) => panic!("StaticOuter is not one of the paper's strategies"),
    };
    let events: u64 = (0..report.ledger.tasks_per_proc().len() as u32)
        .map(|k| report.ledger.requests(ProcId(k)))
        .sum();
    tr.count("sim.events", events as f64);
    if !cfg.network.is_infinite() {
        tr.count("net.blocks", report.total_blocks as f64);
        tr.count("net.returned_blocks", report.returned_blocks as f64);
        tr.count_max("net.max_queue_depth", report.max_queue_depth as f64);
    }
    Outcome::of_report(&report, lb, beta)
}

/// Runs `trials` trials of `cfg` under `seed`, untraced through the
/// runner or traced through the rebuilt path, checking every run.
fn trials(
    tr: &mut Tracer,
    cfg: &ExperimentConfig,
    trials: usize,
    seed: u64,
    h: &mut Fnv,
    c: &mut Counters,
) -> Result<(), String> {
    if tr.enabled() {
        for i in 0..trials {
            traced_once(tr, cfg, derive_seed(seed, i as u64)).check(cfg, h, c)?;
        }
    } else {
        let (results, _) = run_trials_collected(cfg, trials, seed, Some(1));
        for r in &results {
            Outcome::of_result(r).check(cfg, h, c)?;
        }
    }
    Ok(())
}

struct Campaign {
    cfgs: Vec<ExperimentConfig>,
    seed: u64,
}

impl Workload for Campaign {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let mut h = Fnv::new();
        let mut c = Counters::new();
        for cfg in &self.cfgs {
            trials(tr, cfg, CAMPAIGN_TRIALS, self.seed, &mut h, &mut c)?;
        }
        Ok(OpOut {
            counters: c,
            digest: h.0,
            wall: None,
        })
    }
}

pub fn setup_campaign(ctx: &Ctx, _tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Campaign {
        cfgs: campaign_configs(),
        seed: ctx.seed,
    }))
}

/// A `Write` that keeps the trace bytes and, when traced, times the sink's
/// writes into it.
struct TraceOut<'a> {
    buf: &'a mut Vec<u8>,
    tr: &'a mut Tracer,
}

impl Write for TraceOut<'_> {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        let buf = &mut *self.buf;
        self.tr.span("sim.sink", |_| buf.extend_from_slice(b));
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Networked {
    cfgs: Vec<ExperimentConfig>,
    tree: ExperimentConfig,
    trace: ExperimentConfig,
    seed: u64,
    trace_buf: Vec<u8>,
}

impl Workload for Networked {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let mut h = Fnv::new();
        let mut c = Counters::new();
        for cfg in &self.cfgs {
            trials(tr, cfg, NETWORKED_TRIALS, self.seed, &mut h, &mut c)?;
        }
        trials(tr, &self.tree, 1, self.seed, &mut h, &mut c)?;

        // The streamed configuration, unprobed, then probed into a trace.
        let start = Instant::now();
        let plain = tr.span("sim.trace_run", |_| run_once(&self.trace, self.seed));
        let plain_s = start.elapsed().as_secs_f64();
        let mut unprobed = Fnv::new();
        Outcome::of_result(&plain).check(&self.trace, &mut unprobed, &mut c)?;
        let mut buf = std::mem::take(&mut self.trace_buf);
        buf.clear();
        let (seed, cfg) = (self.seed, &self.trace);
        let start = Instant::now();
        // The sink's writes are child spans of the stream: its self time
        // is the probed run, the recorder and the JSONL rendering.
        let streamed = tr
            .span("sim.trace_stream", |tr| {
                let out = TraceOut { buf: &mut buf, tr };
                stream_trace(
                    cfg,
                    seed,
                    ProbeConfig::by_events(8),
                    TraceFormat::Jsonl,
                    TRACE_CHUNK,
                    out,
                )
            })
            .map_err(|e| format!("stream_trace: {e}"))?;
        let probed_s = start.elapsed().as_secs_f64();
        tr.count(
            "sim.probe_overhead_pct",
            100.0 * (probed_s - plain_s) / plain_s,
        );
        tr.count("sim.trace_bytes", buf.len() as f64);
        let mut probed = Fnv::new();
        Outcome::of_result(&streamed.result).check(cfg, &mut probed, &mut Counters::new())?;
        if probed.0 != unprobed.0 {
            return Err("the probed run differs from the unprobed one".into());
        }
        h.u64(unprobed.0);
        if !buf.starts_with(b"{\"type\":\"manifest\"") {
            return Err("the streamed trace does not start with its manifest".into());
        }
        h.bytes(&buf);
        *c.entry("trace_bytes").or_default() += buf.len() as u64;
        self.trace_buf = buf;
        Ok(OpOut {
            counters: c,
            digest: h.0,
            wall: None,
        })
    }
}

pub fn setup_networked(ctx: &Ctx, _tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Networked {
        cfgs: priced_configs(),
        tree: tree_config(),
        trace: trace_config(),
        seed: ctx.seed,
        trace_buf: Vec::new(),
    }))
}
