//! Seeded experiment execution: single runs and parallel trial campaigns.

use crate::config::{BetaChoice, ExperimentConfig, Kernel, Strategy};
use crate::shard::{plan_shards, ShardLayout};
use hetsched_analysis::{MatmulAnalysis, OuterAnalysis};
use hetsched_matmul::Matmul;
use hetsched_outer::Outer;
use hetsched_platform::Platform;
use hetsched_sim::{
    run_tree_with, Dynamic, Random, Recorder, Scheduler, ShardSpec, SimReport, Sorted,
    StreamingSink, TaskKernel, Topology, TreeOpts, TreeOutcome, TwoPhase,
};
use hetsched_util::rng::{derive_seed, rng_for};
use hetsched_util::OnlineStats;
use rand::rngs::StdRng;

/// RNG stream ids, so the platform draw and the scheduling run are
/// independent for a given trial seed.
const STREAM_PLATFORM: u64 = 0x11;
const STREAM_RUN: u64 = 0x22;
const STREAM_FAILURES: u64 = 0x33;

/// `(phase1_blocks, phase2_blocks, phase1_tasks, phase2_tasks)` of a
/// two-phase run.
type PhaseSplit = (u64, u64, usize, usize);

/// Outcome of a single seeded run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total blocks shipped.
    pub total_blocks: u64,
    /// Total blocks divided by the kernel's lower bound on this platform.
    pub normalized_comm: f64,
    /// Simulated completion time.
    pub makespan: f64,
    /// The lower bound used for normalization.
    pub lower_bound: f64,
    /// β actually used, if the strategy was two-phase with a β-derived
    /// threshold.
    pub beta_used: Option<f64>,
    /// `(phase1_blocks, phase2_blocks, phase1_tasks, phase2_tasks)` for
    /// two-phase strategies.
    pub phase_split: Option<(u64, u64, usize, usize)>,
    /// Tasks computed per worker.
    pub tasks_per_proc: Vec<u64>,
    /// Blocks received per worker.
    pub blocks_per_proc: Vec<u64>,
    /// Tasks lost to injected worker failures (0 without fault injection).
    pub lost_tasks: u64,
    /// Blocks re-shipped while re-allocating lost tasks.
    pub reshipped_blocks: u64,
    /// Time each worker spent idle waiting for transfers (all zeros under
    /// the infinite network).
    pub transfer_wait_per_proc: Vec<f64>,
    /// Master-link utilization (0 under the infinite network).
    pub link_utilization: f64,
    /// Deepest master send queue observed (0 under the infinite network).
    pub max_queue_depth: usize,
    /// Blocks transferred toward workers that died before computing on them.
    pub wasted_blocks: u64,
    /// Blocks shipped over root → sub-master links (0 on the flat topology
    /// and for a single-sub-master tree; included in `total_blocks`).
    pub tier_blocks: u64,
    /// Result (C-block) write-back volume priced on the master link (0
    /// unless [`ExperimentConfig::price_returns`] is set; not included in
    /// `total_blocks`).
    pub returned_blocks: u64,
    /// The platform the run used (drawn or fixed).
    pub platform: Platform,
}

/// Aggregate over a trial campaign.
#[derive(Clone, Debug)]
pub struct TrialSummary {
    /// Normalized communication volume across trials.
    pub normalized_comm: OnlineStats,
    /// Raw block totals across trials.
    pub total_blocks: OnlineStats,
    /// Makespans across trials.
    pub makespan: OnlineStats,
    /// β values used across trials (empty stats for non-two-phase runs).
    pub beta_used: OnlineStats,
    /// Tasks lost to injected failures across trials.
    pub lost_tasks: OnlineStats,
    /// Blocks re-shipped while re-allocating lost tasks, across trials.
    pub reshipped_blocks: OnlineStats,
    /// Total transfer-wait time (summed over workers) across trials.
    pub transfer_wait: OnlineStats,
    /// Master-link utilization across trials.
    pub link_utilization: OnlineStats,
    /// Result write-back volume across trials (zero unless return-path
    /// pricing is enabled).
    pub returned_blocks: OnlineStats,
    /// Number of trials.
    pub trials: usize,
}

/// The platform a given `(config, seed)` pair will run on — the fixed one
/// if the config carries it, otherwise the seeded draw [`run_once`] would
/// make. Lets analysis curves be computed on exactly the platforms the
/// simulation used.
pub fn platform_for(cfg: &ExperimentConfig, seed: u64) -> Platform {
    match &cfg.platform {
        Some(pf) => pf.clone(),
        None => Platform::sample(
            cfg.processors,
            &cfg.distribution,
            &mut rng_for(seed, STREAM_PLATFORM),
        ),
    }
}

/// Seed of trial `i` in a [`run_trials`] campaign with master `seed`.
pub fn trial_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, i as u64)
}

/// Runs one seeded experiment.
///
/// The platform is drawn from the config's distribution using one derived
/// stream (unless a fixed platform is supplied) and the scheduling run uses
/// another, so e.g. sweeping β with the same seed holds everything else
/// constant.
pub fn run_once(cfg: &ExperimentConfig, seed: u64) -> RunResult {
    run_once_impl(cfg, seed, None::<&mut Recorder>)
}

/// Runs one experiment under an engine configured from `cfg`, optionally
/// emitting every event and probe sample through `rec` — the common body
/// behind [`run_once`] and [`crate::observe::run_once_observed`]. The
/// `None` path is exactly the unobserved engine (no extra work, no
/// allocation).
fn drive<S: Scheduler, K: StreamingSink>(
    platform: &Platform,
    cfg: &ExperimentConfig,
    sched: S,
    rng: &mut StdRng,
    rec: &mut Option<&mut Recorder<K>>,
) -> (SimReport, S) {
    let eng = hetsched_sim::Engine::new(platform, cfg.speed_model, sched)
        .with_failures(&cfg.failures)
        .with_network(cfg.network)
        .with_return_pricing(cfg.price_returns);
    match rec.as_deref_mut() {
        Some(r) => eng.run_recorded(rng, r),
        None => eng.run(rng),
    }
}

pub(crate) fn run_once_impl<K: StreamingSink>(
    cfg: &ExperimentConfig,
    seed: u64,
    mut rec: Option<&mut Recorder<K>>,
) -> RunResult {
    cfg.validate().expect("invalid experiment config");
    // Stochastic fail-stop entries draw their fixed times from a dedicated
    // per-trial stream before any engine sees the scenario; fixed-only
    // scenarios skip the draw entirely, so existing runs stay bit-identical.
    let resolved_cfg;
    let cfg = if cfg.failures.has_stochastic() {
        resolved_cfg = ExperimentConfig {
            failures: cfg.failures.resolve(&mut rng_for(seed, STREAM_FAILURES)),
            ..cfg.clone()
        };
        &resolved_cfg
    } else {
        cfg
    };
    let mut platform = platform_for(cfg, seed);
    if cfg.link_latency > 0.0 {
        platform = platform.with_uniform_link_latency(cfg.link_latency);
    }
    if let Some(bws) = &cfg.link_bandwidths {
        platform = platform.with_link_bandwidths(bws.clone());
    }
    let n = cfg.kernel.n();
    let p = cfg.processors;
    let lb = cfg.kernel.lower_bound(&platform);

    // Resolve β (and hence the threshold) if needed.
    let beta_used = match (&cfg.strategy, &cfg.kernel) {
        (Strategy::TwoPhase(BetaChoice::Analytic), Kernel::Outer { .. }) => {
            Some(OuterAnalysis::new(&platform, n).optimal_beta().0)
        }
        (Strategy::TwoPhase(BetaChoice::Analytic), Kernel::Matmul { .. }) => {
            Some(MatmulAnalysis::new(&platform, n).optimal_beta().0)
        }
        (Strategy::TwoPhase(BetaChoice::Homogeneous), Kernel::Outer { .. }) => {
            Some(OuterAnalysis::homogeneous(p, n).optimal_beta().0)
        }
        (Strategy::TwoPhase(BetaChoice::Homogeneous), Kernel::Matmul { .. }) => {
            Some(MatmulAnalysis::homogeneous(p, n).optimal_beta().0)
        }
        (Strategy::TwoPhase(BetaChoice::Fixed(b)), _) => Some(*b),
        _ => None,
    };

    // StaticOuter is outside the paper's strategy family and runs flat
    // only (validate() rejects it on matmul and under a tree).
    if cfg.strategy == Strategy::Static {
        let sched = hetsched_partition::StaticOuter::new(n, &platform);
        let mut rng = rng_for(seed, STREAM_RUN);
        let (report, _) = drive(&platform, cfg, sched, &mut rng, &mut rec);
        return finish(cfg, report, None, beta_used, lb, platform);
    }

    // One generic call per task kernel; a tree shard owns a rows × cols
    // tile of the (i, j) grid and, for matmul, the whole k extent.
    let (report, phase_split) = match cfg.kernel {
        Kernel::Outer { .. } => run_family::<Outer, _>(
            cfg,
            &platform,
            seed,
            beta_used,
            &mut rec,
            &|s: &ShardLayout| (s.rows(), s.cols()),
        ),
        Kernel::Matmul { n } => run_family::<Matmul, _>(
            cfg,
            &platform,
            seed,
            beta_used,
            &mut rec,
            &|s: &ShardLayout| (s.rows(), s.cols(), n),
        ),
    };
    finish(cfg, report, phase_split, beta_used, lb, platform)
}

/// Runs the configured strategy of the paper's family over task kernel
/// `K`, harvesting the two-phase accounting.
fn run_family<K: TaskKernel, R: StreamingSink>(
    cfg: &ExperimentConfig,
    platform: &Platform,
    seed: u64,
    beta_used: Option<f64>,
    rec: &mut Option<&mut Recorder<R>>,
    shard_dims: &impl Fn(&ShardLayout) -> K::Dims,
) -> (SimReport, Option<PhaseSplit>) {
    let dims = |shard: Option<&ShardLayout>| match shard {
        None => K::square(cfg.kernel.n()),
        Some(s) => shard_dims(s),
    };
    macro_rules! run {
        ($make:expr, $split:expr) => {
            run_strategy(cfg, platform, seed, rec, &dims, $make, $split)
        };
    }
    match cfg.strategy {
        Strategy::Random => run!(Random::<K>::shard, |_| None),
        Strategy::Sorted => run!(Sorted::<K>::shard, |_| None),
        Strategy::Dynamic => run!(Dynamic::<K>::shard, |_| None),
        Strategy::TwoPhase(choice) => run!(
            |dims, p| {
                let sched = TwoPhase::<K>::shard(dims, p, 0);
                match (choice, beta_used) {
                    (BetaChoice::Phase1Fraction(f), _) => sched.switch_after(f),
                    (_, Some(b)) => sched.switch_at_beta(b),
                    _ => unreachable!("β resolved above for non-fraction choices"),
                }
            },
            |s: &TwoPhase<K>| Some(s.phase_split())
        ),
        Strategy::Static => unreachable!("StaticOuter runs outside the family"),
    }
}

/// Runs the scheduler `make(extents, workers)` builds: on the whole problem
/// (extents `dims(None)`) under the flat topology, or once per sub-master
/// shard (extents `dims(Some(shard))`) under a tree, where the root
/// statically splits workers and grid across sub-masters. A single
/// sub-master goes through the tree code path but is bit-for-bit identical
/// to flat (same platform borrow, same RNG stream, no tier transfers).
/// Per-shard phase splits are summed.
fn run_strategy<D, S: Scheduler + Send, R: StreamingSink>(
    cfg: &ExperimentConfig,
    platform: &Platform,
    seed: u64,
    rec: &mut Option<&mut Recorder<R>>,
    dims: &impl Fn(Option<&ShardLayout>) -> D,
    make: impl Fn(D, usize) -> S,
    split: impl Fn(&S) -> Option<PhaseSplit>,
) -> (SimReport, Option<PhaseSplit>) {
    let Topology::Tree { submasters } = cfg.topology else {
        let sched = make(dims(None), cfg.processors);
        let (report, sched) = drive(platform, cfg, sched, &mut rng_for(seed, STREAM_RUN), rec);
        return (report, split(&sched));
    };
    let plan = plan_shards(platform, submasters, cfg.kernel.n());
    let (outcome, scheds) = run_tree_strategy(cfg, platform, &plan, seed, rec, |s| {
        make(dims(Some(s)), s.len)
    });
    let splits: Option<Vec<PhaseSplit>> = scheds.iter().map(split).collect();
    (
        outcome.report,
        splits.map(|v| merge_phase_split(v.into_iter())),
    )
}

/// Folds a finished engine report into the public [`RunResult`].
fn finish(
    _cfg: &ExperimentConfig,
    report: SimReport,
    phase_split: Option<PhaseSplit>,
    beta_used: Option<f64>,
    lb: f64,
    platform: Platform,
) -> RunResult {
    RunResult {
        total_blocks: report.total_blocks,
        normalized_comm: report.normalized(lb),
        makespan: report.makespan,
        lower_bound: lb,
        beta_used,
        phase_split,
        tasks_per_proc: report.ledger.tasks_per_proc().to_vec(),
        blocks_per_proc: report.ledger.blocks_per_proc().to_vec(),
        lost_tasks: report.lost_tasks,
        reshipped_blocks: report.reshipped_blocks,
        transfer_wait_per_proc: report.ledger.wait_per_proc().to_vec(),
        link_utilization: report.link_utilization,
        max_queue_depth: report.max_queue_depth,
        wasted_blocks: report.wasted_blocks,
        tier_blocks: report.tier_blocks,
        returned_blocks: report.returned_blocks,
        platform,
    }
}

/// Root → sub-master transfer volume for one shard: the static input
/// footprint of its task rectangle.
///
/// * outer product: the shard's slice of `a` (its rows) plus its slice of
///   `b` (its columns);
/// * matmul: the `rows × n` slab of `A`, the `n × cols` slab of `B`, and
///   the shard's `rows × cols` tile of `C` (staged at the sub-master) — a
///   modeling choice, coarse on purpose: the root ships each shard its
///   whole static working set once, up front.
fn tree_input_blocks(kernel: Kernel, s: &ShardLayout) -> u64 {
    let rows = s.rows() as u64;
    let cols = s.cols() as u64;
    match kernel {
        Kernel::Outer { .. } => rows + cols,
        Kernel::Matmul { n } => {
            let n = n as u64;
            rows * n + n * cols + rows * cols
        }
    }
}

/// Builds the [`ShardSpec`]s for `plan` and runs the tree engine. With a
/// single shard the RNG is the flat run stream (`rng_for(seed,
/// STREAM_RUN)`), pinning bit-identity with the flat engine; with several,
/// shard `j` gets its own derived stream.
fn run_tree_strategy<S: Scheduler + Send, K: StreamingSink>(
    cfg: &ExperimentConfig,
    platform: &Platform,
    plan: &[ShardLayout],
    seed: u64,
    rec: &mut Option<&mut Recorder<K>>,
    make: impl Fn(&ShardLayout) -> S,
) -> (TreeOutcome, Vec<S>) {
    let single = plan.len() == 1;
    let shards = plan
        .iter()
        .enumerate()
        .map(|(j, s)| ShardSpec {
            scheduler: make(s),
            start: s.start,
            len: s.len,
            input_blocks: tree_input_blocks(cfg.kernel, s),
            rng: if single {
                rng_for(seed, STREAM_RUN)
            } else {
                rng_for(derive_seed(seed, j as u64), STREAM_RUN)
            },
        })
        .collect();
    run_tree_with(
        platform,
        cfg.speed_model,
        &cfg.failures,
        cfg.network,
        shards,
        TreeOpts {
            threads: cfg.tree_threads,
        },
        rec.as_deref_mut(),
    )
}

/// Sums per-shard two-phase accounting into the global split.
fn merge_phase_split(splits: impl Iterator<Item = PhaseSplit>) -> PhaseSplit {
    splits.fold((0, 0, 0, 0), |acc, s| {
        (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2, acc.3 + s.3)
    })
}

/// Order-preserving parallel map over a work list, with the chunked
/// crossbeam-scoped pattern the trial campaigns use.
///
/// Item `i` is mapped by `f(i, &items[i])` and lands in slot `i` of the
/// output regardless of which thread ran it, so results are bit-for-bit
/// independent of the thread count and schedule — provided `f` itself only
/// depends on `(i, items[i])` (e.g. seeds every RNG from `i`).
///
/// `threads: None` uses the machine's available parallelism; `Some(t)` pins
/// the worker count (useful for pinning determinism tests). `t <= 1`, a
/// single item, or an empty list degrade to a plain serial map.
pub fn parallel_map<T, R, F>(items: &[T], threads: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        })
        .clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk_len = n.div_ceil(threads);
    let f = &f;
    crossbeam::thread::scope(|scope| {
        for (t, chunk) in slots.chunks_mut(chunk_len).enumerate() {
            let base = t * chunk_len;
            scope.spawn(move |_| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let i = base + off;
                    *slot = Some(f(i, &items[i]));
                }
            });
        }
    })
    .expect("parallel_map worker panicked");
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Aggregates a campaign's per-trial results (in order) into a
/// [`TrialSummary`].
pub fn summarize_runs(results: &[RunResult]) -> TrialSummary {
    let mut summary = TrialSummary {
        normalized_comm: OnlineStats::new(),
        total_blocks: OnlineStats::new(),
        makespan: OnlineStats::new(),
        beta_used: OnlineStats::new(),
        lost_tasks: OnlineStats::new(),
        reshipped_blocks: OnlineStats::new(),
        transfer_wait: OnlineStats::new(),
        link_utilization: OnlineStats::new(),
        returned_blocks: OnlineStats::new(),
        trials: results.len(),
    };
    for r in results {
        summary.normalized_comm.push(r.normalized_comm);
        summary.total_blocks.push(r.total_blocks as f64);
        summary.makespan.push(r.makespan);
        summary.lost_tasks.push(r.lost_tasks as f64);
        summary.reshipped_blocks.push(r.reshipped_blocks as f64);
        summary.returned_blocks.push(r.returned_blocks as f64);
        summary
            .transfer_wait
            .push(r.transfer_wait_per_proc.iter().sum());
        summary.link_utilization.push(r.link_utilization);
        if let Some(b) = r.beta_used {
            summary.beta_used.push(b);
        }
    }
    summary
}

/// Runs `trials` independent seeded trials in parallel (crossbeam-scoped
/// threads) and aggregates. Trial `i` uses seed `derive_seed(seed, i)`, so
/// results are independent of the thread count and schedule.
pub fn run_trials(cfg: &ExperimentConfig, trials: usize, seed: u64) -> TrialSummary {
    run_trials_with_threads(cfg, trials, seed, None)
}

/// [`run_trials`] with an explicit thread count (`None` = machine default).
/// The summary is identical for every `threads` value — the determinism
/// tests pin `Some(1)` against `Some(4)`.
pub fn run_trials_with_threads(
    cfg: &ExperimentConfig,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
) -> TrialSummary {
    run_trials_collected(cfg, trials, seed, threads).1
}

/// [`run_trials_with_threads`] keeping the per-trial results alongside the
/// summary — the trace-analytics store ingests one row set per trial, and
/// the summary printed next to it must be computed from exactly the same
/// runs.
pub fn run_trials_collected(
    cfg: &ExperimentConfig,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
) -> (Vec<RunResult>, TrialSummary) {
    assert!(trials > 0, "need at least one trial");
    let idx: Vec<usize> = (0..trials).collect();
    let results = parallel_map(&idx, threads, |i, _| {
        run_once(cfg, derive_seed(seed, i as u64))
    });
    let summary = summarize_runs(&results);
    (results, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::SpeedDistribution;

    fn small_outer(strategy: Strategy) -> ExperimentConfig {
        ExperimentConfig {
            kernel: Kernel::Outer { n: 30 },
            strategy,
            processors: 8,
            distribution: SpeedDistribution::paper_default(),
            ..Default::default()
        }
    }

    #[test]
    fn run_once_is_deterministic() {
        let cfg = small_outer(Strategy::TwoPhase(BetaChoice::Analytic));
        let a = run_once(&cfg, 42);
        let b = run_once(&cfg, 42);
        assert_eq!(a.total_blocks, b.total_blocks);
        assert_eq!(a.tasks_per_proc, b.tasks_per_proc);
        assert_eq!(a.beta_used, b.beta_used);
        let c = run_once(&cfg, 43);
        assert!(c.total_blocks != a.total_blocks || c.makespan != a.makespan);
    }

    #[test]
    fn all_eight_arms_complete() {
        for kernel in [Kernel::Outer { n: 12 }, Kernel::Matmul { n: 8 }] {
            for strategy in [
                Strategy::Random,
                Strategy::Sorted,
                Strategy::Dynamic,
                Strategy::TwoPhase(BetaChoice::Fixed(3.0)),
            ] {
                let cfg = ExperimentConfig {
                    kernel,
                    strategy,
                    processors: 4,
                    ..Default::default()
                };
                let r = run_once(&cfg, 7);
                let total: u64 = r.tasks_per_proc.iter().sum();
                assert_eq!(
                    total as usize,
                    kernel.total_tasks(),
                    "{:?}/{:?}",
                    kernel,
                    strategy
                );
                assert!(r.normalized_comm >= 0.99, "below lower bound?!");
            }
        }
    }

    #[test]
    fn beta_resolution_modes() {
        let analytic = run_once(&small_outer(Strategy::TwoPhase(BetaChoice::Analytic)), 1);
        assert!(analytic.beta_used.is_some());
        let hom = run_once(&small_outer(Strategy::TwoPhase(BetaChoice::Homogeneous)), 1);
        assert!(hom.beta_used.is_some());
        // §3.6: the two choices are close.
        let (a, h) = (analytic.beta_used.unwrap(), hom.beta_used.unwrap());
        assert!((a - h).abs() / h < 0.15, "analytic {a} vs homogeneous {h}");
        let fixed = run_once(&small_outer(Strategy::TwoPhase(BetaChoice::Fixed(2.5))), 1);
        assert_eq!(fixed.beta_used, Some(2.5));
        let frac = run_once(
            &small_outer(Strategy::TwoPhase(BetaChoice::Phase1Fraction(0.9))),
            1,
        );
        assert!(frac.beta_used.is_none());
        assert!(frac.phase_split.is_some());
        let rnd = run_once(&small_outer(Strategy::Random), 1);
        assert!(rnd.beta_used.is_none() && rnd.phase_split.is_none());
    }

    #[test]
    fn fixed_platform_is_respected() {
        let pf = Platform::from_speeds(vec![10.0, 20.0, 30.0, 40.0]);
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n: 20 },
            strategy: Strategy::Dynamic,
            processors: 4,
            platform: Some(pf.clone()),
            ..Default::default()
        };
        let r = run_once(&cfg, 9);
        assert_eq!(r.platform, pf);
        // Same platform across seeds.
        let r2 = run_once(&cfg, 10);
        assert_eq!(r2.platform, pf);
    }

    #[test]
    fn trials_aggregate_and_parallelism_is_deterministic() {
        let cfg = small_outer(Strategy::Dynamic);
        let s1 = run_trials(&cfg, 8, 123);
        let s2 = run_trials(&cfg, 8, 123);
        assert_eq!(s1.trials, 8);
        assert_eq!(s1.normalized_comm.count(), 8);
        assert_eq!(s1.normalized_comm.mean(), s2.normalized_comm.mean());
        assert_eq!(s1.total_blocks.mean(), s2.total_blocks.mean());
        assert!(s1.normalized_comm.std_dev() >= 0.0);
    }

    #[test]
    fn injected_failure_loses_and_recovers_tasks() {
        use hetsched_platform::{FailureModel, ProcId};
        let strategies = [
            Strategy::Random,
            Strategy::Sorted,
            Strategy::Dynamic,
            Strategy::TwoPhase(BetaChoice::Fixed(3.0)),
        ];
        for kernel in [Kernel::Outer { n: 12 }, Kernel::Matmul { n: 8 }] {
            for strategy in strategies {
                let clean = ExperimentConfig {
                    kernel,
                    strategy,
                    processors: 4,
                    ..Default::default()
                };
                let faulty = ExperimentConfig {
                    failures: FailureModel::none().fail_at(ProcId(1), 0.4),
                    ..clean.clone()
                };
                let r = run_once(&faulty, 7);
                let total: u64 = r.tasks_per_proc.iter().sum();
                assert_eq!(
                    total as usize,
                    kernel.total_tasks(),
                    "{kernel:?}/{strategy:?}: every task exactly once despite the failure"
                );
                // Clean run on the same seed is untouched by the (inert)
                // failure plumbing.
                let c = run_once(&clean, 7);
                assert_eq!(c.lost_tasks, 0);
                assert_eq!(c.reshipped_blocks, 0);
            }
        }
    }

    #[test]
    fn networked_runs_complete_and_price_transfers() {
        use hetsched_net::NetworkModel;
        for strategy in [Strategy::Random, Strategy::Dynamic] {
            let cfg = ExperimentConfig {
                kernel: Kernel::Outer { n: 16 },
                strategy,
                processors: 4,
                network: NetworkModel::OnePort { master_bw: 20.0 },
                link_latency: 0.01,
                ..Default::default()
            };
            let r = run_once(&cfg, 11);
            let total: u64 = r.tasks_per_proc.iter().sum();
            assert_eq!(total as usize, 256, "{strategy:?}");
            assert!(r.link_utilization > 0.0 && r.link_utilization <= 1.0);
            // Every block crosses the one-port link.
            assert!(r.makespan >= r.total_blocks as f64 / 20.0 - 1e-9);
        }
        // The default (infinite) network reports zero network metrics.
        let cfg = ExperimentConfig {
            kernel: Kernel::Outer { n: 16 },
            processors: 4,
            ..Default::default()
        };
        let r = run_once(&cfg, 11);
        assert_eq!(r.link_utilization, 0.0);
        assert_eq!(r.max_queue_depth, 0);
        assert_eq!(r.wasted_blocks, 0);
        assert!(r.transfer_wait_per_proc.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn uniform_bandwidth_list_matches_uniform_model() {
        use hetsched_net::NetworkModel;
        let base = ExperimentConfig {
            kernel: Kernel::Outer { n: 16 },
            strategy: Strategy::Dynamic,
            processors: 4,
            network: NetworkModel::BoundedMultiport {
                master_bw: 20.0,
                worker_bw: 5.0,
            },
            ..Default::default()
        };
        let listed = ExperimentConfig {
            link_bandwidths: Some(vec![5.0; 4]),
            ..base.clone()
        };
        let a = run_once(&base, 13);
        let b = run_once(&listed, 13);
        assert_eq!(a.total_blocks, b.total_blocks);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.transfer_wait_per_proc, b.transfer_wait_per_proc);

        // A genuinely slower link can only push the makespan up.
        let throttled = ExperimentConfig {
            link_bandwidths: Some(vec![5.0, 5.0, 5.0, 0.5]),
            ..base.clone()
        };
        let c = run_once(&throttled, 13);
        assert!(
            c.makespan >= a.makespan - 1e-9,
            "{} vs {}",
            c.makespan,
            a.makespan
        );
    }

    #[test]
    fn phase_split_accounts_for_everything() {
        let cfg = small_outer(Strategy::TwoPhase(BetaChoice::Fixed(3.5)));
        let r = run_once(&cfg, 77);
        let (b1, b2, t1, t2) = r.phase_split.unwrap();
        assert_eq!(b1 + b2, r.total_blocks);
        assert_eq!(t1 + t2, 900);
    }
}
