//! Hierarchical (tree) topology execution: root → sub-masters → workers.
//!
//! The flat engine ([`crate::Engine`]) is the paper's star: one master
//! serving every worker. This module composes it into a two-level tree:
//! the caller statically partitions the task grid into one shard per
//! sub-master (the top-level split; `hetsched-core` derives it from the
//! optimal static column partition), and [`run_tree_with`] runs one
//! *unchanged* flat engine per shard over that sub-master's contiguous
//! slice of the workers. The root only ships each shard's input blocks to its
//! sub-master once, up front; that inter-tier transfer is priced through
//! [`NetState`] under the run's network model, and a shard's clock starts
//! when its inputs arrive.
//!
//! **Identity guarantee:** with a single sub-master the tree collapses to
//! the flat engine bit for bit — same platform borrow, same RNG stream,
//! no tier transfers — so every flat golden keeps holding under
//! `Topology::Tree { submasters: 1 }`.
//!
//! **Parallel execution.** Shards are independent logical processes: each
//! has its own scheduler, its own RNG stream, its own sliced platform and
//! its own priced link, and the only inter-shard coupling — the root
//! tier's input shipment — is resolved *before* any shard runs (the
//! lookahead of a conservative parallel discrete-event simulation, here
//! the full shipment schedule since shards never communicate mid-run).
//! [`run_tree_with`] therefore runs shard engines on
//! [`TreeOpts::threads`] crossbeam-scoped threads and merges reports in
//! shard order, so results are **bit-identical at any thread count**.

use crate::engine::{Engine, SimReport};
use crate::metrics::CommLedger;
use crate::probe::{ProbeConfig, Recorder};
use crate::scheduler::Scheduler;
use crate::sink::StreamingSink;
use crate::trace::{Trace, TraceEvent};
use hetsched_net::{NetState, NetworkModel};
use hetsched_platform::{FailureModel, Platform, ProcId, SpeedModel};
use rand::rngs::StdRng;

/// One sub-master's share of a tree run: a flat scheduler over a
/// contiguous slice of the workers, plus the volume the root must ship it
/// before it can start.
///
/// The scheduler is index-local: its worker `ProcId(0)` is the global
/// worker `start`, and its task ids live in the shard's own `0..len` grid.
#[derive(Debug)]
pub struct ShardSpec<S> {
    /// The shard's flat strategy, already sized to the shard's task grid.
    pub scheduler: S,
    /// First global worker index served by this sub-master.
    pub start: usize,
    /// Number of (contiguous) workers served by this sub-master.
    pub len: usize,
    /// Blocks the root ships to the sub-master at `t = 0` (the shard's
    /// input footprint). Ignored — and free — with a single sub-master.
    pub input_blocks: u64,
    /// The shard's private run RNG. With a single sub-master this must be
    /// the flat run stream for bit-identity; with several, each shard gets
    /// its own derived stream.
    pub rng: StdRng,
}

/// Execution knobs for a tree run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeOpts {
    /// Worker threads for the shard engines. `None` (the default) runs
    /// shards serially on the caller's thread — tree runs usually sit
    /// inside an already-parallel trial sweep, where extra threads would
    /// oversubscribe the machine. `Some(t)` fans the shards across `t`
    /// crossbeam-scoped threads; results are bit-identical for every
    /// value because shards are merged in shard order, never in
    /// completion order.
    pub threads: Option<usize>,
}

/// Merged outcome of a tree run.
#[derive(Clone, Debug)]
pub struct TreeOutcome {
    /// Global report: per-worker ledger in global indices, makespan over
    /// the whole tree, `total_blocks` = worker volume + tier volume.
    pub report: SimReport,
    /// When each shard's inputs arrived (its local clock's origin on the
    /// global clock). All zeros with one sub-master or a free network.
    pub shard_starts: Vec<f64>,
    /// Each shard's local makespan (its sub-master's view).
    pub shard_makespans: Vec<f64>,
}

/// Runs one flat engine per shard and merges the results.
///
/// Shards must tile the platform contiguously: `start` values in order,
/// each `len ≥ 1`, jointly covering `0..platform.len()`.
///
/// With `shards.len() == 1` this is *exactly* the flat engine run (same
/// platform borrow, no tier pricing). With more, the root first ships
/// every shard's `input_blocks` over its own [`NetState`] (one link per
/// sub-master, latency = mean of the shard's worker latencies, sends
/// issued in shard order at `t = 0`); each shard then runs on a sliced
/// sub-platform with its failure scenario re-indexed and shifted onto the
/// shard's local clock.
///
/// With a single shard the caller's recorder is handed straight to the
/// flat engine — full trace *and* probe support, bit-identical to a flat
/// recorded run. With several shards each engine records its own
/// shard-local trace (probes stay off: a probe sample is a per-worker
/// column snapshot sized to one engine's worker count, and samples from
/// shards of different widths do not merge soundly); the shard traces are
/// then re-indexed onto global worker ids, shifted onto the global clock
/// by the shard's input-arrival time, merged by a stable sort on event
/// time (ties keep shard order) and pushed through `rec`'s normal event
/// path, so streaming sinks see the same chunked flushes as a flat run.
/// The merged trace is identical for every `opts.threads` value.
///
/// # Panics
///
/// On a non-contiguous shard layout, an invalid network model, or a
/// failure scenario that kills *every* worker of some shard (each shard
/// needs a survivor, exactly like a flat platform).
pub fn run_tree_with<S: Scheduler + Send, K: StreamingSink>(
    platform: &Platform,
    model: SpeedModel,
    failures: &FailureModel,
    network: NetworkModel,
    shards: Vec<ShardSpec<S>>,
    opts: TreeOpts,
    mut rec: Option<&mut Recorder<K>>,
) -> (TreeOutcome, Vec<S>) {
    let p = platform.len();
    assert!(!shards.is_empty(), "tree run needs at least one shard");
    let mut cursor = 0usize;
    for (j, s) in shards.iter().enumerate() {
        assert_eq!(
            s.start, cursor,
            "shard {j} starts at worker {} but the previous shard ends at {cursor}",
            s.start
        );
        assert!(s.len >= 1, "shard {j} has no workers");
        cursor += s.len;
    }
    assert_eq!(cursor, p, "shards cover {cursor} workers, platform has {p}");

    if shards.len() == 1 {
        // Single sub-master: the tree *is* the flat run. Use the caller's
        // platform borrow and RNG directly so results are bit-for-bit
        // identical to the flat engine — no slicing, no tier transfers.
        let mut shard = shards.into_iter().next().expect("one shard");
        let engine = Engine::new(platform, model, shard.scheduler)
            .with_failures(failures)
            .with_network(network);
        let (report, scheduler) = match rec.as_deref_mut() {
            Some(r) => engine.run_recorded(&mut shard.rng, r),
            None => engine.run(&mut shard.rng),
        };
        let makespan = report.makespan;
        return (
            TreeOutcome {
                report,
                shard_starts: vec![0.0],
                shard_makespans: vec![makespan],
            },
            vec![scheduler],
        );
    }

    // Root tier: one priced link per sub-master. The tier link's latency is
    // the mean of the shard's worker latencies (the sub-master sits "in the
    // middle" of its workers); bandwidth is the model's uniform pricing.
    let latencies = platform.link_latencies();
    let tier_latency: Vec<f64> = shards
        .iter()
        .map(|s| latencies[s.start..s.start + s.len].iter().sum::<f64>() / s.len as f64)
        .collect();
    let mut tier = NetState::new(network, shards.len(), tier_latency);
    let mut tier_blocks = 0u64;
    let shard_starts: Vec<f64> = shards
        .iter()
        .enumerate()
        .map(|(j, s)| {
            tier_blocks += s.input_blocks;
            tier.send(ProcId(j as u32), s.input_blocks, 0.0).arrival
        })
        .collect();

    // Shard spans survive the move of `shards` into the parallel map (the
    // trace merge needs each shard's global worker offset afterwards).
    let spans: Vec<(usize, usize)> = shards.iter().map(|s| (s.start, s.len)).collect();
    let want_trace = rec.is_some();

    // Every shard's inputs are already scheduled (`shard_starts` above), so
    // the shard bodies share nothing mutable: each builds its sliced
    // platform, re-indexes its failures, and runs its own flat engine.
    // `shard_parallel_map` returns results in shard order whatever thread
    // ran them, which is the whole determinism argument.
    let results = shard_parallel_map(shards, opts.threads, |j, mut shard| {
        let range = shard.start..shard.start + shard.len;
        let mut sub_pf = Platform::from_speeds(platform.speeds()[range.clone()].to_vec())
            .with_link_latencies(latencies[range.clone()].to_vec());
        if let Some(bws) = platform.link_bandwidths() {
            sub_pf = sub_pf.with_link_bandwidths(bws[range.clone()].to_vec());
        }

        // Re-index the failure scenario onto the shard and shift fail-stop
        // times onto the shard's local clock (which starts when its inputs
        // arrive). A global failure before the shard even starts becomes a
        // death at local t = 0.
        let mut sub_failures = FailureModel::none();
        for &(k, t) in failures.failures() {
            if range.contains(&k.idx()) {
                sub_failures = sub_failures.fail_at(
                    ProcId((k.idx() - shard.start) as u32),
                    (t - shard_starts[j]).max(0.0),
                );
            }
        }
        for &(k, f) in failures.stragglers() {
            if range.contains(&k.idx()) {
                sub_failures = sub_failures.slow_down(ProcId((k.idx() - shard.start) as u32), f);
            }
        }

        let engine = Engine::new(&sub_pf, model, shard.scheduler)
            .with_failures(&sub_failures)
            .with_network(network);
        if want_trace {
            // Shard-local trace only; probes are merged-unsound across
            // shards of different widths, so they stay disabled here.
            let mut shard_rec = Recorder::new(ProbeConfig::disabled());
            let (report, scheduler) = engine.run_recorded(&mut shard.rng, &mut shard_rec);
            (report, scheduler, Some(shard_rec.into_trace()))
        } else {
            let (report, scheduler) = engine.run(&mut shard.rng);
            (report, scheduler, None)
        }
    });

    let mut ledger = CommLedger::new(p);
    let mut makespan = 0.0f64;
    let mut lost_tasks = 0;
    let mut reshipped_blocks = 0;
    let mut wasted_blocks = 0;
    let mut max_queue_depth = 0usize;
    let mut shard_makespans = Vec::with_capacity(results.len());
    let mut schedulers = Vec::with_capacity(results.len());
    let mut traces: Vec<Option<Trace>> = Vec::with_capacity(results.len());

    for (j, (report, scheduler, trace)) in results.into_iter().enumerate() {
        ledger.absorb_at(spans[j].0, &report.ledger);
        makespan = makespan.max(shard_starts[j] + report.makespan);
        lost_tasks += report.lost_tasks;
        reshipped_blocks += report.reshipped_blocks;
        wasted_blocks += report.wasted_blocks;
        max_queue_depth = max_queue_depth.max(report.max_queue_depth);
        shard_makespans.push(report.makespan);
        traces.push(trace);
        schedulers.push((report.link_utilization, scheduler));
    }

    // A shard reports its link utilization over its *local* makespan; the
    // merged figure must use the global clock, like a flat run would.
    // busy_j = util_j · local_makespan_j, so the renormalized utilization
    // of shard j's link is busy_j / global_makespan.
    let mut link_utilization = 0.0f64;
    if makespan > 0.0 {
        for (j, &(local_util, _)) in schedulers.iter().enumerate() {
            link_utilization = link_utilization.max(local_util * shard_makespans[j] / makespan);
        }
    }
    let schedulers: Vec<S> = schedulers.into_iter().map(|(_, s)| s).collect();

    link_utilization = link_utilization.max(tier.utilization(makespan));
    max_queue_depth = max_queue_depth.max(tier.max_queue_depth());
    let total_blocks = ledger.total_blocks() + tier_blocks;
    let ledger_returned = ledger.total_returned_blocks();

    if let Some(r) = rec {
        // Merge the shard traces onto the global clock and worker ids.
        // The sort is stable and keyed on time only, so simultaneous
        // events keep shard order — independent of which thread ran what.
        let mut events: Vec<TraceEvent> = Vec::new();
        for (j, trace) in traces.into_iter().enumerate() {
            let trace = trace.expect("shard trace recorded");
            events.reserve(trace.len());
            for &ev in trace.events() {
                let mut ev = ev;
                ev.time += shard_starts[j];
                ev.proc = ProcId((ev.proc.idx() + spans[j].0) as u32);
                events.push(ev);
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        r.reserve_events(events.len(), p);
        r.absorb_events(events);
    }

    (
        TreeOutcome {
            report: SimReport {
                ledger,
                makespan,
                total_blocks,
                lost_tasks,
                reshipped_blocks,
                link_utilization,
                max_queue_depth,
                wasted_blocks,
                tier_blocks,
                returned_blocks: ledger_returned,
            },
            shard_starts,
            shard_makespans,
        },
        schedulers,
    )
}

/// Maps owned shards to results, preserving input order in the output.
///
/// With `threads` ≤ 1 (or a single item) this is a plain serial loop on the
/// caller's thread. Otherwise the items are split into contiguous chunks
/// across `threads` crossbeam-scoped threads; each thread writes into its
/// own slice of the result vector, so the collected order is the input
/// order no matter how the threads interleave. This mirrors the sweep-level
/// `parallel_map` in `hetsched-core`, but takes items by value — a shard's
/// scheduler and RNG move into the engine that runs it.
fn shard_parallel_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: Option<usize>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = threads.unwrap_or(1).clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk_len = n.div_ceil(threads);
    let f = &f;
    crossbeam::thread::scope(|scope| {
        for (t, (in_chunk, out_chunk)) in items
            .chunks_mut(chunk_len)
            .zip(slots.chunks_mut(chunk_len))
            .enumerate()
        {
            let base = t * chunk_len;
            scope.spawn(move |_| {
                for (off, (item, slot)) in in_chunk.iter_mut().zip(out_chunk.iter_mut()).enumerate()
                {
                    *slot = Some(f(base + off, item.take().expect("item present")));
                }
            });
        }
    })
    .expect("tree shard worker panicked");
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, PoolSched};
    use hetsched_util::rng::rng_for;

    /// Single-task batches, one block each.
    fn pool(total: usize) -> PoolSched {
        testkit::pool(total, 1)
    }

    /// A serial, unrecorded tree run.
    fn run_tree(
        platform: &Platform,
        model: SpeedModel,
        failures: &FailureModel,
        network: NetworkModel,
        shards: Vec<ShardSpec<PoolSched>>,
    ) -> (TreeOutcome, Vec<PoolSched>) {
        run_tree_with(
            platform,
            model,
            failures,
            network,
            shards,
            TreeOpts::default(),
            None::<&mut Recorder>,
        )
    }

    /// A fault-free flat run.
    fn flat(
        platform: &Platform,
        sched: PoolSched,
        net: NetworkModel,
        rng: &mut StdRng,
    ) -> SimReport {
        Engine::new(platform, SpeedModel::Fixed, sched)
            .with_network(net)
            .run(rng)
            .0
    }

    #[test]
    fn single_shard_is_bit_identical_to_flat() {
        let pf = Platform::from_speeds(vec![10.0, 30.0, 60.0]);
        let flat = flat(
            &pf,
            pool(300),
            NetworkModel::Infinite,
            &mut rng_for(3, 0x22),
        );
        let shards = vec![ShardSpec {
            scheduler: pool(300),
            start: 0,
            len: 3,
            input_blocks: 999, // ignored with one shard
            rng: rng_for(3, 0x22),
        }];
        let (tree, _) = run_tree(
            &pf,
            SpeedModel::Fixed,
            &FailureModel::none(),
            NetworkModel::Infinite,
            shards,
        );
        assert_eq!(tree.report.makespan, flat.makespan);
        assert_eq!(tree.report.total_blocks, flat.total_blocks);
        assert_eq!(
            tree.report.ledger.tasks_per_proc(),
            flat.ledger.tasks_per_proc()
        );
        assert_eq!(tree.report.tier_blocks, 0);
        assert_eq!(tree.shard_starts, vec![0.0]);
    }

    #[test]
    fn two_shards_merge_into_global_indices() {
        let pf = Platform::from_speeds(vec![10.0, 10.0, 20.0, 20.0]);
        let shards = vec![
            ShardSpec {
                scheduler: pool(100),
                start: 0,
                len: 2,
                input_blocks: 10,
                rng: rng_for(7, 0),
            },
            ShardSpec {
                scheduler: pool(200),
                start: 2,
                len: 2,
                input_blocks: 20,
                rng: rng_for(7, 1),
            },
        ];
        let (tree, scheds) = run_tree(
            &pf,
            SpeedModel::Fixed,
            &FailureModel::none(),
            NetworkModel::Infinite,
            shards,
        );
        assert_eq!(scheds.len(), 2);
        let tasks = tree.report.ledger.tasks_per_proc();
        assert_eq!(tasks[0] + tasks[1], 100, "shard 0 on workers 0..2");
        assert_eq!(tasks[2] + tasks[3], 200, "shard 1 on workers 2..4");
        assert_eq!(tree.report.tier_blocks, 30);
        assert_eq!(tree.report.total_blocks, 300 + 30);
        // Free network: both shards start at t = 0 and the makespan is the
        // slower shard's local makespan.
        assert_eq!(tree.shard_starts, vec![0.0, 0.0]);
        assert_eq!(
            tree.report.makespan,
            tree.shard_makespans[0].max(tree.shard_makespans[1])
        );
    }

    #[test]
    fn one_port_tier_serializes_shard_starts() {
        let pf = Platform::homogeneous(4);
        let net = NetworkModel::OnePort { master_bw: 10.0 };
        let shards = vec![
            ShardSpec {
                scheduler: pool(50),
                start: 0,
                len: 2,
                input_blocks: 40,
                rng: rng_for(8, 0),
            },
            ShardSpec {
                scheduler: pool(50),
                start: 2,
                len: 2,
                input_blocks: 40,
                rng: rng_for(8, 1),
            },
        ];
        let (tree, _) = run_tree(&pf, SpeedModel::Fixed, &FailureModel::none(), net, shards);
        // The root's single channel ships shard 0's inputs (4 time units)
        // before shard 1's even start.
        assert_eq!(tree.shard_starts[0], 4.0);
        assert_eq!(tree.shard_starts[1], 8.0);
        assert!(tree.report.makespan >= 8.0);
        assert_eq!(tree.report.tier_blocks, 80);
    }

    #[test]
    fn shard_failures_are_reindexed_and_shifted() {
        let pf = Platform::from_speeds(vec![10.0, 10.0, 10.0, 10.0]);
        // Global worker 2 = shard 1's local worker 0 dies at t = 2.0.
        let failures = FailureModel::none().fail_at(ProcId(2), 2.0);
        let shards = vec![
            ShardSpec {
                scheduler: pool(60),
                start: 0,
                len: 2,
                input_blocks: 0,
                rng: rng_for(9, 0),
            },
            ShardSpec {
                scheduler: pool(60),
                start: 2,
                len: 2,
                input_blocks: 0,
                rng: rng_for(9, 1),
            },
        ];
        let (tree, _) = run_tree(
            &pf,
            SpeedModel::Fixed,
            &failures,
            NetworkModel::Infinite,
            shards,
        );
        assert!(tree.report.lost_tasks > 0, "the death lands mid-batch");
        assert_eq!(
            tree.report.ledger.lost_per_proc()[2],
            tree.report.lost_tasks
        );
        assert_eq!(tree.report.ledger.total_tasks(), 120, "all work completes");
        // The survivor of shard 1 (global worker 3) finishes the shard.
        assert!(tree.report.ledger.tasks_per_proc()[3] > 30);
    }

    #[test]
    fn link_utilization_is_renormalized_over_the_global_makespan() {
        // Two single-worker shards on a priced network, no tier traffic
        // (zero input blocks on zero-latency links → both shards start at
        // t = 0 and the tier link stays idle). Each shard is then exactly
        // a one-worker flat run, so the flat engine is the oracle for the
        // per-shard (local) utilizations and makespans.
        let net = NetworkModel::OnePort { master_bw: 5.0 };
        let fast = flat(
            &Platform::from_speeds(vec![100.0]),
            pool(40),
            net,
            &mut rng_for(5, 0),
        );
        let slow = flat(
            &Platform::from_speeds(vec![10.0]),
            pool(40),
            net,
            &mut rng_for(5, 1),
        );

        let pf = Platform::from_speeds(vec![100.0, 10.0]);
        let shards = vec![
            ShardSpec {
                scheduler: pool(40),
                start: 0,
                len: 1,
                input_blocks: 0,
                rng: rng_for(5, 0),
            },
            ShardSpec {
                scheduler: pool(40),
                start: 1,
                len: 1,
                input_blocks: 0,
                rng: rng_for(5, 1),
            },
        ];
        let (tree, _) = run_tree(&pf, SpeedModel::Fixed, &FailureModel::none(), net, shards);

        let mk = fast.makespan.max(slow.makespan);
        assert_eq!(tree.report.makespan.to_bits(), mk.to_bits());
        // Each shard's busy time (util · local makespan) re-expressed over
        // the global makespan — NOT the raw max of the local utilizations,
        // whose denominators differ.
        let expected = (fast.link_utilization * fast.makespan / mk)
            .max(slow.link_utilization * slow.makespan / mk);
        assert_eq!(tree.report.link_utilization.to_bits(), expected.to_bits());
        assert!(
            tree.report.link_utilization < fast.link_utilization.max(slow.link_utilization),
            "renormalized figure must sit below the raw local max \
             (tree {} vs raw max {})",
            tree.report.link_utilization,
            fast.link_utilization.max(slow.link_utilization)
        );
    }

    #[test]
    fn tree_runs_are_bit_identical_at_any_thread_count() {
        // Three unevenly-sized shards, priced network, a mid-run death and
        // a straggler: every merge path is exercised. Reports and merged
        // traces must agree bit for bit whatever the thread count.
        let pf = Platform::from_speeds(vec![10.0, 25.0, 40.0, 15.0, 30.0, 20.0, 12.0]);
        let net = NetworkModel::OnePort { master_bw: 50.0 };
        let failures = FailureModel::none()
            .fail_at(ProcId(3), 1.5)
            .slow_down(ProcId(5), 2.0);
        let shards = |seed: u64| {
            vec![
                ShardSpec {
                    scheduler: pool(120),
                    start: 0,
                    len: 3,
                    input_blocks: 30,
                    rng: rng_for(seed, 0),
                },
                ShardSpec {
                    scheduler: pool(80),
                    start: 3,
                    len: 2,
                    input_blocks: 20,
                    rng: rng_for(seed, 1),
                },
                ShardSpec {
                    scheduler: pool(60),
                    start: 5,
                    len: 2,
                    input_blocks: 15,
                    rng: rng_for(seed, 2),
                },
            ]
        };
        let run_at = |threads: Option<usize>| {
            let mut rec = Recorder::new(ProbeConfig::disabled());
            let (tree, _) = run_tree_with(
                &pf,
                SpeedModel::Fixed,
                &failures,
                net,
                shards(0xA11),
                TreeOpts { threads },
                Some(&mut rec),
            );
            (tree, rec.into_trace())
        };

        let (base, base_trace) = run_at(None);
        assert!(!base_trace.is_empty(), "recorded tree run produced a trace");
        for threads in [Some(1), Some(2), Some(3), Some(8)] {
            let (tree, trace) = run_at(threads);
            assert_eq!(
                tree.report.makespan.to_bits(),
                base.report.makespan.to_bits(),
                "makespan at {threads:?}"
            );
            assert_eq!(
                tree.report.link_utilization.to_bits(),
                base.report.link_utilization.to_bits(),
                "utilization at {threads:?}"
            );
            assert_eq!(tree.report.total_blocks, base.report.total_blocks);
            assert_eq!(tree.report.lost_tasks, base.report.lost_tasks);
            assert_eq!(
                tree.report.ledger.tasks_per_proc(),
                base.report.ledger.tasks_per_proc()
            );
            assert_eq!(tree.shard_starts, base.shard_starts);
            assert_eq!(
                trace.events(),
                base_trace.events(),
                "merged trace at {threads:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "starts at worker")]
    fn non_contiguous_shards_rejected() {
        let pf = Platform::homogeneous(4);
        let shards = vec![
            ShardSpec {
                scheduler: pool(1),
                start: 0,
                len: 1,
                input_blocks: 0,
                rng: rng_for(0, 0),
            },
            ShardSpec {
                scheduler: pool(1),
                start: 2,
                len: 2,
                input_blocks: 0,
                rng: rng_for(0, 1),
            },
        ];
        let _ = run_tree(
            &pf,
            SpeedModel::Fixed,
            &FailureModel::none(),
            NetworkModel::Infinite,
            shards,
        );
    }
}
