//! Real execution of the outer product under any scheduler.

use crate::block::{outer_kernel, BlockedMatrix, BlockedVector};
use crate::master::execute;
use crate::protocol::{BlockTag, ExecConfig, ExecReport, InjectedFault, ToMaster, ToWorker};
use crossbeam::channel::{Receiver, Sender};
use hetsched_sim::Scheduler;
use hetsched_util::FixedBitSet;
use std::hint::black_box;

/// Executes `M = a·bᵗ` with `cfg.speeds.len()` worker threads driven by
/// `scheduler`. Returns the assembled matrix and the execution report.
///
/// The scheduler must have been constructed for `n = a.n_blocks()` blocks
/// and `p = cfg.speeds.len()` workers (`total_tasks() == n²`).
pub fn run_outer<S: Scheduler>(
    scheduler: S,
    a: &BlockedVector,
    b: &BlockedVector,
    cfg: &ExecConfig,
) -> (BlockedMatrix, ExecReport) {
    let n = a.n_blocks();
    let l = a.l();
    assert_eq!(b.n_blocks(), n);
    assert_eq!(b.l(), l);
    let p = cfg.speeds.len();
    assert_eq!(
        scheduler.total_tasks(),
        n * n,
        "scheduler sized for a different problem"
    );

    // Master-side record of which blocks each worker has been shipped.
    let mut sent_a: Vec<FixedBitSet> = (0..p).map(|_| FixedBitSet::new(n)).collect();
    let mut sent_b: Vec<FixedBitSet> = (0..p).map(|_| FixedBitSet::new(n)).collect();
    let mut result = BlockedMatrix::zeros(n, l);
    let report = execute(
        scheduler,
        cfg,
        0xE8EC,
        |w, rx, tx| worker_loop(w, n, l, cfg.work_factor(w), rx, tx),
        |worker, tasks| {
            let mut blocks = Vec::new();
            for &id in tasks {
                let (i, j) = ((id as usize) / n, (id as usize) % n);
                if sent_a[worker].insert(i) {
                    blocks.push((BlockTag::A(i as u32), a.copy_block(i)));
                }
                if sent_b[worker].insert(j) {
                    blocks.push((BlockTag::B(j as u32), b.copy_block(j)));
                }
            }
            blocks
        },
        |blocks| {
            for ((i, j), data) in blocks {
                result.add_block(i as usize, j as usize, &data);
            }
        },
    );
    (result, report)
}

/// Worker side: hold received blocks, compute assigned outer-product
/// blocks, flush everything on shutdown.
fn worker_loop(
    worker: usize,
    n: usize,
    l: usize,
    work_factor: u32,
    rx: Receiver<ToWorker>,
    tx: Sender<ToMaster>,
) {
    let mut store_a: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut store_b: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut results: Vec<((u32, u32), Vec<f64>)> = Vec::new();
    // Accumulated sleep owed by the speed emulation; flushed in chunks
    // large enough to beat the OS timer granularity (~50 µs), so emulated
    // speed ratios stay accurate even for microsecond kernels.
    let mut sleep_debt = std::time::Duration::ZERO;

    tx.send(ToMaster::Request { worker }).expect("master alive");
    loop {
        match rx.recv().expect("master alive") {
            ToWorker::Job(job) => {
                for (tag, data) in job.blocks {
                    match tag {
                        BlockTag::A(i) => store_a[i as usize] = Some(data),
                        BlockTag::B(j) => store_b[j as usize] = Some(data),
                    }
                }
                for (at, id) in job.tasks.into_iter().enumerate() {
                    if Some(at) == job.fail_at {
                        // Injected fault: die as if the thread was killed,
                        // taking the locally held results down with it.
                        std::panic::panic_any(InjectedFault);
                    }
                    let (i, j) = ((id as usize) / n, (id as usize) % n);
                    let ab = store_a[i].as_deref().expect("a block shipped");
                    let bb = store_b[j].as_deref().expect("b block shipped");
                    let mut c = vec![0.0; l * l];
                    // Emulated heterogeneity: compute once for real, then
                    // sleep the extra (factor − 1) kernel durations. Sleeping
                    // (instead of re-running the kernel) keeps the wall-clock
                    // speed ratio honest even when workers outnumber cores.
                    let t0 = std::time::Instant::now();
                    outer_kernel(black_box(ab), black_box(bb), &mut c);
                    if work_factor > 1 {
                        sleep_debt += t0.elapsed() * (work_factor - 1);
                        if sleep_debt >= std::time::Duration::from_micros(200) {
                            std::thread::sleep(sleep_debt);
                            sleep_debt = std::time::Duration::ZERO;
                        }
                    }
                    results.push(((i as u32, j as u32), c));
                }
                tx.send(ToMaster::Request { worker }).expect("master alive");
            }
            ToWorker::Shutdown => {
                tx.send(ToMaster::Results {
                    worker,
                    blocks: std::mem::take(&mut results),
                })
                .expect("master alive");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::reference_outer;
    use hetsched_outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};

    fn check<S: Scheduler>(scheduler: S, n: usize, l: usize, cfg: &ExecConfig) -> ExecReport {
        let a = BlockedVector::random(n, l, 11);
        let b = BlockedVector::random(n, l, 22);
        let (m, report) = run_outer(scheduler, &a, &b, cfg);
        let reference = reference_outer(&a, &b);
        // Outer product blocks are computed exactly once each: equality is
        // exact (no accumulation-order effects).
        assert_eq!(m.max_abs_diff(&reference), 0.0);
        assert_eq!(report.total_tasks(), (n * n) as u64);
        report
    }

    #[test]
    fn dynamic_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(4, 1);
        let report = check(DynamicOuter::new(12, 4), 12, 4, &cfg);
        assert_eq!(report.result_blocks_returned, 144);
        assert!(report.input_blocks_shipped >= 2 * 12);
    }

    #[test]
    fn random_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 2);
        check(RandomOuter::new(10, 3), 10, 3, &cfg);
    }

    #[test]
    fn sorted_outer_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 3);
        check(SortedOuter::new(8, 3), 8, 2, &cfg);
    }

    #[test]
    fn two_phase_executes_correctly() {
        let cfg = ExecConfig::homogeneous(5, 4);
        check(DynamicOuter2Phases::with_beta(14, 5, 3.0), 14, 3, &cfg);
    }

    #[test]
    fn heterogeneous_speeds_skew_task_shares() {
        // Blocks must be big enough that the kernel dominates channel
        // round-trips, otherwise both workers alternate in lock-step and
        // the emulated speeds cannot show.
        let cfg = ExecConfig {
            speeds: vec![1.0, 8.0],
            seed: 5,
            faults: Vec::new(),
        };
        let report = check(RandomOuter::new(16, 2), 16, 96, &cfg);
        // The 8× worker must do clearly more tasks (timing noise allowed,
        // hence a loose 1.5× assertion for a nominal 8× gap).
        let slow = report.tasks_per_worker[0] as f64;
        let fast = report.tasks_per_worker[1] as f64;
        assert!(fast > 1.5 * slow, "fast worker did {fast}, slow did {slow}");
    }

    #[test]
    fn lazy_shipping_never_exceeds_two_blocks_per_task() {
        let cfg = ExecConfig::homogeneous(4, 6);
        let report = check(RandomOuter::new(10, 4), 10, 2, &cfg);
        assert!(report.input_blocks_shipped <= 2 * 100);
        // And never below the single-copy minimum for the blocks used.
        assert!(report.input_blocks_shipped >= 2 * 10);
    }

    #[test]
    fn single_worker_matches_lower_bound_exactly() {
        let cfg = ExecConfig::homogeneous(1, 7);
        let report = check(DynamicOuter::new(9, 1), 9, 2, &cfg);
        assert_eq!(report.input_blocks_shipped, 18);
    }

    #[test]
    fn killed_worker_is_recovered_exactly_once() {
        // Worker 1's thread dies after 5 completed tasks, losing every
        // result it held. The master re-queues its assignments and the
        // survivors produce a bit-exact matrix anyway.
        let cfg = ExecConfig::homogeneous(3, 8).fail_after_tasks(1, 5);
        let report = check(RandomOuter::new(10, 3), 10, 3, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
        assert!(report.tasks_lost_per_worker[1] >= 5);
        assert_eq!(report.tasks_lost_per_worker[0], 0);
        assert_eq!(report.tasks_lost_per_worker[2], 0);
    }

    #[test]
    fn killed_worker_recovery_works_for_data_aware_strategies() {
        for seed in [1u64, 2, 3] {
            let cfg = ExecConfig::homogeneous(4, seed).fail_after_tasks(2, 8);
            let report = check(DynamicOuter2Phases::with_beta(12, 4, 3.0), 12, 2, &cfg);
            assert!(
                report.total_tasks_lost() > 0,
                "fault never fired (seed {seed})"
            );
        }
    }

    #[test]
    fn unfireable_fault_is_cancelled() {
        // Threshold far above the task count: the fault can never fire and
        // the run must terminate normally, losing nothing.
        let cfg = ExecConfig::homogeneous(2, 9).fail_after_tasks(0, 1_000_000);
        let report = check(RandomOuter::new(6, 2), 6, 2, &cfg);
        assert_eq!(report.total_tasks_lost(), 0);
    }
}
