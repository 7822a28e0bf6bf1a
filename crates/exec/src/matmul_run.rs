//! Real execution of the matrix multiplication under any scheduler.

use crate::block::{gemm_kernel, BlockedMatrix};
use crate::master::execute;
use crate::protocol::{BlockTag, ExecConfig, ExecReport, InjectedFault, ToMaster, ToWorker};
use crossbeam::channel::{Receiver, Sender};
use hetsched_sim::Scheduler;
use hetsched_util::FixedBitSet;
use std::collections::HashMap;
use std::hint::black_box;

/// Executes `C = A·B` with `cfg.speeds.len()` worker threads driven by
/// `scheduler` (`total_tasks() == n³` for `n = a.n_blocks()`).
///
/// Each worker accumulates its `C[i,j]` contributions locally and flushes
/// them at shutdown; the master sums the per-worker contributions. Result
/// blocks therefore travel once per (worker, C-block) pair, matching the
/// paper's accounting where `C` traffic is deferred to the end of the
/// computation.
pub fn run_matmul<S: Scheduler>(
    scheduler: S,
    a: &BlockedMatrix,
    b: &BlockedMatrix,
    cfg: &ExecConfig,
) -> (BlockedMatrix, ExecReport) {
    let n = a.n_blocks();
    let l = a.l();
    assert_eq!(b.n_blocks(), n);
    assert_eq!(b.l(), l);
    let p = cfg.speeds.len();
    assert_eq!(
        scheduler.total_tasks(),
        n * n * n,
        "scheduler sized for a different problem"
    );

    let mut sent_a: Vec<FixedBitSet> = (0..p).map(|_| FixedBitSet::new(n * n)).collect();
    let mut sent_b: Vec<FixedBitSet> = (0..p).map(|_| FixedBitSet::new(n * n)).collect();
    let mut result = BlockedMatrix::zeros(n, l);
    let report = execute(
        scheduler,
        cfg,
        0xE8ED,
        |w, rx, tx| worker_loop(w, n, l, cfg.work_factor(w), rx, tx),
        |worker, tasks| {
            let mut blocks = Vec::new();
            for &id in tasks {
                let (i, j, k) = decode(id, n);
                let a_id = i * n + k;
                let b_id = k * n + j;
                if sent_a[worker].insert(a_id) {
                    blocks.push((BlockTag::A(a_id as u32), a.copy_block(i, k)));
                }
                if sent_b[worker].insert(b_id) {
                    blocks.push((BlockTag::B(b_id as u32), b.copy_block(k, j)));
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

#[inline]
fn decode(id: u32, n: usize) -> (usize, usize, usize) {
    let id = id as usize;
    let k = id % n;
    let rest = id / n;
    (rest / n, rest % n, k)
}

fn worker_loop(
    worker: usize,
    n: usize,
    l: usize,
    work_factor: u32,
    rx: Receiver<ToWorker>,
    tx: Sender<ToMaster>,
) {
    let mut store_a: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut store_b: HashMap<usize, Vec<f64>> = HashMap::new();
    // Local C accumulators, keyed by (i, j).
    let mut acc: HashMap<(u32, u32), Vec<f64>> = HashMap::new();
    // Sleep owed by the speed emulation, flushed in ≥200 µs chunks to beat
    // the OS timer granularity (see outer_run.rs).
    let mut sleep_debt = std::time::Duration::ZERO;

    tx.send(ToMaster::Request { worker }).expect("master alive");
    loop {
        match rx.recv().expect("master alive") {
            ToWorker::Job(job) => {
                for (tag, data) in job.blocks {
                    match tag {
                        BlockTag::A(id) => {
                            store_a.insert(id as usize, data);
                        }
                        BlockTag::B(id) => {
                            store_b.insert(id as usize, data);
                        }
                    }
                }
                for (at, id) in job.tasks.into_iter().enumerate() {
                    if Some(at) == job.fail_at {
                        // Injected fault: die as if the thread was killed,
                        // taking the local C accumulators down with it.
                        std::panic::panic_any(InjectedFault);
                    }
                    let (i, j, k) = decode(id, n);
                    let ab = store_a.get(&(i * n + k)).expect("A block shipped");
                    let bb = store_b.get(&(k * n + j)).expect("B block shipped");
                    let c = acc
                        .entry((i as u32, j as u32))
                        .or_insert_with(|| vec![0.0; l * l]);
                    // Emulated heterogeneity: compute once for real, then
                    // sleep the extra (factor − 1) kernel durations (honest
                    // wall-clock ratios even with more workers than cores).
                    let t0 = std::time::Instant::now();
                    gemm_kernel(l, black_box(ab), black_box(bb), c);
                    if work_factor > 1 {
                        sleep_debt += t0.elapsed() * (work_factor - 1);
                        if sleep_debt >= std::time::Duration::from_micros(200) {
                            std::thread::sleep(sleep_debt);
                            sleep_debt = std::time::Duration::ZERO;
                        }
                    }
                }
                tx.send(ToMaster::Request { worker }).expect("master alive");
            }
            ToWorker::Shutdown => {
                let mut blocks: Vec<((u32, u32), Vec<f64>)> = acc.drain().collect();
                // Deterministic flush order (HashMap iteration is not).
                blocks.sort_by_key(|(ij, _)| *ij);
                tx.send(ToMaster::Results { worker, blocks })
                    .expect("master alive");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::reference_matmul;
    use hetsched_matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};

    fn check<S: Scheduler>(
        scheduler: S,
        n: usize,
        l: usize,
        cfg: &ExecConfig,
    ) -> (BlockedMatrix, ExecReport) {
        let a = BlockedMatrix::random(n, l, 31);
        let b = BlockedMatrix::random(n, l, 32);
        let (c, report) = run_matmul(scheduler, &a, &b, cfg);
        let reference = reference_matmul(&a, &b);
        // Contributions are summed in arrival order at the master, so allow
        // floating-point reassociation noise.
        let diff = c.max_abs_diff(&reference);
        assert!(diff < 1e-10, "numerical mismatch: {diff}");
        assert_eq!(report.total_tasks(), (n * n * n) as u64);
        (c, report)
    }

    #[test]
    fn dynamic_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(4, 1);
        let (_, report) = check(DynamicMatrix::new(6, 4), 6, 4, &cfg);
        // Every worker that computed anything returns ≥ 1 C block; at most
        // p·n² total.
        assert!(report.result_blocks_returned <= 4 * 36);
        assert!(report.result_blocks_returned >= 36);
    }

    #[test]
    fn random_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(3, 2);
        check(RandomMatrix::new(5, 3), 5, 3, &cfg);
    }

    #[test]
    fn sorted_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(2, 3);
        check(SortedMatrix::new(4, 2), 4, 2, &cfg);
    }

    #[test]
    fn two_phase_matrix_executes_correctly() {
        let cfg = ExecConfig::homogeneous(5, 4);
        check(DynamicMatrix2Phases::with_beta(6, 5, 2.5), 6, 3, &cfg);
    }

    #[test]
    fn single_worker_ships_every_input_block_once() {
        let cfg = ExecConfig::homogeneous(1, 5);
        let (_, report) = check(DynamicMatrix::new(5, 1), 5, 2, &cfg);
        // 2n² input blocks (A and B; C never travels to workers here).
        assert_eq!(report.input_blocks_shipped, 50);
        assert_eq!(report.result_blocks_returned, 25);
    }

    #[test]
    fn heterogeneous_speeds_skew_task_shares() {
        // Blocks large enough that the gemm kernel dominates messaging. The
        // emulation slows only the kernel, so at l = 24 (a ~10 µs kernel,
        // about one channel round trip) the 6× gap shrank to about 3× and
        // a preempted fast worker could fall below 1.5×; at l = 64 the
        // split sits near the nominal 6×.
        let cfg = ExecConfig {
            speeds: vec![1.0, 6.0],
            seed: 9,
            faults: Vec::new(),
        };
        let (_, report) = check(RandomMatrix::new(6, 2), 6, 64, &cfg);
        let slow = report.tasks_per_worker[0] as f64;
        let fast = report.tasks_per_worker[1] as f64;
        assert!(fast > 1.5 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn killed_worker_is_recovered_exactly_once() {
        // Worker 0 dies after 6 completed tasks; its local C accumulators
        // (partial sums!) are lost with it and the master re-queues every
        // task it ever held, so no contribution is double-counted.
        let cfg = ExecConfig::homogeneous(3, 12).fail_after_tasks(0, 6);
        let (_, report) = check(RandomMatrix::new(5, 3), 5, 3, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
        assert!(report.tasks_lost_per_worker[0] >= 6);
    }

    #[test]
    fn killed_worker_recovery_works_for_data_aware_strategies() {
        let cfg = ExecConfig::homogeneous(4, 13).fail_after_tasks(3, 10);
        let (_, report) = check(DynamicMatrix::new(6, 4), 6, 2, &cfg);
        assert!(report.total_tasks_lost() > 0, "fault never fired");
    }
}
