//! The master side of a real execution, shared by both kernels.
//!
//! The master answers worker requests from the scheduler, ships each job
//! the input blocks its worker lacks, and collects the results. It also
//! decides where an injected fault strikes: it counts the tasks it
//! dispatches to each worker and marks the job holding a faulty worker's
//! `(after + 1)`-th task, which the worker dies on. While that task is
//! still to come, the master holds back from other workers' jobs the
//! tasks the fault needs, so the fault fires whenever the problem has
//! more than `after` tasks, whatever the OS scheduler does.

use crate::protocol::{BlockTag, ExecConfig, ExecReport, InjectedFault, Job, ToMaster, ToWorker};
use crossbeam::channel::{unbounded, Receiver, Sender};
use hetsched_platform::ProcId;
use hetsched_sim::Scheduler;
use hetsched_util::rng::rng_for;

/// Result blocks `((i, j), l×l data)` a worker flushes at shutdown.
pub(crate) type Results = Vec<((u32, u32), Vec<f64>)>;

/// Runs `scheduler` over one thread per worker of `cfg`, each running
/// `worker_loop(w, jobs, replies)`. `ship(w, tasks)` returns the input
/// blocks worker `w` lacks for `tasks`; `collect` takes each surviving
/// worker's results. `stream` picks the scheduler's RNG stream.
pub(crate) fn execute<S: Scheduler>(
    mut scheduler: S,
    cfg: &ExecConfig,
    stream: u64,
    worker_loop: impl Fn(usize, Receiver<ToWorker>, Sender<ToMaster>) + Sync,
    mut ship: impl FnMut(usize, &[u32]) -> Vec<(BlockTag, Vec<f64>)>,
    mut collect: impl FnMut(Results),
) -> ExecReport {
    let p = cfg.speeds.len();
    let mut rng = rng_for(cfg.seed, stream);
    let (to_master_tx, to_master_rx) = unbounded();
    let worker_channels: Vec<(Sender<ToWorker>, Receiver<ToWorker>)> =
        (0..p).map(|_| unbounded()).collect();
    let mut report = ExecReport {
        input_blocks_shipped: 0,
        result_blocks_returned: 0,
        tasks_per_worker: vec![0; p],
        jobs_per_worker: vec![0; p],
        tasks_lost_per_worker: vec![0; p],
    };

    // Per worker, the dispatch index of the task it dies on, until that
    // task is dispatched. A fault needing more tasks than exist is dropped.
    let total = scheduler.remaining() as u64;
    let mut fault_at: Vec<Option<u64>> = (0..p)
        .map(|w| cfg.fail_after(w).filter(|&after| after < total))
        .collect();
    assert!(
        (0..p).filter(|&w| cfg.fail_after(w).is_some()).count() < p,
        "at least one worker must survive the faults"
    );

    crossbeam::thread::scope(|scope| {
        for (w, (_, rx)) in worker_channels.iter().enumerate() {
            let (rx, tx) = (rx.clone(), to_master_tx.clone());
            let worker_loop = &worker_loop;
            scope.spawn(move |_| {
                let fault_tx = tx.clone();
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_loop(w, rx, tx)
                })) {
                    Ok(()) => {}
                    Err(payload) if payload.is::<InjectedFault>() => {
                        let _ = fault_tx.send(ToMaster::Failed { worker: w });
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            });
        }
        drop(to_master_tx);

        // Every task id a worker currently holds unflushed results for.
        let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut dispatched = vec![0u64; p];
        // Tasks held back for workers whose fault is still to come.
        let mut held: Vec<u32> = Vec::new();
        // Workers sent the job they die on, not yet dead.
        let mut dying = 0;
        // Requests not answered yet: nothing to give them until a dying
        // worker returns its tasks or a faulty one takes the held ones.
        let mut parked: Vec<usize> = Vec::new();
        let mut live = p;

        while live > 0 {
            match to_master_rx.recv().expect("workers alive while live > 0") {
                ToMaster::Request { worker } => parked.push(worker),
                ToMaster::Results { worker, blocks } => {
                    report.result_blocks_returned += blocks.len() as u64;
                    collect(blocks);
                    assigned[worker].clear();
                    live -= 1;
                }
                ToMaster::Failed { worker } => {
                    // The thread is gone and its locally held results with
                    // it: return everything it was assigned to the pool.
                    live -= 1;
                    dying -= 1;
                    let lost = std::mem::take(&mut assigned[worker]);
                    report.tasks_per_worker[worker] -= lost.len() as u64;
                    report.tasks_lost_per_worker[worker] += lost.len() as u64;
                    scheduler.on_tasks_lost(&lost);
                }
            }

            // Serve parked requests until none can make progress.
            let mut progress = true;
            while progress {
                progress = false;
                let mut idx = 0;
                while idx < parked.len() {
                    let worker = parked[idx];
                    let mut tasks = Vec::new();
                    let mut retired = false;
                    if fault_at[worker].is_some() && !held.is_empty() {
                        tasks = std::mem::take(&mut held);
                    } else if scheduler.remaining() > 0 {
                        let alloc =
                            scheduler.on_request(ProcId(worker as u32), &mut rng, &mut tasks);
                        debug_assert_eq!(tasks.len(), alloc.tasks);
                        retired = alloc.is_done();
                        // Hold back what the other pending faults still need.
                        let need: u64 = (0..p)
                            .filter(|&v| v != worker)
                            .filter_map(|v| fault_at[v].map(|at| at + 1 - dispatched[v]))
                            .sum();
                        let have = (scheduler.remaining() + held.len()) as u64;
                        let short = need.saturating_sub(have).min(tasks.len() as u64) as usize;
                        held.extend(tasks.drain(tasks.len() - short..));
                        progress |= short > 0;
                    }
                    if tasks.is_empty() {
                        if !retired && (scheduler.remaining() > 0 || !held.is_empty() || dying > 0)
                        {
                            idx += 1;
                            continue;
                        }
                        // Nothing can come back to this worker: its own
                        // fault, if any, can no longer fire.
                        fault_at[worker] = None;
                        worker_channels[worker]
                            .0
                            .send(ToWorker::Shutdown)
                            .expect("worker waiting");
                        parked.remove(idx);
                        progress = true;
                        continue;
                    }
                    let fail_at = fault_at[worker]
                        .filter(|&at| at < dispatched[worker] + tasks.len() as u64)
                        .map(|at| (at - dispatched[worker]) as usize);
                    if fail_at.is_some() {
                        fault_at[worker] = None;
                        dying += 1;
                    }
                    dispatched[worker] += tasks.len() as u64;
                    report.tasks_per_worker[worker] += tasks.len() as u64;
                    report.jobs_per_worker[worker] += 1;
                    assigned[worker].extend_from_slice(&tasks);

                    // Ship exactly the blocks these tasks need and the
                    // worker lacks. (A data-aware scheduler may have
                    // *accounted* for more — blocks bought by extensions
                    // that enabled nothing; see the exec-vs-sim tests.)
                    let blocks = ship(worker, &tasks);
                    report.input_blocks_shipped += blocks.len() as u64;
                    worker_channels[worker]
                        .0
                        .send(ToWorker::Job(Job {
                            tasks,
                            blocks,
                            fail_at,
                        }))
                        .expect("worker waiting");
                    parked.remove(idx);
                    progress = true;
                }
            }
        }
    })
    .expect("worker thread panicked");
    report
}
