//! Master ↔ worker message types and the execution report.

/// Identifies one shipped data block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockTag {
    /// Block `i` of vector `a`, or block `(i·n + k)` of matrix `A`.
    A(u32),
    /// Block `j` of vector `b`, or block `(k·n + j)` of matrix `B`.
    B(u32),
}

/// A batch of work for one worker.
#[derive(Clone, Debug)]
pub struct Job {
    /// Linear task ids (decoded kernel-specifically by the worker).
    pub tasks: Vec<u32>,
    /// Input blocks the worker does not have yet.
    pub blocks: Vec<(BlockTag, Vec<f64>)>,
    /// Position in `tasks` of the task an injected fault kills the worker
    /// on, before computing it.
    pub fail_at: Option<usize>,
}

/// Master → worker.
#[derive(Clone, Debug)]
pub enum ToWorker {
    /// Compute this batch, then request again.
    Job(Job),
    /// Flush results and exit.
    Shutdown,
}

/// Worker → master.
#[derive(Clone, Debug)]
pub enum ToMaster {
    /// Worker is idle and wants work.
    Request { worker: usize },
    /// Result contribution blocks `((i, j), l×l data)`, sent on shutdown.
    Results {
        worker: usize,
        blocks: Vec<((u32, u32), Vec<f64>)>,
    },
    /// The worker's thread died with an injected fault. Everything it was
    /// ever assigned is lost (results only travel at shutdown) and must be
    /// re-allocated to the survivors.
    Failed { worker: usize },
}

/// Panic payload a worker thread unwinds with when its injected fault
/// fires; the thread wrapper turns it into [`ToMaster::Failed`] instead of
/// propagating it (genuine panics still propagate).
pub(crate) struct InjectedFault;

/// An injected fault for a real execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecFault {
    /// Kill `worker`'s thread (by unwinding it) on the `(after + 1)`-th
    /// task the master dispatches to it, once it has completed `after`.
    /// The master holds back tasks so that this task comes whenever the
    /// problem has more than `after` tasks; a fault with `after` at least
    /// the task count can never fire and is dropped.
    FailAfterTasks { worker: usize, after: u64 },
}

/// Execution parameters.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Per-worker nominal speeds; worker `w` repeats each block kernel
    /// `round(max_speed / speeds[w])` times to emulate heterogeneity.
    pub speeds: Vec<f64>,
    /// Master seed for the scheduler's RNG.
    pub seed: u64,
    /// Injected worker faults (empty for a fault-free run).
    pub faults: Vec<ExecFault>,
}

impl ExecConfig {
    /// Homogeneous configuration.
    pub fn homogeneous(p: usize, seed: u64) -> Self {
        ExecConfig {
            speeds: vec![1.0; p],
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds an injected fault (builder style).
    pub fn fail_after_tasks(mut self, worker: usize, after: u64) -> Self {
        self.faults
            .push(ExecFault::FailAfterTasks { worker, after });
        self
    }

    /// Task-completion threshold at which `worker` dies, if any.
    pub fn fail_after(&self, worker: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            ExecFault::FailAfterTasks { worker: w, after } if w == worker => Some(after),
            _ => None,
        })
    }

    /// Work factor of worker `w` (≥ 1).
    pub fn work_factor(&self, w: usize) -> u32 {
        let max = self.speeds.iter().cloned().fold(f64::MIN, f64::max);
        (max / self.speeds[w]).round().max(1.0) as u32
    }
}

/// What a real execution measured.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Input blocks actually shipped master → workers.
    pub input_blocks_shipped: u64,
    /// Result (`C`) blocks shipped workers → master.
    pub result_blocks_returned: u64,
    /// Tasks executed per worker. A failed worker's lost assignments are
    /// subtracted back out, so the sum still equals the task count.
    pub tasks_per_worker: Vec<u64>,
    /// Jobs (scheduler requests with work) per worker.
    pub jobs_per_worker: Vec<u64>,
    /// Tasks lost per worker to injected faults (re-allocated elsewhere).
    pub tasks_lost_per_worker: Vec<u64>,
}

impl ExecReport {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// Total tasks lost to injected faults.
    pub fn total_tasks_lost(&self) -> u64 {
        self.tasks_lost_per_worker.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_factor_scales_inversely() {
        let cfg = ExecConfig {
            speeds: vec![1.0, 2.0, 4.0],
            seed: 0,
            faults: Vec::new(),
        };
        assert_eq!(cfg.work_factor(0), 4);
        assert_eq!(cfg.work_factor(1), 2);
        assert_eq!(cfg.work_factor(2), 1);
    }

    #[test]
    fn work_factor_never_below_one() {
        let cfg = ExecConfig::homogeneous(3, 0);
        for w in 0..3 {
            assert_eq!(cfg.work_factor(w), 1);
        }
    }
}
