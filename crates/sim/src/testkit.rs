//! The toy scheduler the engine and tree tests drive.

use crate::scheduler::{Allocation, Scheduler};
use hetsched_platform::ProcId;
use rand::rngs::StdRng;

/// Hands out up to `batch` tasks per request from a real task pool, one
/// block per task. Lost tasks go back on top of the pool, so the next
/// request re-allocates them first. It counts net allocations per task,
/// so tests can check the exactly-once contract under failures, and logs
/// every batch with the worker it went to.
pub(crate) struct PoolSched {
    pool: Vec<u32>,
    total: usize,
    batch: usize,
    /// Net allocation count per id (+1 allocated, −1 lost).
    pub(crate) counts: Vec<i32>,
    /// Every non-empty batch, in request order.
    pub(crate) grants: Vec<(ProcId, Vec<u32>)>,
}

/// A pool of `total` tasks served `batch` at a time; ids come out in
/// increasing order.
pub(crate) fn pool(total: usize, batch: usize) -> PoolSched {
    PoolSched {
        pool: (0..total as u32).rev().collect(),
        total,
        batch,
        counts: vec![0; total],
        grants: Vec::new(),
    }
}

impl PoolSched {
    /// The batches worker `k` received, in request order.
    pub(crate) fn batches_of(&self, k: ProcId) -> Vec<&[u32]> {
        self.grants
            .iter()
            .filter(|(to, _)| *to == k)
            .map(|(_, ids)| &ids[..])
            .collect()
    }
}

impl Scheduler for PoolSched {
    fn on_request(&mut self, k: ProcId, _rng: &mut StdRng, out: &mut Vec<u32>) -> Allocation {
        let t = self.batch.min(self.pool.len());
        for _ in 0..t {
            let id = self.pool.pop().expect("pool underflow");
            self.counts[id as usize] += 1;
            out.push(id);
        }
        if t > 0 {
            self.grants.push((k, out.clone()));
        }
        Allocation {
            tasks: t,
            blocks: t as u64,
        }
    }
    fn on_tasks_lost(&mut self, ids: &[u32]) {
        for &id in ids {
            self.counts[id as usize] -= 1;
            self.pool.push(id);
        }
    }
    fn remaining(&self) -> usize {
        self.pool.len()
    }
    fn total_tasks(&self) -> usize {
        self.total
    }
    fn name(&self) -> &'static str {
        "PoolSched"
    }
}
