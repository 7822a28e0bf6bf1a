//! The outer product's task grid as a [`TaskKernel`].

use crate::ownership::WorkerData;
use hetsched_sim::{Allocation, StrategyNames, TaskKernel, TaskPool};
use rand::rngs::StdRng;

/// The `rows × cols` task grid (an `n × n` square for a flat run): task
/// `T(i,j)` has the row-major id `i·cols + j` and needs `a_i` and `b_j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outer {
    rows: usize,
    cols: usize,
}

impl Outer {
    /// Linear task id of `T(i,j)`.
    #[inline]
    pub fn id(&self, i: usize, j: usize) -> u32 {
        debug_assert!(i < self.rows && j < self.cols);
        (i * self.cols + j) as u32
    }

    /// Inverse of [`id`](Self::id).
    #[inline]
    pub fn coords(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        (id / self.cols, id % self.cols)
    }
}

impl TaskKernel for Outer {
    type Dims = (usize, usize);
    type Worker = WorkerData;
    const NAMES: StrategyNames = StrategyNames {
        random: "RandomOuter",
        sorted: "SortedOuter",
        dynamic: "DynamicOuter",
        two_phase: "DynamicOuter2Phases",
    };

    fn square(n: usize) -> (usize, usize) {
        (n, n)
    }

    fn new((rows, cols): (usize, usize)) -> Self {
        Outer { rows, cols }
    }

    fn tasks(&self) -> usize {
        self.rows * self.cols
    }

    fn worker(&self) -> WorkerData {
        WorkerData::rect(self.rows, self.cols)
    }

    fn acquire(&self, worker: &mut WorkerData, id: u32) -> u64 {
        let (i, j) = self.coords(id);
        u64::from(worker.a.acquire(i)) + u64::from(worker.b.acquire(j))
    }

    fn knowledge_fraction(worker: &WorkerData) -> f64 {
        worker.knowledge_fraction()
    }

    /// Algorithm 1: extend the worker's known index sets `I` and `J` by one
    /// random unknown row and column, allocating every unprocessed task of
    /// the new row/column of its known sub-grid. Repeats the extension
    /// (still paying for the shipped blocks) until at least one task is
    /// allocated or the problem is finished — a worker that knows both
    /// full vectors can have no unprocessed task left, so the loop
    /// terminates.
    fn dynamic_step(
        &self,
        pool: &mut TaskPool,
        worker: &mut WorkerData,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Allocation {
        if pool.has_orphans() {
            // Failure-reinserted tasks whose inputs this worker already
            // holds are invisible to the extension loop below (it only
            // scans the newly bought row/column), so re-allocate them first
            // — at zero shipping cost, since both inputs are on the worker.
            let known: Vec<u32> = pool
                .orphans()
                .iter()
                .copied()
                .filter(|&id| {
                    let (i, j) = self.coords(id);
                    worker.a.owns(i) && worker.b.owns(j)
                })
                .collect();
            if !known.is_empty() {
                for &id in &known {
                    let fresh = pool.mark(id);
                    debug_assert!(fresh);
                    out.push(id);
                }
                return Allocation {
                    tasks: known.len(),
                    blocks: 0,
                };
            }
        }
        let mut blocks = 0u64;
        loop {
            if pool.remaining() == 0 {
                return Allocation { tasks: 0, blocks };
            }
            let new_a = worker.a.acquire_random(rng);
            let mut tasks = 0usize;
            if let Some(i) = new_a {
                blocks += 1;
                // New row i against the b blocks known *before* this step's
                // new column, so the (i, j) corner is counted exactly once
                // below.
                for &j2 in worker.b.owned_list() {
                    let id = self.id(i, j2 as usize);
                    if pool.mark(id) {
                        out.push(id);
                        tasks += 1;
                    }
                }
            }
            let new_b = worker.b.acquire_random(rng);
            if let Some(j) = new_b {
                blocks += 1;
                // New column j against all known a blocks, including a
                // fresh i.
                for &i2 in worker.a.owned_list() {
                    let id = self.id(i2 as usize, j);
                    if pool.mark(id) {
                        out.push(id);
                        tasks += 1;
                    }
                }
            }
            if new_a.is_none() && new_b.is_none() {
                // Worker holds both vectors entirely. Normally nothing
                // remains in its reach (any still-remaining task belongs to
                // a race some other worker already won, and there is none:
                // full knowledge covers the grid) — but failure-reinserted
                // tasks may sit in the pool, and this worker can compute
                // them all without further shipping.
                let mut tasks = 0usize;
                while let Some(id) = pool.random_unprocessed(rng) {
                    let fresh = pool.mark(id);
                    debug_assert!(fresh);
                    out.push(id);
                    tasks += 1;
                }
                return Allocation { tasks, blocks };
            }
            if tasks > 0 {
                return Allocation { tasks, blocks };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_util::rng::rng_for;

    fn grid(n: usize) -> (Outer, TaskPool) {
        let k = Outer::new((n, n));
        (k, TaskPool::new(k.tasks()))
    }

    // Most tests here only care about counts; this shim discards the ids.
    fn dynamic_step(k: &Outer, s: &mut TaskPool, w: &mut WorkerData, r: &mut StdRng) -> Allocation {
        k.dynamic_step(s, w, r, &mut Vec::new())
    }

    #[test]
    fn task_id_round_trip() {
        let k = Outer::new((7, 5));
        for i in 0..7 {
            for j in 0..5 {
                assert_eq!(k.coords(k.id(i, j)), (i, j));
            }
        }
        assert_eq!(k.tasks(), 35);
        assert_eq!(k.id(1, 0), 5, "row-major");
    }

    #[test]
    fn steps_report_allocated_task_ids() {
        let (k, mut pool) = grid(6);
        let mut w = WorkerData::new(6);
        let mut rng = rng_for(99, 0);
        let mut out = Vec::new();
        let a = k.dynamic_step(&mut pool, &mut w, &mut rng, &mut out);
        assert_eq!(out.len(), a.tasks);
        for &id in &out {
            let (i, j) = k.coords(id);
            assert!(pool.is_processed(id));
            assert!(w.a.owns(i) && w.b.owns(j), "worker holds the inputs");
        }
        out.clear();
        let a = k.random_step(&mut pool, &mut w, &mut rng, &mut out);
        assert_eq!(out.len(), a.tasks);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dynamic_step_first_call_allocates_one_task_two_blocks() {
        let (k, mut pool) = grid(8);
        let mut w = WorkerData::new(8);
        let mut rng = rng_for(2, 0);
        let a = dynamic_step(&k, &mut pool, &mut w, &mut rng);
        // First extension: row+column of a 1×1 grid = the single task (i,j).
        assert_eq!(a.tasks, 1);
        assert_eq!(a.blocks, 2);
        assert_eq!(w.a.count(), 1);
        assert_eq!(w.b.count(), 1);
    }

    #[test]
    fn dynamic_step_kth_call_allocates_2k_minus_1_when_alone() {
        // With a single worker nothing is stolen, so the k-th extension
        // allocates the full new row+column: 2k−1 tasks.
        let (k, mut pool) = grid(10);
        let mut w = WorkerData::new(10);
        let mut rng = rng_for(3, 0);
        for step in 1..=10u64 {
            let a = dynamic_step(&k, &mut pool, &mut w, &mut rng);
            assert_eq!(a.tasks as u64, 2 * step - 1, "extension {step}");
            assert_eq!(a.blocks, 2);
        }
        assert_eq!(pool.remaining(), 0);
        assert!(dynamic_step(&k, &mut pool, &mut w, &mut rng).is_done());
    }

    #[test]
    fn dynamic_step_retries_when_extension_enables_nothing() {
        // n = 3; the only unprocessed task is (2, 2) and the worker owns
        // only (a0, b0). An extension drawing e.g. (a1, b1) enables nothing,
        // so the step must keep buying blocks (blocks > 2) within a single
        // allocation until it reaches (2, 2).
        let mut retried = false;
        for seed in 0..20u64 {
            let n = 3;
            let (k, mut pool) = grid(n);
            let mut w = WorkerData::new(n);
            w.a.acquire(0);
            w.b.acquire(0);
            for i in 0..n {
                for j in 0..n {
                    if (i, j) != (2, 2) {
                        pool.mark(k.id(i, j));
                    }
                }
            }
            let mut rng = rng_for(400 + seed, 0);
            let a = dynamic_step(&k, &mut pool, &mut w, &mut rng);
            assert_eq!(a.tasks, 1, "must end by allocating (2,2)");
            assert!(a.blocks >= 2 && a.blocks.is_multiple_of(2));
            assert_eq!(pool.remaining(), 0);
            if a.blocks > 2 {
                retried = true;
            }
        }
        assert!(retried, "no seed exercised the retry path");
    }
}
