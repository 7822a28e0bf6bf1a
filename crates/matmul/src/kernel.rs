//! The matrix multiplication's task cube as a [`TaskKernel`].

use crate::cube::WorkerCube;
use hetsched_sim::{Allocation, StrategyNames, TaskKernel, TaskPool};
use rand::rngs::StdRng;

/// The `ni × nj × nk` task cuboid (an `n × n × n` cube for a flat run):
/// task `T(i,j,k)` has the id `(i·nj + j)·nk + k` — lexicographic, `i`
/// slowest — and needs `A[i,k]`, `B[k,j]` and `C[i,j]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Matmul {
    ni: usize,
    nj: usize,
    nk: usize,
}

impl Matmul {
    /// Linear task id of `T(i,j,k)`.
    #[inline]
    pub fn id(&self, i: usize, j: usize, k: usize) -> u32 {
        debug_assert!(i < self.ni && j < self.nj && k < self.nk);
        ((i * self.nj + j) * self.nk + k) as u32
    }

    /// Inverse of [`id`](Self::id).
    #[inline]
    pub fn coords(&self, id: u32) -> (usize, usize, usize) {
        let id = id as usize;
        let k = id % self.nk;
        let rest = id / self.nk;
        (rest / self.nj, rest % self.nj, k)
    }
}

impl TaskKernel for Matmul {
    type Dims = (usize, usize, usize);
    type Worker = WorkerCube;
    const NAMES: StrategyNames = StrategyNames {
        random: "RandomMatrix",
        sorted: "SortedMatrix",
        dynamic: "DynamicMatrix",
        two_phase: "DynamicMatrix2Phases",
    };

    fn square(n: usize) -> (usize, usize, usize) {
        (n, n, n)
    }

    fn new((ni, nj, nk): (usize, usize, usize)) -> Self {
        Matmul { ni, nj, nk }
    }

    fn tasks(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    fn worker(&self) -> WorkerCube {
        WorkerCube::rect(self.ni, self.nj, self.nk)
    }

    fn acquire(&self, w: &mut WorkerCube, id: u32) -> u64 {
        let (i, j, k) = self.coords(id);
        w.acquire_task_blocks(i, j, k)
    }

    fn knowledge_fraction(w: &WorkerCube) -> f64 {
        w.knowledge_fraction()
    }

    /// Algorithm 3.
    ///
    /// Ordering matters for exact counting. Each matrix's new blocks are
    /// the new row crossed with the *old* perpendicular set plus the new
    /// column crossed with the *updated* parallel set, which enumerates the
    /// boundary of the grown brick exactly once:
    ///
    /// * extend `I` by `i` → ship `A[i, K_old]`, `C[i, J_old]`;
    /// * extend `J` by `j` → ship `C[I_new, j]`, `B[K_old, j]`;
    /// * extend `K` by `k` → ship `A[I_new, k]`, `B[k, J_new]`.
    ///
    /// Tasks are then the three slabs `{i}×J×K`, `I∖{i}×{j}×K`,
    /// `I∖{i}×J∖{j}×{k}` of the grown brick — `3y²+3y+1` of them when all
    /// three sets could be extended — minus whatever other workers already
    /// won.
    fn dynamic_step(
        &self,
        pool: &mut TaskPool,
        w: &mut WorkerCube,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> Allocation {
        if pool.has_orphans() {
            // Failure-reinserted tasks whose three blocks this worker
            // already holds are invisible to the slab scan below (it only
            // covers the newly grown boundary), so re-allocate them first —
            // at zero shipping cost. The ownership grids are the ground
            // truth here: they also cover blocks bought outside the
            // index-set brick.
            let known: Vec<u32> = pool
                .orphans()
                .iter()
                .copied()
                .filter(|&id| {
                    let (i, j, k) = self.coords(id);
                    w.owns_a.contains(i, k) && w.owns_b.contains(k, j) && w.owns_c.contains(i, j)
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

            let ni = w.i_set.acquire_random(rng);
            if let Some(i) = ni {
                // K and J not extended yet: these are the "old" sets, minus
                // the fresh i itself which acquire_random already appended
                // to I.
                for &k in w.k_set.owned_list() {
                    if w.owns_a.insert(i, k as usize) {
                        blocks += 1;
                    }
                }
                for &j in w.j_set.owned_list() {
                    if w.owns_c.insert(i, j as usize) {
                        blocks += 1;
                    }
                }
            }
            let nj = w.j_set.acquire_random(rng);
            if let Some(j) = nj {
                for &i in w.i_set.owned_list() {
                    if w.owns_c.insert(i as usize, j) {
                        blocks += 1;
                    }
                }
                for &k in w.k_set.owned_list() {
                    if w.owns_b.insert(k as usize, j) {
                        blocks += 1;
                    }
                }
            }
            let nk = w.k_set.acquire_random(rng);
            if let Some(k) = nk {
                for &i in w.i_set.owned_list() {
                    if w.owns_a.insert(i as usize, k) {
                        blocks += 1;
                    }
                }
                for &j in w.j_set.owned_list() {
                    if w.owns_b.insert(k, j as usize) {
                        blocks += 1;
                    }
                }
            }

            if ni.is_none() && nj.is_none() && nk.is_none() {
                // All three index sets are full: the worker's brick is the
                // whole cube, so normally every task has been allocated to
                // someone. Failure-reinserted tasks may still sit in the
                // pool, though, and this worker can compute them all
                // without further shipping.
                let mut tasks = 0usize;
                while let Some(id) = pool.random_unprocessed(rng) {
                    let fresh = pool.mark(id);
                    debug_assert!(fresh);
                    out.push(id);
                    blocks += self.acquire(w, id);
                    tasks += 1;
                }
                return Allocation { tasks, blocks };
            }

            let mut tasks = 0usize;
            if let Some(i) = ni {
                for &j2 in w.j_set.owned_list() {
                    for &k2 in w.k_set.owned_list() {
                        let id = self.id(i, j2 as usize, k2 as usize);
                        if pool.mark(id) {
                            out.push(id);
                            tasks += 1;
                        }
                    }
                }
            }
            if let Some(j) = nj {
                for &i2 in w.i_set.owned_list() {
                    if Some(i2 as usize) == ni {
                        continue;
                    }
                    for &k2 in w.k_set.owned_list() {
                        let id = self.id(i2 as usize, j, k2 as usize);
                        if pool.mark(id) {
                            out.push(id);
                            tasks += 1;
                        }
                    }
                }
            }
            if let Some(k) = nk {
                for &i2 in w.i_set.owned_list() {
                    if Some(i2 as usize) == ni {
                        continue;
                    }
                    for &j2 in w.j_set.owned_list() {
                        if Some(j2 as usize) == nj {
                            continue;
                        }
                        let id = self.id(i2 as usize, j2 as usize, k);
                        if pool.mark(id) {
                            out.push(id);
                            tasks += 1;
                        }
                    }
                }
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

    fn cube(n: usize) -> (Matmul, TaskPool) {
        let k = Matmul::new((n, n, n));
        (k, TaskPool::new(k.tasks()))
    }

    #[test]
    fn task_id_round_trip() {
        let m = Matmul::new((4, 3, 5));
        for i in 0..4 {
            for j in 0..3 {
                for k in 0..5 {
                    assert_eq!(m.coords(m.id(i, j, k)), (i, j, k));
                }
            }
        }
        assert_eq!(m.tasks(), 60);
        assert_eq!(m.id(0, 1, 0), 5, "lexicographic, k fastest");
    }

    #[test]
    fn steps_report_allocated_task_ids() {
        let (m, mut pool) = cube(5);
        let mut w = WorkerCube::new(5);
        let mut rng = rng_for(77, 0);
        let mut out = Vec::new();
        for _ in 0..3 {
            out.clear();
            let a = m.dynamic_step(&mut pool, &mut w, &mut rng, &mut out);
            assert_eq!(out.len(), a.tasks);
            for &id in &out {
                let (i, j, k) = m.coords(id);
                assert!(pool.is_processed(id));
                assert!(w.owns_a.contains(i, k));
                assert!(w.owns_b.contains(k, j));
                assert!(w.owns_c.contains(i, j));
            }
        }
        out.clear();
        let a = m.random_step(&mut pool, &mut w, &mut rng, &mut out);
        assert_eq!(out.len(), a.tasks);
    }

    #[test]
    fn dynamic_step_first_call_is_one_task_three_blocks() {
        let (m, mut pool) = cube(6);
        let mut w = WorkerCube::new(6);
        let a = m.dynamic_step(&mut pool, &mut w, &mut rng_for(2, 0), &mut Vec::new());
        assert_eq!(a.tasks, 1);
        assert_eq!(a.blocks, 3, "brick 0³→1³ ships A, B, C corner blocks");
        assert_eq!(w.i_set.count(), 1);
        assert_eq!(w.j_set.count(), 1);
        assert_eq!(w.k_set.count(), 1);
    }

    #[test]
    fn dynamic_step_growth_matches_closed_forms_when_alone() {
        // y³ → (y+1)³: 3y²+3y+1 new tasks, 3(2y+1) new blocks.
        let n = 8;
        let (m, mut pool) = cube(n);
        let mut w = WorkerCube::new(n);
        let mut rng = rng_for(3, 0);
        let mut out = Vec::new();
        for y in 0..n as u64 {
            let a = m.dynamic_step(&mut pool, &mut w, &mut rng, &mut out);
            assert_eq!(a.tasks as u64, 3 * y * y + 3 * y + 1, "growth at y={y}");
            assert_eq!(a.blocks, 3 * (2 * y + 1), "boundary at y={y}");
        }
        assert_eq!(pool.remaining(), 0);
        assert_eq!(w.total_blocks(), 3 * n * n);
        assert!(m
            .dynamic_step(&mut pool, &mut w, &mut rng, &mut out)
            .is_done());
    }
}
