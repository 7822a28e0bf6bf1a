//! Per-worker state for the matrix multiplication: index sets and block
//! ownership grids.

use hetsched_util::{BitGrid, OwnedSet};

/// A worker's view of the three matrices.
///
/// Two layers, because the two phases need different granularity:
///
/// * the **index sets** `I`, `J`, `K` drive the data-aware phase — the
///   worker is entitled to the sub-bricks `A[I,K]`, `B[K,J]`, `C[I,J]`;
/// * the **ownership grids** record individual blocks, which is what the
///   random phase needs (a random task may ship `A[i,k]` without `i` or `k`
///   ever joining the index sets).
///
/// The grids are the ground truth for communication accounting; the index
/// sets are a strategy-level construct on top.
#[derive(Clone, Debug)]
pub struct WorkerCube {
    /// Row index set `I`.
    pub i_set: OwnedSet,
    /// Column index set `J`.
    pub j_set: OwnedSet,
    /// Inner index set `K`.
    pub k_set: OwnedSet,
    /// Blocks of `A` on the worker, indexed `(i, k)`.
    pub owns_a: BitGrid,
    /// Blocks of `B` on the worker, indexed `(k, j)`.
    pub owns_b: BitGrid,
    /// Blocks of `C` the worker has contributed to, indexed `(i, j)`.
    pub owns_c: BitGrid,
}

impl WorkerCube {
    /// Fresh worker holding nothing.
    pub fn new(n: usize) -> Self {
        Self::rect(n, n, n)
    }

    /// Fresh worker over an `ni × nj × nk` task cuboid (a hierarchy shard):
    /// `A` is `ni × nk`, `B` is `nk × nj`, `C` is `ni × nj`.
    pub fn rect(ni: usize, nj: usize, nk: usize) -> Self {
        WorkerCube {
            i_set: OwnedSet::new(ni),
            j_set: OwnedSet::new(nj),
            k_set: OwnedSet::new(nk),
            owns_a: BitGrid::new(ni, nk),
            owns_b: BitGrid::new(nk, nj),
            owns_c: BitGrid::new(ni, nj),
        }
    }

    /// Ships the blocks of one task `T(i,j,k)` that are missing; returns
    /// how many blocks that took (0–3). Used by the random/sorted
    /// strategies and phase 2.
    pub fn acquire_task_blocks(&mut self, i: usize, j: usize, k: usize) -> u64 {
        let mut blocks = 0;
        if self.owns_a.insert(i, k) {
            blocks += 1;
        }
        if self.owns_b.insert(k, j) {
            blocks += 1;
        }
        if self.owns_c.insert(i, j) {
            blocks += 1;
        }
        blocks
    }

    /// Total blocks of `A`, `B`, `C` on the worker.
    pub fn total_blocks(&self) -> usize {
        self.owns_a.count_ones() + self.owns_b.count_ones() + self.owns_c.count_ones()
    }

    /// Fraction of all `3n²` matrix blocks this worker owns — the knowledge
    /// state the analysis evolves per worker. Probes report it per sample.
    pub fn knowledge_fraction(&self) -> f64 {
        let total = self.owns_a.total() + self.owns_b.total() + self.owns_c.total();
        self.total_blocks() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_task_blocks_counts_missing_only() {
        let mut w = WorkerCube::new(5);
        assert_eq!(w.acquire_task_blocks(1, 2, 3), 3);
        // Same task again: everything already there.
        assert_eq!(w.acquire_task_blocks(1, 2, 3), 0);
        // Shares A[1,3] with the first task (same i, k), ships B and C.
        assert_eq!(w.acquire_task_blocks(1, 4, 3), 2);
        assert_eq!(w.total_blocks(), 5);
    }

    #[test]
    fn grids_are_matrix_specific() {
        let mut w = WorkerCube::new(4);
        w.acquire_task_blocks(0, 1, 2);
        assert!(w.owns_a.contains(0, 2));
        assert!(w.owns_b.contains(2, 1));
        assert!(w.owns_c.contains(0, 1));
        assert!(!w.owns_a.contains(0, 1));
    }

    #[test]
    fn fleet_is_independent() {
        let mut fleet = vec![WorkerCube::new(3); 2];
        fleet[0].acquire_task_blocks(0, 0, 0);
        assert_eq!(fleet[0].total_blocks(), 3);
        assert_eq!(fleet[1].total_blocks(), 0);
    }
}
