//! The paper's four matrix-multiplication strategies: the generic family
//! of `hetsched-sim` over the [`Matmul`] task cube.

use crate::kernel::Matmul;
use hetsched_sim::{Dynamic, Random, Sorted, TwoPhase};

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing `A`, `B`, `C` blocks — the locality-oblivious baseline.
pub type RandomMatrix = Random<Matmul>;

/// Allocates tasks in lexicographic `(i, j, k)` order and ships missing
/// blocks. Consecutive tasks share `C[i,j]` (and often `A`/`B` rows), so it
/// communicates a little less than [`RandomMatrix`].
pub type SortedMatrix = Sorted<Matmul>;

/// The data-aware strategy (Algorithm 3): per request, extends the
/// worker's index sets `I`, `J`, `K` by one random new index each and
/// allocates every unprocessed task of the three new slabs.
pub type DynamicMatrix = Dynamic<Matmul>;

/// [`DynamicMatrix`] until `e^{−β}·n³` tasks remain, then [`RandomMatrix`]
/// for the end game.
pub type DynamicMatrix2Phases = TwoPhase<Matmul>;

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{Platform, SpeedModel};
    use hetsched_sim::{Engine, Scheduler};
    use hetsched_util::rng::rng_for;

    #[test]
    fn index_sets_stay_balanced_in_pure_dynamic() {
        let pf = Platform::homogeneous(6);
        let mut rng = rng_for(3, 0);
        let (_, sched) =
            Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(15, 6)).run(&mut rng);
        for k in pf.procs() {
            let w = sched.problem().worker(k);
            assert_eq!(w.i_set.count(), w.j_set.count());
            assert_eq!(w.j_set.count(), w.k_set.count());
            assert!(w.i_set.count() > 0);
        }
    }

    #[test]
    fn shard_threshold_counts_the_shard_tasks() {
        // A 4 × 3 × 5 shard switches at e^{−β} of its own 60 tasks.
        let s = DynamicMatrix2Phases::shard((4, 3, 5), 2, 0).switch_at_beta(1.0);
        assert_eq!(s.threshold(), 22);
        assert_eq!(s.total_tasks(), 60);
    }
}
