//! The paper's four outer-product strategies: the generic family of
//! `hetsched-sim` over the [`Outer`] task grid.

use crate::kernel::Outer;
use hetsched_sim::{Dynamic, Random, Sorted, TwoPhase};

/// Allocates a uniformly random unprocessed task per request and ships the
/// missing inputs — the locality-oblivious baseline.
pub type RandomOuter = Random<Outer>;

/// Allocates tasks in lexicographic `(i, j)` order and ships the missing
/// inputs; consecutive tasks of a row reuse its `a` block.
pub type SortedOuter = Sorted<Outer>;

/// The data-aware strategy (Algorithm 1): per request, one new random `a`
/// block and one new random `b` block, and every unprocessed task they
/// enable.
pub type DynamicOuter = Dynamic<Outer>;

/// [`DynamicOuter`] until `e^{−β}·n²` tasks remain, then [`RandomOuter`]
/// for the end game (Algorithm 2).
pub type DynamicOuter2Phases = TwoPhase<Outer>;

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_platform::{outer_lower_bound, Platform, ProcId, SpeedDistribution, SpeedModel};
    use hetsched_sim::{Engine, Scheduler};
    use hetsched_util::rng::rng_for;

    #[test]
    fn row_reuse_bounds_per_task_comm() {
        // Lexicographic order revisits the same row n times consecutively:
        // a-block comm is at most p·n overall (each worker learns a row's
        // block at most once).
        let n = 10;
        let p = 3;
        let pf = Platform::homogeneous(p);
        let mut rng = rng_for(3, 0);
        let (report, _) = Engine::new(&pf, SpeedModel::Fixed, SortedOuter::new(n, p)).run(&mut rng);
        assert!(report.total_blocks <= 2 * (n * n) as u64);
        assert!(report.total_blocks >= 2 * n as u64);
    }

    #[test]
    fn comm_at_least_lower_bound() {
        let mut rng = rng_for(2, 0);
        let pf = Platform::sample(10, &SpeedDistribution::paper_default(), &mut rng);
        let lb = outer_lower_bound(50, &pf);
        let (report, _) =
            Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(50, 10)).run(&mut rng);
        assert!(report.total_blocks as f64 >= lb * 0.999);
    }

    #[test]
    fn worker_ownership_symmetric_in_pure_dynamic() {
        // Pure DynamicOuter always extends a and b together, so |I| and |J|
        // stay equal unless a vector ran out; with n much larger than what
        // a worker learns they are equal.
        let pf = Platform::homogeneous(8);
        let mut rng = rng_for(3, 0);
        let (_, sched) =
            Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(60, 8)).run(&mut rng);
        for k in pf.procs() {
            let w = sched.problem().worker(k);
            assert_eq!(w.a.count(), w.b.count(), "worker {k}");
            assert!(w.a.count() > 0);
        }
    }

    #[test]
    fn threshold_from_fraction() {
        let s = DynamicOuter2Phases::with_phase1_fraction(10, 2, 0.9);
        assert_eq!(s.threshold(), 10);
    }

    #[test]
    fn rect_shard_threshold_counts_the_shard_tasks() {
        // A 6 × 5 shard switches at e^{−β} of its own 30 tasks.
        let s = DynamicOuter2Phases::shard((6, 5), 2, 0).switch_at_beta(1.0);
        assert_eq!(s.threshold(), 11);
        assert_eq!(s.total_tasks(), 30);
        assert_eq!(DynamicOuter::rect(6, 5, 2).total_tasks(), 30);
    }

    #[test]
    fn more_workers_than_tasks() {
        // p = 30 workers for a 4×4 task grid: most workers never get work,
        // but everything still completes exactly once.
        let pf = Platform::homogeneous(30);
        let (report, _) = Engine::new(
            &pf,
            SpeedModel::Fixed,
            DynamicOuter2Phases::with_beta(4, 30, 3.0),
        )
        .run(&mut rng_for(10, 0));
        assert_eq!(report.ledger.total_tasks(), 16);
    }

    #[test]
    fn in_phase2_flag_transitions() {
        let mut s = DynamicOuter2Phases::new(10, 1, 50);
        let mut rng = rng_for(4, 0);
        let mut out = Vec::new();
        assert!(!s.in_phase2());
        while s.remaining() > 50 {
            out.clear();
            s.on_request(ProcId(0), &mut rng, &mut out);
        }
        assert!(s.in_phase2());
    }
}
