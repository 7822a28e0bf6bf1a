//! [`TaskPool`]: the master's view of which tasks are still unallocated.

use hetsched_util::{FixedBitSet, SwapList};
use rand::rngs::StdRng;

/// The tasks of one problem, keyed by linear task id (`0..total`): which
/// have been allocated ("processed" in the paper's vocabulary — allocation
/// wins the race), plus an O(1) uniform sampler over the unprocessed
/// residue and the tasks a worker failure returned to the pool.
///
/// The pool knows nothing of coordinates; a
/// [`TaskKernel`](crate::TaskKernel) maps ids to grid or cube positions.
#[derive(Clone, Debug)]
pub struct TaskPool {
    processed: FixedBitSet,
    remaining: SwapList,
    /// Tasks returned to the pool by a worker failure and not yet
    /// re-allocated. Also present in `remaining`; kept separately so the
    /// data-aware strategies can offer them to workers that already hold
    /// their inputs. Empty except under fault injection.
    orphans: Vec<u32>,
}

impl TaskPool {
    /// A pool of `total` unprocessed tasks. Zero is allowed (an empty
    /// hierarchy shard).
    pub fn new(total: usize) -> Self {
        TaskPool {
            processed: FixedBitSet::new(total),
            remaining: SwapList::full(total),
            orphans: Vec::new(),
        }
    }

    /// Total number of tasks.
    #[inline]
    pub fn total(&self) -> usize {
        self.processed.len()
    }

    /// Tasks not yet allocated.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining.len()
    }

    /// True if task `id` has been allocated.
    #[inline]
    pub fn is_processed(&self, id: u32) -> bool {
        self.processed.contains(id as usize)
    }

    /// Marks task `id` allocated; returns `true` if it was unprocessed.
    #[inline]
    pub fn mark(&mut self, id: u32) -> bool {
        if self.processed.insert(id as usize) {
            let removed = self.remaining.remove(id);
            debug_assert!(removed);
            if !self.orphans.is_empty() {
                if let Some(pos) = self.orphans.iter().position(|&o| o == id) {
                    self.orphans.swap_remove(pos);
                }
            }
            true
        } else {
            false
        }
    }

    /// Returns a previously allocated task to the pool — its owner failed
    /// before computing it. Returns `true` if the task was indeed allocated.
    pub fn reinsert(&mut self, id: u32) -> bool {
        if self.processed.remove(id as usize) {
            let inserted = self.remaining.insert(id);
            debug_assert!(inserted);
            self.orphans.push(id);
            true
        } else {
            false
        }
    }

    /// True while failure-reinserted tasks sit in the pool.
    #[inline]
    pub fn has_orphans(&self) -> bool {
        !self.orphans.is_empty()
    }

    /// The failure-reinserted tasks not yet re-allocated.
    #[inline]
    pub fn orphans(&self) -> &[u32] {
        &self.orphans
    }

    /// A uniformly random unprocessed task, or `None` when done.
    #[inline]
    pub fn random_unprocessed(&self, rng: &mut StdRng) -> Option<u32> {
        self.remaining.peek_random(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_util::rng::rng_for;

    #[test]
    fn fresh_pool_counts() {
        let s = TaskPool::new(100);
        assert_eq!(s.total(), 100);
        assert_eq!(s.remaining(), 100);
        assert!(!s.is_processed(34));
        assert_eq!(TaskPool::new(0).remaining(), 0);
    }

    #[test]
    fn mark_updates_both_views() {
        let mut s = TaskPool::new(25);
        assert!(s.mark(13));
        assert!(!s.mark(13), "idempotent");
        assert!(s.is_processed(13));
        assert_eq!(s.remaining(), 24);
    }

    #[test]
    fn random_unprocessed_never_returns_processed() {
        let mut s = TaskPool::new(16);
        let mut rng = rng_for(0, 0);
        for id in (0..16).filter(|&id| id != 6) {
            s.mark(id);
        }
        for _ in 0..20 {
            assert_eq!(s.random_unprocessed(&mut rng), Some(6));
        }
        s.mark(6);
        assert_eq!(s.random_unprocessed(&mut rng), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn reinsert_returns_task_to_pool() {
        let mut s = TaskPool::new(16);
        assert!(!s.reinsert(6), "unprocessed tasks stay put");
        assert!(s.mark(6));
        assert_eq!(s.remaining(), 15);
        assert!(s.reinsert(6));
        assert!(!s.reinsert(6), "already back in the pool");
        assert!(!s.is_processed(6));
        assert_eq!(s.remaining(), 16);
        assert!(s.has_orphans());
        assert_eq!(s.orphans(), &[6]);
        // Re-allocation clears the orphan marker.
        assert!(s.mark(6));
        assert!(!s.has_orphans());
        assert_eq!(s.remaining(), 15);
    }
}
