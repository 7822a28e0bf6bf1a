//! The simulation event queue.
//!
//! A binary min-heap of worker-ready events. A flat vector scanned linearly
//! on every pop was benchmarked against it (the queue never holds more than
//! ~`p + 1` entries) and lost 6× at `p = 300`; see the performance appendix
//! of EXPERIMENTS.md. The heap is allocation-free once warm
//! (`BinaryHeap` reuses its buffer).

use hetsched_platform::ProcId;
use hetsched_util::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of *worker ready* events.
///
/// Only one event kind exists in this model — "worker `k` finished its batch
/// at time `t` and requests work" — so the queue stores `(t, seq, k)`
/// directly. The monotonically increasing `seq` makes simultaneous events
/// FIFO and the whole simulation deterministic for a given seed (important:
/// all `p` workers are ready at `t = 0`).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(OrderedF64, u64, ProcId)>>,
    seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules worker `k` to request work at time `t`.
    pub fn push(&mut self, t: f64, k: ProcId) {
        self.heap.push(Reverse((OrderedF64::new(t), self.seq, k)));
        self.seq += 1;
    }

    /// Pops the earliest request, if any (FIFO among simultaneous events).
    pub fn pop(&mut self) -> Option<(f64, ProcId)> {
        self.heap.pop().map(|Reverse((t, _, k))| (t.get(), k))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, ProcId(0));
        q.push(1.0, ProcId(1));
        q.push(3.0, ProcId(2));
        assert_eq!(q.pop(), Some((1.0, ProcId(1))));
        assert_eq!(q.pop(), Some((2.0, ProcId(0))));
        assert_eq!(q.pop(), Some((3.0, ProcId(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(0.0, ProcId(i));
        }
        for i in 0..5u32 {
            assert_eq!(q.pop(), Some((0.0, ProcId(i))));
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, ProcId(0));
        q.push(1.5, ProcId(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_pushes_respect_order() {
        let mut q = EventQueue::new();
        q.push(5.0, ProcId(0));
        assert_eq!(q.pop(), Some((5.0, ProcId(0))));
        q.push(4.0, ProcId(1));
        q.push(6.0, ProcId(2));
        assert_eq!(q.pop(), Some((4.0, ProcId(1))));
        q.push(5.5, ProcId(3));
        assert_eq!(q.pop(), Some((5.5, ProcId(3))));
        assert_eq!(q.pop(), Some((6.0, ProcId(2))));
    }

    #[test]
    fn heap_agrees_with_a_sorted_reference_on_random_workload() {
        // Drive the queue and a reference (a vector kept in `(t, seq)`
        // order, popped from the front) through an identical interleaved
        // push/pop sequence with deterministic pseudo-random times,
        // including exact ties, and require identical pop streams.
        let mut reference: Vec<(f64, u64, ProcId)> = Vec::new();
        let mut seq = 0u64;
        let mut heap = EventQueue::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        fn pop_reference(reference: &mut Vec<(f64, u64, ProcId)>) -> Option<(f64, ProcId)> {
            (!reference.is_empty()).then(|| {
                let (t, _, k) = reference.remove(0);
                (t, k)
            })
        }
        for round in 0..200u32 {
            for i in 0..3u32 {
                // Coarse grid so ties actually happen.
                let t = (next() % 16) as f64;
                reference.push((t, seq, ProcId(round * 3 + i)));
                seq += 1;
                reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                heap.push(t, ProcId(round * 3 + i));
            }
            if round % 2 == 0 {
                assert_eq!(pop_reference(&mut reference), heap.pop());
            }
        }
        loop {
            let (a, b) = (pop_reference(&mut reference), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
