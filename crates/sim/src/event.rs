//! The simulation event queue.
//!
//! A binary min-heap of `(time, kind, worker)` events. A flat vector
//! scanned linearly on every pop was benchmarked against it (the queue
//! never holds more than a few entries per worker) and lost 6× at
//! `p = 300`; see the performance appendix of EXPERIMENTS.md. The heap is
//! allocation-free once warm (`BinaryHeap` reuses its buffer).

use hetsched_platform::ProcId;
use hetsched_util::OrderedF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens to a worker at an event's time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    /// The worker's failure is discovered.
    Death,
    /// A batch transfer reaches the worker (priced links only).
    Arrive,
    /// The worker finishes computing its batch.
    Done,
    /// An idle worker asks for work: the initial request at `t = 0`, or a
    /// parked worker re-checking a pool a death may have replenished.
    Retry,
}

/// A min-queue of events. The monotonically increasing sequence number
/// makes simultaneous events FIFO and the whole simulation deterministic
/// for a given seed; the engine pushes every [`Event::Death`] first, so a
/// death at time `f` pops before anything else at `f`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(OrderedF64, u64, Event, ProcId)>>,
    seq: u64,
}

impl EventQueue {
    /// Schedules `event` for worker `k` at time `t`.
    pub(crate) fn push(&mut self, t: f64, event: Event, k: ProcId) {
        self.heap
            .push(Reverse((OrderedF64::new(t), self.seq, event, k)));
        self.seq += 1;
    }

    /// Pops the earliest event, if any (FIFO among simultaneous events).
    pub(crate) fn pop(&mut self) -> Option<(f64, Event, ProcId)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, event, k))| (t.get(), event, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(q: &mut EventQueue, t: f64, k: u32) {
        q.push(t, Event::Done, ProcId(k));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        done(&mut q, 2.0, 0);
        done(&mut q, 1.0, 1);
        q.push(3.0, Event::Death, ProcId(2));
        assert_eq!(q.pop(), Some((1.0, Event::Done, ProcId(1))));
        assert_eq!(q.pop(), Some((2.0, Event::Done, ProcId(0))));
        assert_eq!(q.pop(), Some((3.0, Event::Death, ProcId(2))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo_whatever_the_kind() {
        let mut q = EventQueue::default();
        let kinds = [Event::Retry, Event::Death, Event::Done, Event::Arrive];
        for (i, &kind) in kinds.iter().enumerate() {
            q.push(0.0, kind, ProcId(i as u32));
        }
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(q.pop(), Some((0.0, kind, ProcId(i as u32))));
        }
    }

    #[test]
    fn interleaved_pushes_respect_order() {
        let mut q = EventQueue::default();
        done(&mut q, 5.0, 0);
        assert_eq!(q.pop(), Some((5.0, Event::Done, ProcId(0))));
        done(&mut q, 4.0, 1);
        done(&mut q, 6.0, 2);
        assert_eq!(q.pop(), Some((4.0, Event::Done, ProcId(1))));
        done(&mut q, 5.5, 3);
        assert_eq!(q.pop(), Some((5.5, Event::Done, ProcId(3))));
        assert_eq!(q.pop(), Some((6.0, Event::Done, ProcId(2))));
    }

    #[test]
    fn heap_agrees_with_a_sorted_reference_on_random_workload() {
        // Drive the queue and a reference (a vector kept in `(t, seq)`
        // order, popped from the front) through an identical interleaved
        // push/pop sequence with deterministic pseudo-random times,
        // including exact ties, and require identical pop streams.
        let mut reference: Vec<(f64, u64, ProcId)> = Vec::new();
        let mut seq = 0u64;
        let mut heap = EventQueue::default();
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
        let pop_heap = |q: &mut EventQueue| q.pop().map(|(t, _, k)| (t, k));
        for round in 0..200u32 {
            for i in 0..3u32 {
                // Coarse grid so ties actually happen.
                let t = (next() % 16) as f64;
                reference.push((t, seq, ProcId(round * 3 + i)));
                seq += 1;
                reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                done(&mut heap, t, round * 3 + i);
            }
            if round % 2 == 0 {
                assert_eq!(pop_reference(&mut reference), pop_heap(&mut heap));
            }
        }
        loop {
            let (a, b) = (pop_reference(&mut reference), pop_heap(&mut heap));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
