//! The simulation event queue.
//!
//! A binary min-heap of `(time, kind, worker)` events. A flat vector
//! scanned linearly on every pop was benchmarked against it (the queue
//! never holds more than a few entries per worker) and lost 6× at
//! `p = 300`; see the performance appendix of EXPERIMENTS.md. The heap is
//! allocation-free once warm (`BinaryHeap` reuses its buffer).
//!
//! Two things keep each event cheap:
//!
//! * **One integer key.** An entry orders by `(time, seq)` packed into a
//!   `u128`: the time's `f64` bits mapped to an unsigned integer that
//!   sorts like the float (`-0.0` first made `+0.0`, since the two are
//!   equal times), then the push sequence number. A comparison is one
//!   integer compare, and keys are unique, so the pop order is that of the
//!   `(time, seq)` pairs.
//! * **Replace-top.** [`pop`](EventQueue::pop) hands out the top entry but
//!   leaves it in the heap. The next `pop` removes it; a
//!   [`push`](EventQueue::push) that comes first overwrites it in place
//!   and sifts it down once, instead of a removal and an insertion. The
//!   loop mostly pops a worker's event and pushes that worker's next one.

use hetsched_platform::ProcId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens to a worker at an event's time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// `t` as an unsigned integer that sorts like `t` among finite floats.
#[inline]
fn time_key(t: f64) -> u64 {
    debug_assert!(t.is_finite(), "event times are finite, got {t}");
    // `+ 0.0` turns `-0.0` into `+0.0` and leaves every other value alone.
    let bits = (t + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The time [`time_key`] encoded.
#[inline]
fn key_time(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

/// A queued event, ordered by its `(time, seq)` key alone and in reverse,
/// so that the max-heap `BinaryHeap` yields the earliest first.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: u64,
    seq: u64,
    event: Event,
    k: ProcId,
}

impl Entry {
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.seq)
    }
}

impl PartialEq for Entry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A min-queue of events. The monotonically increasing sequence number
/// makes simultaneous events FIFO and the whole simulation deterministic
/// for a given seed; the engine pushes every [`Event::Death`] first, so a
/// death at time `f` pops before anything else at `f`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
    /// The heap's top was handed out by the last `pop` and is spent.
    taken: bool,
}

impl EventQueue {
    /// Schedules `event` for worker `k` at time `t`.
    pub(crate) fn push(&mut self, t: f64, event: Event, k: ProcId) {
        let entry = Entry {
            time: time_key(t),
            seq: self.seq,
            event,
            k,
        };
        self.seq += 1;
        if std::mem::take(&mut self.taken) {
            // Overwrite the spent top; dropping the guard sifts it down.
            *self.heap.peek_mut().expect("a spent top") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pops the earliest event, if any (FIFO among simultaneous events).
    pub(crate) fn pop(&mut self) -> Option<(f64, Event, ProcId)> {
        if std::mem::take(&mut self.taken) {
            self.heap.pop();
        }
        let top = self.heap.peek()?;
        self.taken = true;
        Some((key_time(top.time), top.event, top.k))
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
    fn negative_zero_is_the_same_instant_as_zero() {
        let mut q = EventQueue::default();
        done(&mut q, 0.0, 0);
        done(&mut q, -0.0, 1);
        done(&mut q, 0.0, 2);
        for k in 0..3 {
            let (t, _, proc) = q.pop().unwrap();
            assert_eq!((t.to_bits(), proc), (0.0f64.to_bits(), ProcId(k)));
        }
    }

    #[test]
    fn time_keys_sort_like_the_times() {
        let times = [-3.5, -1e-300, 0.0, 1e-300, 0.25, 1.0, 7.5e12, f64::MAX];
        for w in times.windows(2) {
            assert!(time_key(w[0]) < time_key(w[1]), "{w:?}");
        }
        for t in times {
            assert_eq!(key_time(time_key(t)).to_bits(), t.to_bits());
        }
    }

    #[test]
    fn heap_agrees_with_a_sorted_reference_on_random_workload() {
        // Drive the queue and a reference (a vector kept in descending
        // `(t, seq)` order, popped from the back) through an identical
        // random sequence of pushes and pops, and require identical pop
        // streams. A push right after a pop takes the replace-top path, a
        // pop right after a pop removes the spent top first, and a push at
        // the instant just popped ties with the spent top. Times sit on a
        // coarse grid so that ties are common; the queue sizes run up to
        // one entry per worker at p = 300.
        let mut state = 0x9E37_79B9u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (mut replaced, mut pop_pop, mut ties) = (0, 0, 0);
        for p in [3u64, 20, 300] {
            let mut reference: Vec<(f64, u64, ProcId)> = Vec::new();
            let mut seq = 0u64;
            let mut heap = EventQueue::default();
            let mut push = |heap: &mut EventQueue, reference: &mut Vec<_>, t: f64, k: ProcId| {
                let at = reference.partition_point(|&(rt, rs, _): &(f64, u64, ProcId)| {
                    rt.total_cmp(&t).then(rs.cmp(&seq)).is_gt()
                });
                reference.insert(at, (t, seq, k));
                seq += 1;
                heap.push(t, Event::Done, k);
            };
            for k in 0..p {
                let t = next(16) as f64 * 0.5;
                push(&mut heap, &mut reference, t, ProcId(k as u32));
            }
            let mut popped: Option<f64> = None;
            for _ in 0..40 * p {
                let k = ProcId(next(p) as u32);
                let op = if reference.is_empty() { 0 } else { next(4) };
                match op {
                    0 | 1 => {
                        let t = match popped {
                            // A tie with the entry just popped.
                            Some(now) if op == 1 => {
                                ties += 1;
                                now
                            }
                            // At or after the last pop, like the engine.
                            Some(now) => now + next(8) as f64 * 0.5,
                            None => next(16) as f64 * 0.5,
                        };
                        replaced += usize::from(popped.is_some());
                        push(&mut heap, &mut reference, t, k);
                        popped = None;
                    }
                    _ => {
                        pop_pop += usize::from(popped.is_some());
                        let (t, _, k) = reference.pop().unwrap();
                        assert_eq!(heap.pop(), Some((t, Event::Done, k)), "p = {p}");
                        popped = Some(t);
                    }
                }
                if op == 3 && next(2) == 0 {
                    // An earlier push than anything queued: the new top.
                    push(&mut heap, &mut reference, -1.0, k);
                    popped = None;
                }
            }
            while let Some((t, _, k)) = reference.pop() {
                assert_eq!(heap.pop(), Some((t, Event::Done, k)), "p = {p}");
            }
            assert_eq!(heap.pop(), None);
            assert_eq!(heap.pop(), None);
        }
        assert!(
            replaced > 100 && pop_pop > 100 && ties > 100,
            "paths not exercised: {replaced} replace-top, {pop_pop} pop-pop, {ties} ties"
        );
    }
}
