//! Execution traces: typed per-event logs and coarse text rendering.
//!
//! The paper reasons about *when* data arrives at each processor (the
//! whole analysis is a time evolution of per-worker knowledge). A trace of
//! typed `(kind, time, worker, tasks, blocks, duration)` tuples makes those
//! dynamics observable: tests use it to check work conservation and
//! communication front-loading, the structured sinks in [`crate::sink`]
//! export it for Perfetto, and the text renderer gives a quick utilization
//! picture for humans.

use hetsched_platform::ProcId;
use std::fmt::Write as _;

/// What happened in a [`TraceEvent`].
///
/// The *allocation* kinds ([`Batch`](EventKind::Batch),
/// [`Retire`](EventKind::Retire), [`Lost`](EventKind::Lost),
/// [`Stranded`](EventKind::Stranded)) correspond one-to-one to
/// [`CommLedger`](crate::CommLedger) records: summing their `blocks`,
/// `tasks` and `duration` fields reconciles exactly with the ledger totals.
/// The remaining kinds are overlay events (network timing, scheduler phase)
/// and carry no ledger-counted volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A batch computed to completion.
    Batch,
    /// The worker retired: the scheduler had nothing left for it (its
    /// blocks, normally zero, still count).
    Retire,
    /// The worker died mid-batch: blocks were shipped and `duration` of
    /// compute burned, but no task of the batch completed.
    Lost,
    /// Priced links only: a batch in transfer (or arrived but never
    /// started) toward a worker that died — pure bandwidth waste.
    Stranded,
    /// Priced links only: a batch occupying the master link;
    /// `time`/`duration` span the channel busy interval.
    Transfer,
    /// Priced links only: the worker sat idle for `duration` waiting
    /// for its next batch to arrive (the transfer wait).
    Wait,
    /// A two-phase scheduler crossed its switch threshold while serving
    /// this worker's request.
    PhaseSwitch,
}

impl EventKind {
    /// True for the kinds that correspond to one ledger-recorded request
    /// (the reconciliation invariants sum over exactly these).
    pub fn is_allocation(self) -> bool {
        matches!(
            self,
            EventKind::Batch | EventKind::Retire | EventKind::Lost | EventKind::Stranded
        )
    }

    /// Stable lower-case label used by the structured sinks.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Batch => "batch",
            EventKind::Retire => "retire",
            EventKind::Lost => "lost",
            EventKind::Stranded => "stranded",
            EventKind::Transfer => "transfer",
            EventKind::Wait => "wait",
            EventKind::PhaseSwitch => "phase_switch",
        }
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Simulated time of the event ([`Wait`](EventKind::Wait) and
    /// [`Transfer`](EventKind::Transfer) events start earlier than the
    /// request they serve: `time` is the interval start).
    pub time: f64,
    /// The worker concerned.
    pub proc: ProcId,
    /// Tasks allocated (allocation kinds only; zero otherwise).
    pub tasks: usize,
    /// Blocks shipped for this request (allocation kinds and
    /// [`Transfer`](EventKind::Transfer); a transfer's blocks duplicate the
    /// allocation event they belong to and are excluded from
    /// reconciliation).
    pub blocks: u64,
    /// Length of the interval: compute time for
    /// [`Batch`](EventKind::Batch), burned compute for
    /// [`Lost`](EventKind::Lost), wire time for
    /// [`Transfer`](EventKind::Transfer), idle time for
    /// [`Wait`](EventKind::Wait); zero otherwise.
    pub duration: f64,
}

/// A full run's event log, in engine-emission order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Records one event (called by the engine).
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Drops all events, keeping capacity (streaming recorders reuse the
    /// buffer between chunk flushes).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Pre-sizes the event buffer for at least `n` events, so buffered
    /// recording of a run with a known event count never reallocates.
    pub fn reserve(&mut self, n: usize) {
        self.events.reserve(n.saturating_sub(self.events.len()));
    }

    /// All events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events (all kinds).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of allocation events (the ones the ledger counts as
    /// requests).
    pub fn allocation_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.is_allocation())
            .count()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Cumulative blocks shipped up to (and including) time `t`
    /// (allocation events only, so transfers are not double counted).
    pub fn blocks_by(&self, t: f64) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind.is_allocation() && e.time <= t)
            .map(|e| e.blocks)
            .sum()
    }

    /// Fraction of all communication that happened in the first
    /// `fraction` of the makespan — data-aware strategies front-load their
    /// traffic (they buy rows/columns early and reuse them).
    pub fn comm_front_loading(&self, fraction: f64) -> f64 {
        let total: u64 = self
            .events
            .iter()
            .filter(|e| e.kind.is_allocation())
            .map(|e| e.blocks)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let makespan = self.makespan();
        self.blocks_by(makespan * fraction) as f64 / total as f64
    }

    /// Latest batch completion time (allocation events only: waits and
    /// transfers never extend the computed makespan).
    pub fn makespan(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind.is_allocation())
            .map(|e| e.time + e.duration)
            .fold(0.0, f64::max)
    }

    /// Per-worker busy time: compute intervals, including compute burned
    /// by a mid-batch death (matching the ledger's `busy` counter).
    pub fn busy_time(&self, k: ProcId) -> f64 {
        self.events
            .iter()
            .filter(|e| e.proc == k && e.kind.is_allocation())
            .map(|e| e.duration)
            .sum()
    }

    /// Renders a coarse text Gantt chart: one row per worker, `width`
    /// buckets over the makespan, each bucket showing utilization
    /// (`' '` idle → `'█'` fully busy).
    pub fn gantt(&self, p: usize, width: usize) -> String {
        const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];
        let makespan = self.makespan();
        let mut out = String::new();
        if makespan <= 0.0 || width == 0 {
            return out;
        }
        let bucket = makespan / width as f64;
        for k in 0..p {
            let mut busy = vec![0.0f64; width];
            for e in self
                .events
                .iter()
                .filter(|e| e.proc.idx() == k && e.kind.is_allocation())
            {
                // Spread the batch's duration over the buckets it spans.
                let (start, end) = (e.time, e.time + e.duration);
                let first = ((start / bucket) as usize).min(width - 1);
                let last = ((end / bucket) as usize).min(width - 1);
                for (b, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                    let b0 = b as f64 * bucket;
                    let b1 = b0 + bucket;
                    let overlap = (end.min(b1) - start.max(b0)).max(0.0);
                    *slot += overlap;
                }
            }
            write!(out, "P{k:<3} ").expect("string write");
            for b in busy {
                let u = (b / bucket).clamp(0.0, 1.0);
                let idx = (u * (SHADES.len() - 1) as f64).round() as usize;
                out.push(SHADES[idx]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(time: f64, proc: u32, tasks: usize, blocks: u64, duration: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Batch,
            time,
            proc: ProcId(proc),
            tasks,
            blocks,
            duration,
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(batch(0.0, 0, 4, 2, 1.0));
        t.push(batch(0.0, 1, 2, 2, 2.0));
        t.push(batch(1.0, 0, 4, 1, 1.0));
        t
    }

    #[test]
    fn accumulators() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.blocks_by(0.0), 4);
        assert_eq!(t.blocks_by(1.0), 5);
        assert_eq!(t.makespan(), 2.0);
        assert_eq!(t.busy_time(ProcId(0)), 2.0);
        assert_eq!(t.busy_time(ProcId(1)), 2.0);
    }

    #[test]
    fn front_loading() {
        let t = sample();
        // 4 of 5 blocks ship at t = 0; the last request fires exactly at
        // t = 1.0 = makespan/2, so the 0.4-cutoff excludes it and the
        // 0.5-cutoff (inclusive) captures everything.
        assert!((t.comm_front_loading(0.4) - 0.8).abs() < 1e-12);
        assert_eq!(t.comm_front_loading(0.5), 1.0);
        assert_eq!(t.comm_front_loading(1.0), 1.0);
    }

    #[test]
    fn overlay_events_do_not_count_as_volume_or_busy_time() {
        let mut t = sample();
        t.push(TraceEvent {
            kind: EventKind::Transfer,
            time: 0.0,
            proc: ProcId(0),
            tasks: 0,
            blocks: 99,
            duration: 5.0,
        });
        t.push(TraceEvent {
            kind: EventKind::Wait,
            time: 0.5,
            proc: ProcId(1),
            tasks: 0,
            blocks: 0,
            duration: 9.0,
        });
        t.push(TraceEvent {
            kind: EventKind::PhaseSwitch,
            time: 1.5,
            proc: ProcId(0),
            tasks: 0,
            blocks: 0,
            duration: 0.0,
        });
        assert_eq!(t.len(), 6);
        assert_eq!(t.allocation_count(), 3);
        assert_eq!(t.blocks_by(10.0), 5, "transfer blocks are not re-counted");
        assert_eq!(t.makespan(), 2.0, "waits never extend the makespan");
        assert_eq!(t.busy_time(ProcId(1)), 2.0, "waiting is not busy time");
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(EventKind::Batch.label(), "batch");
        assert_eq!(EventKind::PhaseSwitch.label(), "phase_switch");
        assert!(EventKind::Lost.is_allocation());
        assert!(!EventKind::Transfer.is_allocation());
    }

    #[test]
    fn gantt_renders_rows_and_full_utilization() {
        let t = sample();
        let g = t.gantt(2, 8);
        let rows: Vec<&str> = g.lines().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with("P0"));
        // Both workers are busy end to end here: all buckets solid.
        for row in rows {
            let cells: String = row.chars().skip(5).collect();
            assert!(cells.chars().all(|c| c == '█'), "row {row:?}");
        }
    }

    #[test]
    fn gantt_shows_idle_tail() {
        let mut t = sample();
        // Worker 0 stops at t = 2; worker 1 keeps going to t = 4.
        t.push(batch(2.0, 1, 2, 0, 2.0));
        let g = t.gantt(2, 8);
        let rows: Vec<&str> = g.lines().collect();
        let p0: String = rows[0].chars().skip(5).collect();
        assert!(p0.ends_with("    "), "P0 idle tail missing: {p0:?}");
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.comm_front_loading(0.5), 0.0);
        assert_eq!(t.gantt(3, 10), "");
    }
}
