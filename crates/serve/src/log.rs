//! The durable event log: append-only JSONL, one state transition per
//! line, doubling as the crash-recovery journal.
//!
//! Every transition the daemon makes is appended (and flushed) before the
//! daemon acts on it, except `done`/`failed`, which are appended *after*
//! the result manifest hits disk — so a crash between the two re-runs the
//! job deterministically and rewrites an identical manifest. On restart,
//! [`replay`] folds the log back into per-job records: terminal jobs keep
//! their recorded state, everything else goes back on the queue in
//! original submission order. A torn final line (the daemon died
//! mid-write, so it lacks its newline) is skipped, even when it parses,
//! and cut when the log reopens; a line anywhere else that does not parse
//! is an error naming its line.

use crate::job::{JobId, JobOutcome, JobState};
use crate::proto::{f64_field, str_field, u64_field};
use hetsched_core::provenance::json_escape;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Append-only writer for the event log.
#[derive(Debug)]
pub struct EventLog {
    file: File,
}

impl EventLog {
    /// Opens `path` for appending, creating it if absent. A torn final
    /// line (a crash mid-append) is cut first, so the next line starts on
    /// a line of its own and [`replay`] keeps reading the log.
    pub fn open(path: &Path) -> io::Result<EventLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = fs::read(path)?;
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if whole < bytes.len() {
            file.set_len(whole as u64)?;
        }
        Ok(EventLog { file })
    }

    /// Writes `line` and its newline in one `write_all`, so a line is
    /// only ever complete once its newline is on disk.
    fn append(&mut self, line: &str) -> io::Result<()> {
        let mut whole = String::with_capacity(line.len() + 1);
        whole.push_str(line);
        whole.push('\n');
        self.file.write_all(whole.as_bytes())?;
        self.file.flush()
    }

    /// Daemon came up (fresh or after recovery).
    pub fn daemon_start(
        &mut self,
        policy: &str,
        workers: usize,
        recovered: usize,
    ) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"daemon_start","policy":"{policy}","workers":{workers},"recovered":{recovered}}}"#
        ))
    }

    /// A job entered the queue.
    pub fn submitted(&mut self, id: JobId, spec: &str, predicted: f64) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"submitted","job":{id},"spec":"{}","predicted":{predicted}}}"#,
            json_escape(spec)
        ))
    }

    /// A worker took the job under a lease.
    pub fn leased(&mut self, id: JobId) -> io::Result<()> {
        self.append(&format!(r#"{{"event":"leased","job":{id}}}"#))
    }

    /// The job finished; its manifest is already on disk.
    pub fn done(&mut self, id: JobId, outcome: &JobOutcome) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"done","job":{id},"makespan_mean":{},"total_blocks_mean":{},"normalized_comm_mean":{}}}"#,
            outcome.makespan_mean, outcome.total_blocks_mean, outcome.normalized_comm_mean
        ))
    }

    /// The job gave up for good.
    pub fn failed(&mut self, id: JobId, error: &str) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"failed","job":{id},"error":"{}"}}"#,
            json_escape(error)
        ))
    }

    /// A lease timed out.
    pub fn lease_expired(&mut self, id: JobId) -> io::Result<()> {
        self.append(&format!(r#"{{"event":"lease_expired","job":{id}}}"#))
    }

    /// The job went back on the queue after a lease expiry.
    pub fn requeued(&mut self, id: JobId, retries: u32) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"requeued","job":{id},"retries":{retries}}}"#
        ))
    }

    /// The daemon drained: every job terminal, shutting down.
    pub fn drained(&mut self) -> io::Result<()> {
        self.append(r#"{"event":"drained"}"#)
    }

    /// An opportunistic store-compaction pass merged small segments.
    /// Carries no per-job state — replay ignores it — but records when
    /// and how much the store shrank.
    pub fn compacted(&mut self, before: usize, after: usize, rows: usize) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"compacted","segments_before":{before},"segments_after":{after},"rows":{rows}}}"#
        ))
    }

    /// A store-compaction pass failed. The store itself is unharmed (the
    /// merged segment lands before any removal), so the daemon keeps
    /// serving and retries at the next threshold crossing.
    pub fn compact_failed(&mut self, error: &str) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"compact_failed","error":"{}"}}"#,
            json_escape(error)
        ))
    }

    /// A thread panicked while holding the daemon lock; the daemon
    /// recovered the poisoned mutex and kept serving. Carries no per-job
    /// state — replay ignores it — but leaves an audit trail of the
    /// incident.
    pub fn lock_poisoned(&mut self, context: &str) -> io::Result<()> {
        self.append(&format!(
            r#"{{"event":"lock_poisoned","context":"{}"}}"#,
            json_escape(context)
        ))
    }
}

/// A job's state as reconstructed from the log.
#[derive(Clone, Debug)]
pub struct ReplayedJob {
    /// The spec string exactly as submitted.
    pub spec: String,
    /// Admission-time prediction recorded at submission.
    pub predicted: f64,
    /// Last state the log witnessed.
    pub state: JobState,
    /// Requeue count the log witnessed.
    pub retries: u32,
    /// Outcome, when the last state is `Done`.
    pub outcome: Option<JobOutcome>,
    /// Error, when the last state is `Failed`.
    pub error: Option<String>,
}

/// Replays the event log at `path` into per-job records, in submission
/// order (index `i` is job id `i + 1`). Missing file means a fresh
/// daemon: empty vec. The piece after the last newline — a torn line, what
/// a crash mid-append leaves — is skipped even when it parses, because
/// [`EventLog::open`] cuts exactly those bytes: a line counts only once
/// its newline is on disk. Any other line that does not parse is an
/// `InvalidData` error naming its line number: a damaged `done` line must
/// stop the daemon, not quietly run its job again.
pub fn replay(path: &Path) -> io::Result<Vec<ReplayedJob>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut jobs: Vec<ReplayedJob> = Vec::new();
    // The piece after the last newline is empty unless the last line is torn.
    let pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let (_torn, lines) = pieces.split_last().expect("split yields a piece");
    for (i, line) in lines.iter().enumerate() {
        apply(&mut jobs, line).map_err(|what| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: line {}: {what}", path.display(), i + 1),
            )
        })?;
    }
    Ok(jobs)
}

/// Folds one log line into `jobs`; an error says why it does not parse.
fn apply(jobs: &mut Vec<ReplayedJob>, line: &[u8]) -> Result<(), String> {
    let line = std::str::from_utf8(line).map_err(|_| "not UTF-8".to_string())?;
    let event = str_field(line, "event").ok_or("no event field")?;
    let missing = || format!("{event} line lacks a field");
    match event.as_str() {
        "submitted" => {
            let (Some(id), Some(spec), Some(predicted)) = (
                u64_field(line, "job"),
                str_field(line, "spec"),
                f64_field(line, "predicted"),
            ) else {
                return Err(missing());
            };
            // Ids are assigned in submission order; a gap or repeat
            // means a torn log, so only the expected next id counts.
            if id == jobs.len() as u64 + 1 {
                jobs.push(ReplayedJob {
                    spec,
                    predicted,
                    state: JobState::Queued,
                    retries: 0,
                    outcome: None,
                    error: None,
                });
            }
        }
        "leased" | "done" | "failed" | "requeued" => {
            let id = u64_field(line, "job").ok_or_else(missing)?;
            // A transition of a job whose submission was dropped above.
            let Some(job) = id.checked_sub(1).and_then(|i| jobs.get_mut(i as usize)) else {
                return Ok(());
            };
            match event.as_str() {
                "leased" => job.state = JobState::Leased,
                "done" => {
                    let (Some(mk), Some(tb), Some(nc)) = (
                        f64_field(line, "makespan_mean"),
                        f64_field(line, "total_blocks_mean"),
                        f64_field(line, "normalized_comm_mean"),
                    ) else {
                        return Err(missing());
                    };
                    job.state = JobState::Done;
                    job.outcome = Some(JobOutcome {
                        makespan_mean: mk,
                        total_blocks_mean: tb,
                        normalized_comm_mean: nc,
                    });
                }
                "failed" => {
                    job.state = JobState::Failed;
                    job.error = Some(str_field(line, "error").ok_or_else(missing)?);
                }
                _ => {
                    job.state = JobState::Queued;
                    job.retries = u64_field(line, "retries").ok_or_else(missing)? as u32;
                }
            }
        }
        // These carry no per-job state beyond what the transitions above
        // already record.
        "daemon_start" | "lease_expired" | "drained" | "compacted" | "compact_failed"
        | "lock_poisoned" => {}
        other => return Err(format!("unknown event {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hetsched-log-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("events.jsonl")
    }

    #[test]
    fn log_round_trips_through_replay() {
        let path = tmp("roundtrip");
        let _ = fs::remove_file(&path);
        {
            let mut log = EventLog::open(&path).unwrap();
            log.daemon_start("fifo", 2, 0).unwrap();
            log.submitted(1, "n=10 name=\"a\"", 4.5).unwrap();
            log.submitted(2, "n=20", 9.0).unwrap();
            log.submitted(3, "n=30", 13.5).unwrap();
            log.leased(1).unwrap();
            log.done(
                1,
                &JobOutcome {
                    makespan_mean: 4.25,
                    total_blocks_mean: 100.0,
                    normalized_comm_mean: 1.5,
                },
            )
            .unwrap();
            log.leased(2).unwrap();
            log.lease_expired(2).unwrap();
            log.requeued(2, 1).unwrap();
            log.leased(3).unwrap();
            log.failed(3, "panic: \"boom\"").unwrap();
        }
        let jobs = replay(&path).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].state, JobState::Done);
        assert_eq!(jobs[0].spec, "n=10 name=\"a\"");
        assert_eq!(jobs[0].outcome.as_ref().unwrap().makespan_mean, 4.25);
        assert_eq!(jobs[1].state, JobState::Queued, "requeued after expiry");
        assert_eq!(jobs[1].retries, 1);
        assert_eq!(jobs[2].state, JobState::Failed);
        assert_eq!(jobs[2].error.as_deref(), Some("panic: \"boom\""));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_log_is_a_fresh_start() {
        let path = tmp("missing");
        let _ = fs::remove_file(&path);
        assert!(replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = tmp("torn");
        let _ = fs::remove_file(&path);
        {
            let mut log = EventLog::open(&path).unwrap();
            log.submitted(1, "n=10", 4.5).unwrap();
            log.leased(1).unwrap();
        }
        // Simulate a crash mid-append: a partial `done` line without the
        // trailing fields or newline.
        let mut raw = fs::read(&path).unwrap();
        raw.extend(br#"{"event":"done","job":1,"makespan_me"#);
        fs::write(&path, raw).unwrap();
        let jobs = replay(&path).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].state,
            JobState::Leased,
            "torn done line ignored; job replays as interrupted"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_cuts_a_torn_line_so_replay_keeps_reading() {
        let path = tmp("reopen");
        let _ = fs::remove_file(&path);
        {
            let mut log = EventLog::open(&path).unwrap();
            log.submitted(1, "n=10", 4.5).unwrap();
            log.leased(1).unwrap();
        }
        let mut raw = fs::read(&path).unwrap();
        raw.extend(br#"{"event":"done","job":1,"makespan_me"#);
        fs::write(&path, raw).unwrap();
        // The restarted daemon appends after the cut, on a line of its own.
        EventLog::open(&path)
            .unwrap()
            .daemon_start("fifo", 1, 1)
            .unwrap();
        let jobs = replay(&path).unwrap();
        assert_eq!(jobs[0].state, JobState::Leased);
        assert!(fs::read_to_string(&path)
            .unwrap()
            .ends_with("{\"event\":\"leased\",\"job\":1}\n{\"event\":\"daemon_start\",\"policy\":\"fifo\",\"workers\":1,\"recovered\":1}\n"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_whole_done_line_without_its_newline_replays_the_same_before_and_after_reopening() {
        let path = tmp("unterminated");
        let _ = fs::remove_file(&path);
        {
            let mut log = EventLog::open(&path).unwrap();
            log.submitted(1, "n=10", 4.5).unwrap();
            log.leased(1).unwrap();
        }
        // A crash after the `done` line's bytes but before its newline.
        let mut raw = fs::read(&path).unwrap();
        raw.extend(br#"{"event":"done","job":1,"makespan_mean":4.25,"total_blocks_mean":100,"normalized_comm_mean":1.5}"#);
        fs::write(&path, raw).unwrap();
        let before = replay(&path).unwrap();
        EventLog::open(&path)
            .unwrap()
            .daemon_start("fifo", 1, 1)
            .unwrap();
        let after = replay(&path).unwrap();
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 1);
        assert_eq!(
            before[0].state,
            JobState::Leased,
            "unterminated line skipped"
        );
        assert_eq!(after[0].state, before[0].state);
        assert!(after[0].outcome.is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_damaged_line_before_the_last_is_an_error_naming_it() {
        let path = tmp("damaged");
        let _ = fs::remove_file(&path);
        {
            let mut log = EventLog::open(&path).unwrap();
            log.submitted(1, "n=10", 4.5).unwrap();
            log.leased(1).unwrap();
            log.done(
                1,
                &JobOutcome {
                    makespan_mean: 4.25,
                    total_blocks_mean: 100.0,
                    normalized_comm_mean: 1.5,
                },
            )
            .unwrap();
            log.drained().unwrap();
        }
        let good = fs::read_to_string(&path).unwrap();
        let mut not_utf8 = good.clone().into_bytes();
        not_utf8[good.find("\"done\"").unwrap() + 2] = 0xff;
        let damaged = [
            // The done line lost an outcome field.
            good.replace(",\"total_blocks_mean\":100", "").into_bytes(),
            // Its event name was garbled.
            good.replace("\"done\"", "\"dXne\"").into_bytes(),
            not_utf8,
        ];
        for (i, bytes) in damaged.iter().enumerate() {
            fs::write(&path, bytes).unwrap();
            let err = replay(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}");
            assert!(err.to_string().contains("line 3"), "case {i}: {err}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_ignores_ids_that_break_submission_order() {
        let path = tmp("order");
        let _ = fs::remove_file(&path);
        fs::write(
            &path,
            concat!(
                r#"{"event":"submitted","job":1,"spec":"n=10","predicted":1.0}"#,
                "\n",
                r#"{"event":"submitted","job":5,"spec":"n=20","predicted":2.0}"#,
                "\n",
            ),
        )
        .unwrap();
        let jobs = replay(&path).unwrap();
        assert_eq!(jobs.len(), 1, "out-of-order id dropped");
        fs::remove_file(&path).unwrap();
    }
}
