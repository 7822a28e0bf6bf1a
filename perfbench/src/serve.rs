//! The `serve` workload: one closed-loop client of an in-process daemon
//! (one worker, `--store` set, default compaction threshold). An
//! operation submits a small job over the Unix socket and polls `status`
//! until the job is done; the timed interval is submit to done.
//!
//! The daemon's `status` reply renders every job it has seen, so a
//! daemon serves `LIFETIME_JOBS` jobs and is then drained and replaced by
//! a fresh one (new journal, results and store): every lifetime repeats
//! the same sequence of table sizes, and the compaction its last job
//! triggers runs while it drains, outside any timed interval.

use crate::trace::Tracer;
use crate::{Counters, Ctx, Fnv, OpOut, Workload};
use hetsched_core::provenance::{json_escape, manifest_json};
use hetsched_core::runner::run_trials_with_threads;
use hetsched_core::{parse_job_spec, JobRequest};
use hetsched_serve::client::{request, request_with_retry};
use hetsched_serve::proto::u64_field;
use hetsched_serve::{replay, serve, JobState, ServeOpts};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs per daemon lifetime; equal to the default compaction threshold,
/// so each lifetime compacts once, after its last job.
const LIFETIME_JOBS: usize = 64;
/// Client sleep between `status` polls.
const POLL: Duration = Duration::from_micros(500);
const PING: &str = r#"{"cmd":"ping"}"#;
const STATUS: &str = r#"{"cmd":"status"}"#;

/// A running in-process daemon.
struct Daemon {
    socket: PathBuf,
    log: PathBuf,
    results: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts a daemon over `dir` (replaying any journal there) and waits
    /// until it answers.
    fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let opts = ServeOpts {
            socket: dir.join("sock"),
            log: dir.join("events.jsonl"),
            results_dir: dir.join("results"),
            workers: 1,
            store: Some(dir.join("store")),
            ..ServeOpts::default()
        };
        let mut d = Daemon {
            socket: opts.socket.clone(),
            log: opts.log.clone(),
            results: opts.results_dir.clone(),
            thread: None,
        };
        d.thread = Some(std::thread::spawn(move || serve(opts)));
        request_with_retry(&d.socket, PING, Duration::from_secs(20))
            .map_err(|e| format!("daemon did not come up: {e}"))?;
        Ok(d)
    }

    /// Drains the daemon and waits for its threads. Returns the number of
    /// compactions its journal records.
    fn stop(mut self) -> Result<usize, String> {
        self.shutdown()?;
        let log = std::fs::read_to_string(&self.log).map_err(|e| format!("read journal: {e}"))?;
        Ok(log.matches(r#""event":"compacted""#).count())
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let drained = request(&self.socket, r#"{"cmd":"drain"}"#);
        let joined = thread.join();
        drained.map_err(|e| format!("drain: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The state of job `id` in a `status` reply.
fn job_state(status: &str, id: u64) -> Option<&str> {
    let at = status.find(&format!("{{\"job\":{id},"))?;
    let rest = &status[at..];
    let start = rest.find("\"state\":\"")? + "\"state\":\"".len();
    let len = rest[start..].find('"')?;
    Some(&rest[start..start + len])
}

/// The spec every operation submits, and what running it directly gives.
struct Job {
    submit: String,
    req: JobRequest,
    /// Summary means, rendered as the daemon renders them.
    means: [String; 3],
}

impl Job {
    fn new(seed: u64) -> Result<Job, String> {
        let spec = format!(
            "kernel=outer n=100 p=20 strategy=dynamic trials=24 seed={seed} name=bench group=perf"
        );
        let req = parse_job_spec(&spec)?;
        let s = run_trials_with_threads(&req.cfg, req.trials, req.seed, Some(1));
        Ok(Job {
            submit: format!(r#"{{"cmd":"submit","spec":"{}"}}"#, json_escape(&spec)),
            req,
            means: [
                s.makespan.mean().to_string(),
                s.total_blocks.mean().to_string(),
                s.normalized_comm.mean().to_string(),
            ],
        })
    }

    /// The result manifest the daemon must write for this job as job `id`.
    fn manifest(&self, id: u64) -> String {
        let r = &self.req;
        manifest_json(
            &r.cfg,
            r.seed,
            1,
            &[
                ("job", id.to_string()),
                ("name", format!("\"{}\"", json_escape(&r.name))),
                ("group", format!("\"{}\"", json_escape(&r.group))),
                ("trials", r.trials.to_string()),
                ("makespan_mean", self.means[0].clone()),
                ("total_blocks_mean", self.means[1].clone()),
                ("normalized_comm_mean", self.means[2].clone()),
            ],
        )
    }

    /// Submits the job to `d` and polls until it is done; returns the job
    /// id and the submit and submit-to-done times in seconds.
    fn run(&self, d: &Daemon, tr: &mut Tracer) -> Result<(u64, f64, f64), String> {
        let start = Instant::now();
        let reply = tr
            .span("serve.submit", |_| request(&d.socket, &self.submit))
            .map_err(|e| format!("submit: {e}"))?;
        let submit_s = start.elapsed().as_secs_f64();
        let id = u64_field(&reply, "job").ok_or(format!("submit refused: {reply}"))?;
        loop {
            let status = tr
                .span("serve.status", |_| request(&d.socket, STATUS))
                .map_err(|e| format!("status: {e}"))?;
            match job_state(&status, id) {
                Some(s) if s == JobState::Done.name() => break,
                Some(s) if s == JobState::Failed.name() => {
                    return Err(format!("job {id} failed: {status}"))
                }
                Some(_) => std::thread::sleep(POLL),
                None => return Err(format!("job {id} missing from status")),
            }
        }
        Ok((id, submit_s, start.elapsed().as_secs_f64()))
    }

    /// The daemon's manifest for job `id` must be byte-identical to the
    /// same spec run directly.
    fn check(&self, d: &Daemon, id: u64) -> Result<(), String> {
        let path = d.results.join(format!("job-{id}.json"));
        let got = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if got != self.manifest(id).as_bytes() {
            return Err(format!("job {id}: manifest differs from the direct run"));
        }
        Ok(())
    }
}

struct Serve {
    dir: PathBuf,
    job: Job,
    daemon: Option<Daemon>,
    lifetime: usize,
    jobs: usize,
}

impl Workload for Serve {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        if self.jobs == LIFETIME_JOBS || self.daemon.is_none() {
            if let Some(d) = self.daemon.take() {
                d.stop()?;
                // Removed before the kernel writes the files back, a
                // lifetime's files cost no disk writes.
                let _ = std::fs::remove_dir_all(self.dir.join(format!("life-{}", self.lifetime)));
            }
            self.lifetime += 1;
            self.jobs = 0;
            self.daemon = Some(Daemon::start(
                &self.dir.join(format!("life-{}", self.lifetime)),
            )?);
        }
        let d = self.daemon.as_ref().expect("daemon started");
        self.jobs += 1;
        let (id, submit_s, wall) = self.job.run(d, tr)?;
        if id != self.jobs as u64 {
            return Err(format!("daemon numbered job {} as {id}", self.jobs));
        }
        self.job.check(d, id)?;
        if tr.enabled() {
            let start = Instant::now();
            request(&d.socket, PING).map_err(|e| format!("ping: {e}"))?;
            tr.count("serve.ping_us", start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let r = &self.job.req;
            run_trials_with_threads(&r.cfg, r.trials, r.seed, Some(1));
            let run_s = start.elapsed().as_secs_f64();
            tr.count("serve.run_ms", run_s * 1e3);
            tr.count("serve.overhead_ms", (wall - submit_s - run_s) * 1e3);
        }
        let mut h = Fnv::new();
        h.bytes(self.job.manifest(0).as_bytes());
        Ok(OpOut {
            counters: Counters::from([("jobs", 1)]),
            digest: h.0,
            wall: Some(wall),
        })
    }
}

/// Set-up: a full daemon lifetime whose journal is then replayed, by the
/// benchmark and by a daemon restarted on it (crash-recovery start).
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let job = Job::new(ctx.seed)?;
    let warm = ctx.dir.join("warm");
    let d = Daemon::start(&warm)?;
    for i in 1..=LIFETIME_JOBS as u64 {
        let (id, _, _) = job.run(&d, tr)?;
        if id != i {
            return Err(format!("daemon numbered job {i} as {id}"));
        }
        job.check(&d, id)?;
    }
    let log = d.log.clone();
    let compactions = d.stop()?;
    tr.count("serve.compactions", compactions as f64);
    let jobs = tr
        .span("serve.replay", |_| replay(&log))
        .map_err(|e| format!("replay: {e}"))?;
    if jobs.len() != LIFETIME_JOBS || jobs.iter().any(|j| j.state != JobState::Done) {
        return Err("the replayed journal does not hold every job as done".into());
    }
    Daemon::start(&warm)?.stop()?;
    let _ = std::fs::remove_dir_all(&warm);
    Ok(Box::new(Serve {
        dir: ctx.dir.clone(),
        job,
        daemon: None,
        lifetime: 0,
        jobs: 0,
    }))
}
