//! End-to-end and per-layer benchmark of the hetsched workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 7 --seconds 10 --trace 0
//! ```
//!
//! One process drives one workload: it sets the workload up several times
//! (reporting the median as `setup_s`), then runs identical, checked
//! operations in a closed loop for `--seconds`. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` traced and
//! untraced operations alternate and the line carries the per-layer
//! metrics instead. `--pin-digests N` prints the output digests of seeds
//! `0..N` for every workload, the format of `digests.txt`.
//!
//! See `NOTES.md` for why each workload exists.

mod host;
mod serve;
mod sim;
mod trace;
mod warehouse;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{OpTrace, Tracer};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Uncounted operations between set-up and measurement.
const WARMUP_OPS: usize = 2;
/// Blocks of operations `op_ms_p95` is taken over (see `blocked_p95`).
const P95_BLOCKS: usize = 10;

/// Digests of every workload's checked output, per seed.
const PINNED: &str = include_str!("../digests.txt");

/// Deterministic work counters of one operation.
pub type Counters = BTreeMap<&'static str, u64>;

/// What one operation produced.
pub struct OpOut {
    pub counters: Counters,
    /// FNV-1a digest of the operation's output.
    pub digest: u64,
    /// The timed share of the call in seconds, when the operation times
    /// itself (serve: submit to done); `None` times the whole call.
    pub wall: Option<f64>,
}

/// A set-up workload: `op` runs one operation and checks its output,
/// returning `Err` when the check fails.
pub trait Workload {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String>;
}

pub struct Ctx {
    pub seed: u64,
    /// Scratch directory of this set-up, removed at exit.
    pub dir: PathBuf,
}

type SetupFn = fn(&Ctx, &mut Tracer) -> Result<Box<dyn Workload>, String>;

const WORKLOADS: &[(&str, SetupFn)] = &[
    ("campaign", sim::setup_campaign),
    ("networked", sim::setup_networked),
    ("warehouse", warehouse::setup),
    ("serve", serve::setup),
];

/// 64-bit FNV-1a, the digest of every checked output.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv::default()
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--pin-digests" => {
                args.pin = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--pin-digests: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.pin.is_none() && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The 95th percentile of each of `P95_BLOCKS` consecutive blocks of
/// operations (in run order), and the median of those. Slow spells of the
/// host last a fraction of a second and cluster in time; over a whole run
/// they decide the 95th percentile alone, while each block's percentile
/// still shows a tail that every operation has.
fn blocked_p95(walls: &[f64]) -> f64 {
    let per = (walls.len() / P95_BLOCKS).max(1);
    let p95s: Vec<f64> = walls
        .chunks(per)
        .filter(|block| block.len() == per)
        .map(|block| {
            let mut v = block.to_vec();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.95)
        })
        .collect();
    median(&p95s)
}

struct Reference {
    counters: Counters,
    digest: u64,
    /// Whether the digest matches the pinned one; `None` for a seed
    /// without a pinned digest.
    pinned: Option<bool>,
}

/// The last set-up's workload and reference output, with every set-up's
/// time and trace.
struct SetUp {
    workload: Box<dyn Workload>,
    reference: Reference,
    times: Vec<f64>,
    traces: Vec<OpTrace>,
}

/// Sets the workload up `SETUP_REPS` times in fresh directories, checking
/// each set-up's first operation against the pinned digest. Returns the
/// last workload, its reference output, the set-up times and traces.
fn set_up(
    name: &str,
    setup: SetupFn,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
) -> Result<SetUp, String> {
    let mut times = Vec::new();
    let mut traces = Vec::new();
    let mut last: Option<(Reference, Box<dyn Workload>)> = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let ctx = Ctx {
            seed,
            dir: work.join(format!("setup-{rep}")),
        };
        let mut w = setup(&ctx, tr)?;
        let setup_trace = tr.take();
        let out = w.op(tr)?;
        times.push(start.elapsed().as_secs_f64());
        tr.take();
        traces.push(setup_trace);
        let pinned = pinned_digest(name, seed).map(|pin| pin == out.digest);
        if pinned == Some(false) {
            eprintln!(
                "{name} seed {seed}: output digest {:016x} differs from the pinned one",
                out.digest
            );
        }
        if let Some((prev, _)) = &last {
            if prev.digest != out.digest || prev.counters != out.counters {
                return Err(format!("{name}: repeated set-ups disagree on the output"));
            }
        }
        // The previous set-up's workload is dropped here, which stops any
        // daemon it runs before the next one starts.
        last = Some((
            Reference {
                counters: out.counters,
                digest: out.digest,
                pinned,
            },
            w,
        ));
    }
    let (reference, workload) = last.expect("at least one set-up");
    Ok(SetUp {
        workload,
        reference,
        times,
        traces,
    })
}

struct Measured {
    attempted: u64,
    failed: u64,
    walls: Vec<f64>,
    untraced_walls: Vec<f64>,
    traces: Vec<(f64, OpTrace)>,
    elapsed: f64,
    cpu: f64,
}

/// Runs operations in a closed loop for `seconds`. With `traced`, even
/// operations are traced and odd ones are not.
fn measure(
    w: &mut dyn Workload,
    reference: &Reference,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
) -> Measured {
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        walls: Vec::new(),
        untraced_walls: Vec::new(),
        traces: Vec::new(),
        elapsed: 0.0,
        cpu: 0.0,
    };
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let tracing = traced && m.attempted.is_multiple_of(2);
        tr.set_enabled(tracing);
        let t = Instant::now();
        let res = w.op(tr);
        let call = t.elapsed().as_secs_f64();
        let op_trace = tr.take();
        m.attempted += 1;
        let wall = match res {
            Ok(out) => {
                if out.digest != reference.digest || out.counters != reference.counters {
                    eprintln!(
                        "operation {}: output differs from the reference",
                        m.attempted
                    );
                    m.failed += 1;
                }
                out.wall.unwrap_or(call)
            }
            Err(e) => {
                eprintln!("operation {}: {e}", m.attempted);
                m.failed += 1;
                call
            }
        };
        if tracing {
            m.traces.push((wall, op_trace));
            m.walls.push(wall);
        } else if traced {
            m.untraced_walls.push(wall);
        } else {
            m.walls.push(wall);
        }
    }
    m.elapsed = start.elapsed().as_secs_f64();
    m.cpu = host::cpu_seconds() - cpu0;
    m
}

/// How a per-layer metric is read off the traces.
enum Read {
    /// Self time of a layer, per operation.
    SelfMs(&'static str),
    /// Mean span length per call.
    NsPerCall(&'static str),
    MsPerCall(&'static str),
    /// Calls of a layer, per operation.
    Calls(&'static str),
    /// A counter, per operation.
    Count(&'static str),
}

/// Every per-layer metric: name, unit, whether it is read off the set-up
/// traces (else the operation traces), and how. A layer the workload
/// bypasses reads 0.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, bool, Read)] = &[
    ("platform.sample_ms", "ms", false, Read::SelfMs("platform.sample")),
    ("analysis.beta_ms", "ms", false, Read::SelfMs("analysis.beta")),
    ("outer.on_request_ns", "ns", false, Read::NsPerCall("outer.on_request")),
    ("outer.requests", "count", false, Read::Calls("outer.on_request")),
    ("matmul.on_request_ns", "ns", false, Read::NsPerCall("matmul.on_request")),
    ("matmul.requests", "count", false, Read::Calls("matmul.on_request")),
    ("sim.engine_self_ms", "ms", false, Read::SelfMs("sim.engine")),
    ("sim.events", "count", false, Read::Count("sim.events")),
    ("sim.net_engine_self_ms", "ms", false, Read::SelfMs("sim.net_engine")),
    ("net.blocks", "count", false, Read::Count("net.blocks")),
    ("net.returned_blocks", "count", false, Read::Count("net.returned_blocks")),
    ("net.max_queue_depth", "count", false, Read::Count("net.max_queue_depth")),
    ("core.plan_shards_ms", "ms", false, Read::SelfMs("core.plan_shards")),
    ("sim.tree_ms", "ms", false, Read::SelfMs("sim.tree")),
    ("sim.probe_overhead_pct", "%", false, Read::Count("sim.probe_overhead_pct")),
    ("sim.sink_ms", "ms", false, Read::SelfMs("sim.sink")),
    ("sim.trace_bytes", "bytes", false, Read::Count("sim.trace_bytes")),
    ("store.ingest.convert_ms", "ms", true, Read::SelfMs("store.ingest.convert")),
    ("store.ingest.rows_per_s", "1/s", true, Read::Count("store.ingest.rows_per_s")),
    ("store.compact_ms", "ms", true, Read::SelfMs("store.compact")),
    ("store.open_ms", "ms", false, Read::SelfMs("store.open")),
    ("store.query.point_ms", "ms", false, Read::SelfMs("store.query.point")),
    ("store.query.range_ms", "ms", false, Read::SelfMs("store.query.range")),
    ("store.query.groupby_ms", "ms", false, Read::SelfMs("store.query.groupby")),
    ("store.query.percentile_ms", "ms", false, Read::SelfMs("store.query.percentile")),
    ("store.render_ms", "ms", false, Read::SelfMs("store.render")),
    ("store.rows", "count", false, Read::Count("store.rows")),
    ("store.segments", "count", false, Read::Count("store.segments")),
    ("store.rows_out", "count", false, Read::Count("store.rows_out")),
    ("serve.ping_us", "us", false, Read::Count("serve.ping_us")),
    ("serve.submit_ms", "ms", false, Read::MsPerCall("serve.submit")),
    ("serve.status_ms", "ms", false, Read::MsPerCall("serve.status")),
    ("serve.run_ms", "ms", false, Read::Count("serve.run_ms")),
    ("serve.overhead_ms", "ms", false, Read::Count("serve.overhead_ms")),
    ("serve.compactions", "count", true, Read::Count("serve.compactions")),
    ("serve.replay_ms", "ms", true, Read::SelfMs("serve.replay")),
];

fn read(t: &OpTrace, how: &Read) -> f64 {
    match *how {
        Read::SelfMs(l) => t.self_ms(l),
        Read::NsPerCall(l) => t.ns_per_call(l),
        Read::MsPerCall(l) => t.ns_per_call(l) / 1e6,
        Read::Calls(l) => t.calls(l),
        Read::Count(c) => t.count(c),
    }
}

fn metric_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn counters_json(c: &Counters) -> String {
    let body: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let (name, setup) = *WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("validated workload");
    let mut tr = Tracer::new(args.trace);
    let SetUp {
        workload: mut w,
        reference,
        times: setup_times,
        traces: setup_traces,
    } = set_up(name, setup, args.seed, work, &mut tr)?;
    tr.set_enabled(false);
    for _ in 0..WARMUP_OPS {
        w.op(&mut tr)?;
    }
    let stat0 = host::cpu_stat();
    let m = measure(w.as_mut(), &reference, args.seconds, args.trace, &mut tr);
    let steal = host::steal_pct(&stat0, &host::cpu_stat());
    drop(w);

    let mut walls = m.walls.clone();
    walls.sort_by(f64::total_cmp);
    println!("{}", host::facts_json(steal));
    println!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"ops\": {}, \"digest\": \"{:016x}\", \"pinned\": {}, \"counters\": {}}}",
        args.seed,
        m.attempted,
        reference.digest,
        match reference.pinned {
            Some(true) => "\"match\"",
            Some(false) => "\"mismatch\"",
            None => "\"none\"",
        },
        counters_json(&reference.counters)
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let op_traces: Vec<&OpTrace> = m.traces.iter().map(|(_, t)| t).collect();
        let mut out: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|(metric, unit, from_setup, how)| {
                let values: Vec<f64> = if *from_setup {
                    setup_traces.iter().map(|t| read(t, how)).collect()
                } else {
                    op_traces.iter().map(|t| read(t, how)).collect()
                };
                (*metric, median(&values), *unit)
            })
            .collect();
        let coverage: Vec<f64> = m
            .traces
            .iter()
            .map(|(wall, t)| t.self_sum_ms() / (wall * 1e3))
            .collect();
        out.push(("coverage_ratio", median(&coverage), "ratio"));
        out.push((
            "trace_overhead_ms",
            (median(&m.walls) - median(&m.untraced_walls)) * 1e3,
            "ms",
        ));
        out
    } else {
        vec![
            ("setup_s", median(&setup_times), "s"),
            ("ops_per_s", m.attempted as f64 / m.elapsed, "1/s"),
            ("op_ms_p50", quantile(&walls, 0.5) * 1e3, "ms"),
            ("op_ms_p95", blocked_p95(&m.walls) * 1e3, "ms"),
            ("cpu_ms_per_op", m.cpu * 1e3 / m.attempted as f64, "ms"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0 && reference.pinned != Some(false),
        m.attempted,
        m.failed,
        metric_json(&metrics)
    );
    Ok(())
}

fn pin(seeds: u64, work: &Path) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    for (name, setup) in WORKLOADS {
        for seed in 0..seeds {
            let ctx = Ctx {
                seed,
                dir: work.join(format!("{name}-{seed}")),
            };
            let digest = setup(&ctx, &mut tr)?.op(&mut tr)?.digest;
            println!("{name} {seed} {digest:016x}");
            let _ = std::fs::remove_dir_all(&ctx.dir);
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Relative, so that socket paths stay short wherever the checkout is.
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let res = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| match args.pin {
            Some(seeds) => pin(seeds, &work),
            None => run(&args, &work),
        });
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    if let Ok(d) = std::fs::File::open(".") {
        let _ = d.sync_all();
    }
    if let Err(e) = res {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
