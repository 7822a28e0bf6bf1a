//! The `warehouse` workload: the trace-analytics store's write path in
//! set-up, its read path in every operation.
//!
//! Set-up ingests a seeded synthetic probe campaign plus rows converted
//! from real runs (trial reports, a probe series and a streamed JSONL
//! trace), one segment per batch, then compacts. Each operation opens the
//! store afresh and runs four single-threaded queries over it: a pruned
//! point lookup, a range filter, a full group-by and a percentile
//! group-by. Every result is compared with a naive in-memory evaluation
//! of the same rows.

use crate::trace::Tracer;
use crate::{Counters, Ctx, Fnv, OpOut, Workload};
use hetsched_core::{
    run_once_observed, run_trials_collected, stream_trace, BetaChoice, ExperimentConfig, Kernel,
    NetworkModel, Strategy, TraceFormat,
};
use hetsched_sim::ProbeConfig;
use hetsched_store::{
    build_query, column_index, probe_rows, report_rows, run_query_with, trace_jsonl_rows, Query,
    QueryResult, Row, RunKey, Store, Value, CHUNK_ROWS,
};
use hetsched_util::rng::derive_seed;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Synthetic campaign shape: runs × samples × workers probe rows.
const RUNS: usize = 40;
const SAMPLES: usize = 250;
const WORKERS: usize = 16;
const STRATEGIES: [&str; 8] = [
    "RandomOuter",
    "SortedOuter",
    "DynamicOuter",
    "DynamicOuter2Phases",
    "RandomMatrix",
    "SortedMatrix",
    "DynamicMatrix",
    "DynamicMatrix2Phases",
];

/// splitmix64: the synthetic rows' generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One batch per synthetic run.
fn synthetic_batches(seed: u64) -> Vec<Vec<Row>> {
    let mut rng = Mix(seed);
    (0..RUNS)
        .map(|run| {
            let run_id = format!("run-{run}");
            let config = format!("{:016x}", rng.next());
            let strategy = STRATEGIES[run % STRATEGIES.len()];
            let mut rows = Vec::with_capacity(SAMPLES * WORKERS);
            for s in 0..SAMPLES {
                for w in 0..WORKERS {
                    let mut r = Row::new("synthetic", &run_id, "probe", &config);
                    r.strategy = strategy.to_string();
                    r.metric = "sample".to_string();
                    r.seed = seed;
                    r.worker = w as i64;
                    r.t = s as f64 * 0.25;
                    r.events = (s * WORKERS + w) as u64;
                    r.remaining = ((SAMPLES - s) * 40) as u64;
                    r.blocks = rng.next() % 200;
                    r.tasks = rng.next() % 500;
                    r.useful = rng.unit();
                    r.value = rng.unit() * 10.0;
                    r.link_busy = rng.unit();
                    r.queue_depth = rng.next() % 8;
                    r.beta = 2.0 + rng.unit();
                    rows.push(r);
                }
            }
            rows
        })
        .collect()
}

/// Inputs of the converted batches: a small real campaign, a probed run
/// and its streamed JSONL trace.
struct RealRuns {
    campaign_cfg: ExperimentConfig,
    results: Vec<hetsched_core::RunResult>,
    probe_cfg: ExperimentConfig,
    probed: hetsched_core::ObservedRun,
    trace_jsonl: String,
}

fn real_runs(seed: u64) -> Result<RealRuns, String> {
    let campaign_cfg = ExperimentConfig {
        kernel: Kernel::Outer { n: 40 },
        strategy: Strategy::Dynamic,
        processors: 10,
        ..Default::default()
    };
    let (results, _) = run_trials_collected(&campaign_cfg, 4, seed, Some(1));
    let probe_cfg = ExperimentConfig {
        kernel: Kernel::Outer { n: 60 },
        strategy: Strategy::TwoPhase(BetaChoice::Analytic),
        processors: 20,
        network: NetworkModel::OnePort { master_bw: 600.0 },
        ..Default::default()
    };
    let probed = run_once_observed(&probe_cfg, seed, ProbeConfig::by_events(4));
    let mut trace = Vec::new();
    stream_trace(
        &probe_cfg,
        seed,
        ProbeConfig::by_events(8),
        TraceFormat::Jsonl,
        4096,
        &mut trace,
    )
    .map_err(|e| format!("stream_trace: {e}"))?;
    let trace_jsonl = String::from_utf8(trace).map_err(|e| format!("trace is not UTF-8: {e}"))?;
    Ok(RealRuns {
        campaign_cfg,
        results,
        probe_cfg,
        probed,
        trace_jsonl,
    })
}

/// Converts the real runs into store rows, one batch per source.
fn converted_batches(seed: u64, real: &RealRuns) -> Result<Vec<Vec<Row>>, String> {
    let cfg = &real.campaign_cfg;
    let key = RunKey::new("real", "campaign", seed, cfg);
    let label = cfg.strategy.label(cfg.kernel);
    let mut reports = Vec::new();
    for (i, r) in real.results.iter().enumerate() {
        reports.extend(report_rows(&key, label, i, derive_seed(seed, i as u64), r));
    }
    let pcfg = &real.probe_cfg;
    let pkey = RunKey::new("real", "probed", seed, pcfg);
    let beta = real.probed.result.beta_used.unwrap_or(f64::NAN);
    let probes = probe_rows(
        &pkey,
        pcfg.strategy.label(pcfg.kernel),
        beta,
        &real.probed.probes,
    );
    let trace = trace_jsonl_rows("real-trace", &real.trace_jsonl)?;
    Ok(vec![reports, probes, trace])
}

/// The operation's four queries: name, span, and the query itself.
fn queries() -> Result<Vec<(&'static str, &'static str, Query)>, String> {
    Ok(vec![
        (
            "point",
            "store.query.point",
            build_query(
                Some("t,blocks,tasks,useful"),
                Some("run=run-17,worker=3"),
                None,
                None,
                None,
            )?,
        ),
        (
            "range",
            "store.query.range",
            build_query(
                Some("run,worker,t,value"),
                Some("t=10..20,value=2.5..4"),
                None,
                None,
                None,
            )?,
        ),
        (
            "groupby",
            "store.query.groupby",
            build_query(
                None,
                None,
                Some("strategy,worker"),
                Some("count,mean(useful),min(blocks),max(tasks),sum(value)"),
                None,
            )?,
        ),
        (
            "percentile",
            "store.query.percentile",
            build_query(
                None,
                Some("kind=probe"),
                Some("strategy"),
                Some("p50(useful),p95(value),p99(blocks)"),
                None,
            )?,
        ),
    ])
}

fn get(r: &Row, col: &str) -> Value {
    r.get(column_index(col).expect("known column"))
}

fn num(r: &Row, col: &str) -> f64 {
    get(r, col).as_f64().unwrap_or(f64::NAN)
}

/// Half-open numeric range predicate; NaN matches nothing.
fn in_range(x: f64, lo: f64, hi: f64) -> bool {
    x >= lo && x < hi
}

fn nearest_rank(mut v: Vec<f64>, p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.max(1) - 1]
}

fn non_nan(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    xs.filter(|x| !x.is_nan()).collect()
}

/// A naive in-memory evaluation of the four queries; aggregate cells are
/// `(value, exact)`, inexact for sums and means, whose float rounding
/// depends on the scan order.
fn naive(rows: &[&Row]) -> Vec<Vec<Vec<(Value, bool)>>> {
    let exact = |v: Value| (v, true);
    let project = |r: &Row, cols: &[&str]| cols.iter().map(|c| exact(get(r, c))).collect();

    let point = rows
        .iter()
        .filter(|r| r.run == "run-17" && r.worker == 3)
        .map(|r| project(r, &["t", "blocks", "tasks", "useful"]))
        .collect();
    let range = rows
        .iter()
        .filter(|r| in_range(r.t, 10.0, 20.0) && in_range(r.value, 2.5, 4.0))
        .map(|r| project(r, &["run", "worker", "t", "value"]))
        .collect();

    let mut groups: BTreeMap<(String, i64), Vec<&Row>> = BTreeMap::new();
    for &r in rows {
        groups
            .entry((r.strategy.clone(), r.worker))
            .or_default()
            .push(r);
    }
    let groupby = groups
        .into_iter()
        .map(|((strategy, worker), g)| {
            let useful = non_nan(g.iter().map(|r| num(r, "useful")));
            let value = non_nan(g.iter().map(|r| num(r, "value")));
            let blocks = non_nan(g.iter().map(|r| num(r, "blocks")));
            let tasks = non_nan(g.iter().map(|r| num(r, "tasks")));
            let mean = if useful.is_empty() {
                f64::NAN
            } else {
                useful.iter().sum::<f64>() / useful.len() as f64
            };
            let fold = |v: &[f64], f: fn(f64, f64) -> f64| v.iter().copied().reduce(f);
            vec![
                exact(Value::Str(strategy)),
                exact(Value::I64(worker)),
                exact(Value::F64(g.len() as f64)),
                (Value::F64(mean), false),
                exact(Value::F64(fold(&blocks, f64::min).unwrap_or(f64::NAN))),
                exact(Value::F64(fold(&tasks, f64::max).unwrap_or(f64::NAN))),
                (Value::F64(value.iter().sum()), false),
            ]
        })
        .collect();

    let mut by_strategy: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
    for &r in rows.iter().filter(|r| r.kind == "probe") {
        by_strategy.entry(r.strategy.clone()).or_default().push(r);
    }
    let percentile = by_strategy
        .into_iter()
        .map(|(strategy, g)| {
            let col = |c: &str| non_nan(g.iter().map(|r| num(r, c)));
            vec![
                exact(Value::Str(strategy)),
                exact(Value::F64(nearest_rank(col("useful"), 50.0))),
                exact(Value::F64(nearest_rank(col("value"), 95.0))),
                exact(Value::F64(nearest_rank(col("blocks"), 99.0))),
            ]
        })
        .collect();
    vec![point, range, groupby, percentile]
}

fn cell_matches(got: &Value, (want, exact): &(Value, bool)) -> bool {
    match (got, want) {
        (Value::F64(a), Value::F64(b)) if !exact => {
            (a.is_nan() && b.is_nan()) || (a - b).abs() <= 1e-9 * b.abs().max(1.0)
        }
        (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
        _ => got == want,
    }
}

/// Compares a query result with its naive evaluation. Projections are
/// compared as row sets (scan order follows the segment layout); groups
/// come out in key order on both sides.
fn check(name: &str, res: &QueryResult, want: &[Vec<(Value, bool)>]) -> Result<(), String> {
    let sort_key = |cells: Vec<String>| cells.join(",");
    let mut got: Vec<&Vec<Value>> = res.rows.iter().collect();
    let mut want: Vec<&Vec<(Value, bool)>> = want.iter().collect();
    if name == "point" || name == "range" {
        got.sort_by_key(|r| sort_key(r.iter().map(Value::render_csv).collect()));
        want.sort_by_key(|r| sort_key(r.iter().map(|(v, _)| v.render_csv()).collect()));
    }
    if got.len() != want.len() {
        return Err(format!(
            "{name} query: {} rows, the naive evaluation gives {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w.iter()).all(|(a, b)| cell_matches(a, b)) {
            return Err(format!(
                "{name} query: row {i} differs from the naive evaluation"
            ));
        }
    }
    Ok(())
}

struct Warehouse {
    dir: PathBuf,
    queries: Vec<(&'static str, &'static str, Query)>,
    expected: Vec<Vec<Vec<(Value, bool)>>>,
    /// Rendered output of the first operation, once it matched the naive
    /// evaluation, and its digest; later operations must reproduce it.
    reference: Option<(Vec<String>, u64)>,
}

impl Workload for Warehouse {
    fn op(&mut self, tr: &mut Tracer) -> Result<OpOut, String> {
        let (store, rows, segments) = tr.span("store.open", |_| -> Result<_, String> {
            let store = Store::open(&self.dir).map_err(|e| format!("open store: {e}"))?;
            let rows = store.total_rows()?;
            let segments = store
                .segment_paths()
                .map_err(|e| format!("list segments: {e}"))?
                .len();
            Ok((store, rows, segments))
        })?;
        let mut results = Vec::with_capacity(self.queries.len());
        for (name, layer, q) in &self.queries {
            let res = tr.span(layer, |_| run_query_with(&store, q, Some(1)))?;
            results.push((*name, res));
        }
        let rendered = tr.span("store.render", |_| {
            results
                .iter()
                .map(|(_, r)| r.to_csv() + &r.to_jsonl())
                .collect::<Vec<String>>()
        });
        let digest = match &self.reference {
            Some((reference, digest)) if *reference == rendered => *digest,
            Some(_) => return Err("query output differs from the checked first operation".into()),
            None => {
                for ((name, res), want) in results.iter().zip(&self.expected) {
                    check(name, res, want)?;
                }
                let mut h = Fnv::new();
                rendered.iter().for_each(|r| h.bytes(r.as_bytes()));
                self.reference = Some((rendered, h.0));
                h.0
            }
        };
        let rows_out: usize = results.iter().map(|(_, r)| r.rows.len()).sum();
        tr.count("store.rows", rows as f64);
        tr.count("store.segments", segments as f64);
        tr.count("store.rows_out", rows_out as f64);
        Ok(OpOut {
            counters: Counters::from([
                ("rows", rows as u64),
                ("segments", segments as u64),
                ("rows_out", rows_out as u64),
            ]),
            digest,
            wall: None,
        })
    }
}

pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let dir = ctx.dir.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| format!("open store: {e}"))?;
    let real = real_runs(ctx.seed)?;
    let mut batches = synthetic_batches(ctx.seed);
    let converted = tr.span("store.ingest.convert", |_| {
        converted_batches(ctx.seed, &real)
    })?;
    batches.extend(converted);
    let expected = naive(&batches.iter().flatten().collect::<Vec<&Row>>());
    let total: usize = batches.iter().map(Vec::len).sum();

    let mut committed = 0usize;
    let mut commit_ns = 0u64;
    for batch in batches {
        committed += batch.len();
        let start = std::time::Instant::now();
        tr.span("store.ingest.commit", |_| {
            let mut b = store.batch();
            b.push_all(batch);
            b.commit()
        })?;
        commit_ns += start.elapsed().as_nanos() as u64;
    }
    tr.count(
        "store.ingest.rows_per_s",
        committed as f64 / (commit_ns as f64 / 1e9),
    );
    let report = tr.span("store.compact", |_| store.compact(CHUNK_ROWS))?;
    if report.rows != total || report.segments_after != 1 {
        return Err(format!(
            "compaction merged {} rows into {} segments, expected {total} rows in 1",
            report.rows, report.segments_after
        ));
    }
    Ok(Box::new(Warehouse {
        dir,
        queries: queries()?,
        expected,
        reference: None,
    }))
}
