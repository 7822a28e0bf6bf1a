//! Ingest: mapping every artifact the workspace produces onto warehouse
//! rows.
//!
//! All sources land in the one wide schema keyed by `(campaign, run,
//! config)`; the config key is the FNV-1a hash of the run's
//! `config_json` rendering, so a manifest read back from a trace file
//! hashes to the same key as the in-process `ExperimentConfig` that wrote
//! it. Row layouts per source:
//!
//! * **probe** — one row per `(sample, worker)`: shared `t` / `events` /
//!   `remaining` / `link_busy` / `queue_depth`, per-worker `blocks` /
//!   `tasks` / `useful`.
//! * **report** — one row per `(trial, metric)` with `t` = trial index
//!   and `seed` = the trial's derived seed, plus per-worker
//!   `worker_blocks` / `worker_tasks` rows.
//! * **summary** — one row per campaign-level statistic (`value` = mean,
//!   `sigma` = standard deviation).
//! * **figure** — one row per CSV point (`series` = plotted series,
//!   `t` = x, `value` = mean, `sigma` = std dev).
//! * **bench** — one row per numeric leaf of a `BENCH_*.json` snapshot,
//!   `metric` = the dotted path, `series` = the snapshot date.
//! * **serve** — one row per event-log line, `metric` = the event name.
//! * **trace** — the manifest/probe/event lines of a JSONL trace;
//!   events are aggregated to per-kind counts.

use hetsched_core::{config_json, ExperimentConfig, RunResult, TrialSummary};
use hetsched_sim::ProbeSeries;
use hetsched_util::OnlineStats;

use crate::json::{extract_num, extract_object, extract_str, extract_u64, flatten_numbers};
use crate::schema::Row;
use crate::store::fnv1a64;

/// The identity of one ingested run.
#[derive(Clone, Debug)]
pub struct RunKey {
    pub campaign: String,
    pub run: String,
    pub seed: u64,
    /// 16-hex-digit FNV-1a of the run's `config_json`.
    pub config: String,
}

impl RunKey {
    pub fn new(campaign: &str, run: &str, seed: u64, cfg: &ExperimentConfig) -> RunKey {
        RunKey {
            campaign: campaign.to_string(),
            run: run.to_string(),
            seed,
            config: config_hash(cfg),
        }
    }
}

/// The store's config key: FNV-1a over the canonical `config_json`
/// rendering. Seed-independent and `tree_threads`-independent, so every
/// run of the same experiment shares one key.
pub fn config_hash(cfg: &ExperimentConfig) -> String {
    format!("{:016x}", fnv1a64(config_json(cfg).as_bytes()))
}

/// The run id `simulate --store` uses: derived from seed and trial count
/// so re-running the same invocation dedupes.
pub fn sim_run_id(seed: u64, trials: usize) -> String {
    format!("sim-{seed:x}-t{trials}")
}

fn keyed(key: &RunKey, kind: &str, strategy: &str) -> Row {
    let mut r = Row::new(&key.campaign, &key.run, kind, &key.config);
    r.seed = key.seed;
    r.strategy = strategy.to_string();
    r
}

/// Probe series → one row per `(sample, worker)`.
pub fn probe_rows(key: &RunKey, strategy: &str, beta: f64, probes: &ProbeSeries) -> Vec<Row> {
    let mut rows = Vec::with_capacity(probes.len() * probes.workers());
    for s in probes.iter() {
        for w in 0..s.blocks_per_proc.len() {
            let mut r = keyed(key, "probe", strategy);
            r.metric = "sample".to_string();
            r.worker = w as i64;
            r.t = s.time;
            r.events = s.events;
            r.remaining = s.remaining as u64;
            r.blocks = s.blocks_per_proc[w];
            r.tasks = s.tasks_per_proc[w];
            r.useful = s.useful_fraction[w];
            r.link_busy = s.link_busy;
            r.queue_depth = s.queue_depth as u64;
            r.beta = beta;
            rows.push(r);
        }
    }
    rows
}

/// One trial's [`RunResult`] → per-metric rows plus per-worker rows.
pub fn report_rows(
    key: &RunKey,
    strategy: &str,
    trial_idx: usize,
    trial_seed: u64,
    r: &RunResult,
) -> Vec<Row> {
    let beta = r.beta_used.unwrap_or(f64::NAN);
    let metrics: &[(&str, f64)] = &[
        ("makespan", r.makespan),
        ("total_blocks", r.total_blocks as f64),
        ("normalized_comm", r.normalized_comm),
        ("lower_bound", r.lower_bound),
        ("lost_tasks", r.lost_tasks as f64),
        ("reshipped_blocks", r.reshipped_blocks as f64),
        ("link_utilization", r.link_utilization),
        ("max_queue_depth", r.max_queue_depth as f64),
        ("wasted_blocks", r.wasted_blocks as f64),
        ("tier_blocks", r.tier_blocks as f64),
        ("returned_blocks", r.returned_blocks as f64),
        ("transfer_wait", r.transfer_wait_per_proc.iter().sum()),
    ];
    let mut rows = Vec::with_capacity(metrics.len() + 2 * r.blocks_per_proc.len());
    for (name, value) in metrics {
        let mut row = keyed(key, "report", strategy);
        row.seed = trial_seed;
        row.metric = name.to_string();
        row.t = trial_idx as f64;
        row.value = *value;
        row.beta = beta;
        rows.push(row);
    }
    for w in 0..r.blocks_per_proc.len() {
        for (name, v) in [
            ("worker_blocks", r.blocks_per_proc[w]),
            ("worker_tasks", r.tasks_per_proc[w]),
        ] {
            let mut row = keyed(key, "report", strategy);
            row.seed = trial_seed;
            row.metric = name.to_string();
            row.t = trial_idx as f64;
            row.worker = w as i64;
            row.value = v as f64;
            row.blocks = r.blocks_per_proc[w];
            row.tasks = r.tasks_per_proc[w];
            row.beta = beta;
            rows.push(row);
        }
    }
    rows
}

/// Campaign-level [`TrialSummary`] → one row per statistic.
pub fn summary_rows(key: &RunKey, strategy: &str, summary: &TrialSummary) -> Vec<Row> {
    let stats: &[(&str, &OnlineStats)] = &[
        ("makespan", &summary.makespan),
        ("total_blocks", &summary.total_blocks),
        ("normalized_comm", &summary.normalized_comm),
        ("beta_used", &summary.beta_used),
        ("lost_tasks", &summary.lost_tasks),
        ("reshipped_blocks", &summary.reshipped_blocks),
        ("transfer_wait", &summary.transfer_wait),
        ("link_utilization", &summary.link_utilization),
        ("returned_blocks", &summary.returned_blocks),
    ];
    let mut rows = Vec::with_capacity(stats.len() + 1);
    for (name, s) in stats {
        let mut row = keyed(key, "summary", strategy);
        row.metric = name.to_string();
        row.value = s.mean();
        row.sigma = s.std_dev();
        rows.push(row);
    }
    let mut trials = keyed(key, "summary", strategy);
    trials.metric = "trials".to_string();
    trials.value = summary.trials as f64;
    rows.push(trials);
    rows
}

/// A figure CSV (`figure,series,x,mean,std_dev`) → one row per point.
/// Each figure id becomes its own run; the config key is the content
/// hash of the CSV, so re-ingesting the identical file dedupes.
pub fn figure_csv_rows(campaign: &str, csv: &str) -> Result<Vec<Row>, String> {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or("");
    if header != "figure,series,x,mean,std_dev" {
        return Err(format!(
            "not a figure CSV: expected header \"figure,series,x,mean,std_dev\", got {header:?}"
        ));
    }
    let config = format!("{:016x}", fnv1a64(csv.as_bytes()));
    let mut rows = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.splitn(5, ',').collect();
        if parts.len() != 5 {
            return Err(format!(
                "figure CSV line {}: expected 5 fields, got {}",
                lineno + 2,
                parts.len()
            ));
        }
        let parse = |s: &str, what: &str| -> Result<f64, String> {
            s.parse()
                .map_err(|_| format!("figure CSV line {}: bad {what} {s:?}", lineno + 2))
        };
        let mut r = Row::new(campaign, parts[0], "figure", &config);
        r.metric = parts[0].to_string();
        r.series = parts[1].to_string();
        r.strategy = parts[1].to_string();
        r.t = parse(parts[2], "x")?;
        r.value = parse(parts[3], "mean")?;
        r.sigma = parse(parts[4], "std_dev")?;
        rows.push(r);
    }
    Ok(rows)
}

/// A `BENCH_*.json` snapshot → one row per numeric leaf.
pub fn bench_rows(campaign: &str, text: &str) -> Result<Vec<Row>, String> {
    let date = extract_str(text, "date").unwrap_or_else(|| "undated".to_string());
    let config = format!("{:016x}", fnv1a64(text.as_bytes()));
    let run = format!("bench-{date}");
    let flat = flatten_numbers(text.trim())?;
    Ok(flat
        .into_iter()
        .map(|(path, value)| {
            let mut r = Row::new(campaign, &run, "bench", &config);
            r.metric = path;
            r.series = date.clone();
            r.value = value;
            r
        })
        .collect())
}

/// A `hetsched serve` event log → one row per line. The config key is
/// the content hash of the whole log, so ingest a log once, after
/// `drain` — a longer log from the same daemon hashes to a new key.
pub fn serve_log_rows(campaign: &str, text: &str) -> Result<Vec<Row>, String> {
    let config = format!("{:016x}", fnv1a64(text.as_bytes()));
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = extract_str(line, "event")
            .ok_or_else(|| format!("serve log line {}: no \"event\" field in {line:?}", i + 1))?;
        let run = match extract_u64(line, "job") {
            Some(id) => format!("job-{id}"),
            None => "daemon".to_string(),
        };
        let mut r = Row::new(campaign, &run, "serve", &config);
        r.metric = event.clone();
        r.t = i as f64;
        r.value = extract_num(line, "makespan_mean").unwrap_or(f64::NAN);
        if let Some(name) = extract_str(line, "name") {
            r.series = name;
        }
        rows.push(r);
        if event == "done" {
            for field in ["total_blocks_mean", "normalized_comm_mean"] {
                if let Some(v) = extract_num(line, field) {
                    let mut extra = Row::new(campaign, &run, "serve", &config);
                    extra.metric = format!("done.{field}");
                    extra.t = i as f64;
                    extra.value = v;
                    rows.push(extra);
                }
            }
        }
    }
    Ok(rows)
}

fn parse_u64_array(line: &str, key: &str) -> Vec<u64> {
    match extract_object(line, key) {
        Some(arr) => arr[1..arr.len() - 1]
            .split(',')
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        None => Vec::new(),
    }
}

fn parse_f64_array(line: &str, key: &str) -> Vec<f64> {
    match extract_object(line, key) {
        Some(arr) => arr[1..arr.len() - 1]
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse().unwrap_or(f64::NAN))
            .collect(),
        None => Vec::new(),
    }
}

/// A JSONL trace (manifest line, event lines, probe lines) → probe rows
/// plus per-event-kind count rows. The run key comes from the embedded
/// manifest: seed from its `seed` field, config from hashing its
/// `config` object — which is the same `config_json` rendering the
/// in-process ingests hash, so a re-ingested trace lands under the same
/// config key as the run that wrote it.
pub fn trace_jsonl_rows(campaign: &str, text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().ok_or_else(|| "empty trace file".to_string())?;
    if !first.starts_with("{\"type\":\"manifest\"") {
        return Err(
            "trace JSONL must start with its manifest line; was this trace written by \
             --trace-format jsonl?"
                .to_string(),
        );
    }
    let manifest = extract_object(first, "manifest")
        .ok_or_else(|| "trace manifest line has no manifest object".to_string())?;
    let seed =
        extract_u64(manifest, "seed").ok_or_else(|| "trace manifest has no seed".to_string())?;
    let config_obj = extract_object(manifest, "config")
        .ok_or_else(|| "trace manifest has no config object".to_string())?;
    let config = format!("{:016x}", fnv1a64(config_obj.as_bytes()));
    let strategy = extract_str(config_obj, "strategy").unwrap_or_default();
    let key = RunKey {
        campaign: campaign.to_string(),
        run: format!("trace-{seed:x}"),
        seed,
        config,
    };

    let mut rows = Vec::new();
    let mut manifest_row = keyed(&key, "trace", &strategy);
    manifest_row.metric = "manifest".to_string();
    manifest_row.value = 1.0;
    rows.push(manifest_row);

    let mut event_counts: std::collections::BTreeMap<String, u64> = Default::default();
    let mut max_t = f64::NAN;
    for line in lines {
        if line.starts_with("{\"type\":\"probe\"") {
            let blocks = parse_u64_array(line, "blocks");
            let tasks = parse_u64_array(line, "tasks");
            let useful = parse_f64_array(line, "useful");
            for (w, &wb) in blocks.iter().enumerate() {
                let mut r = keyed(&key, "probe", &strategy);
                r.metric = "sample".to_string();
                r.worker = w as i64;
                r.t = extract_num(line, "t").unwrap_or(f64::NAN);
                r.events = extract_u64(line, "events").unwrap_or(0);
                r.remaining = extract_u64(line, "remaining").unwrap_or(0);
                r.blocks = wb;
                r.tasks = *tasks.get(w).unwrap_or(&0);
                r.useful = *useful.get(w).unwrap_or(&f64::NAN);
                r.link_busy = extract_num(line, "link_busy").unwrap_or(f64::NAN);
                r.queue_depth = extract_u64(line, "queue_depth").unwrap_or(0);
                rows.push(r);
            }
        } else if line.starts_with("{\"type\":\"event\"") {
            let kind = extract_str(line, "kind").unwrap_or_else(|| "unknown".to_string());
            *event_counts.entry(kind).or_insert(0) += 1;
            if let Some(t) = extract_num(line, "t") {
                max_t = if max_t.is_nan() { t } else { max_t.max(t) };
            }
        } else {
            return Err(format!("unrecognized trace line: {line:?}"));
        }
    }
    for (kind, count) in event_counts {
        let mut r = keyed(&key, "trace", &strategy);
        r.metric = format!("events.{kind}");
        r.value = count as f64;
        r.t = max_t;
        rows.push(r);
    }
    Ok(rows)
}

/// What one text artifact looks like, and the rows it maps to. This is
/// the `hetsched ingest` entry point: detection by shape, not by file
/// name.
pub fn rows_for_text(campaign: &str, text: &str) -> Result<(Vec<Row>, &'static str), String> {
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    if first.starts_with("{\"type\":\"manifest\"") {
        return Ok((trace_jsonl_rows(campaign, text)?, "trace"));
    }
    if first.starts_with('[') {
        return Err(
            "this looks like a Chrome trace; only JSONL traces are ingestible — re-render \
             with --trace-format jsonl"
                .to_string(),
        );
    }
    if first == "figure,series,x,mean,std_dev" {
        return Ok((figure_csv_rows(campaign, text)?, "figure"));
    }
    if first.starts_with('{') && extract_str(first, "event").is_some() {
        return Ok((serve_log_rows(campaign, text)?, "serve"));
    }
    if first.starts_with('{') {
        // A `BENCH_*.json` snapshot is one pretty-printed object, so its
        // `"date"` field sits a line or two below the opening brace.
        let head: Vec<&str> = text.lines().take(5).collect();
        if extract_str(&head.join("\n"), "date").is_some() {
            return Ok((bench_rows(campaign, text)?, "bench"));
        }
    }
    Err(
        "unrecognized artifact: expected a JSONL trace (manifest first line), a figure CSV \
         (figure,series,x,mean,std_dev header), a serve event log, or a BENCH_*.json snapshot"
            .to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_core::{run_once, Kernel, Strategy};
    use hetsched_sim::ProbeConfig;

    fn cfg() -> ExperimentConfig {
        let c = ExperimentConfig {
            kernel: Kernel::Outer { n: 20 },
            strategy: Strategy::Dynamic,
            processors: 4,
            ..Default::default()
        };
        c.validate().unwrap();
        c
    }

    #[test]
    fn config_hash_is_seed_independent_and_strategy_sensitive() {
        let c = cfg();
        assert_eq!(config_hash(&c), config_hash(&c));
        assert_eq!(config_hash(&c).len(), 16);
        let mut other = cfg();
        other.strategy = Strategy::Random;
        assert_ne!(config_hash(&c), config_hash(&other));
    }

    #[test]
    fn report_rows_carry_trial_metrics_and_workers() {
        let c = cfg();
        let r = run_once(&c, 7);
        let key = RunKey::new("camp", "run", 7, &c);
        let rows = report_rows(&key, c.strategy.label(c.kernel), 0, 7, &r);
        let makespan = rows.iter().find(|row| row.metric == "makespan").unwrap();
        assert_eq!(makespan.value, r.makespan);
        assert_eq!(makespan.kind, "report");
        let workers = rows
            .iter()
            .filter(|row| row.metric == "worker_blocks")
            .count();
        assert_eq!(workers, 4);
        assert!(rows.iter().all(|row| row.config == key.config));
    }

    #[test]
    fn probe_rows_expand_per_worker() {
        let c = cfg();
        let obs = hetsched_core::run_once_observed(&c, 7, ProbeConfig::by_events(8));
        let key = RunKey::new("camp", "run", 7, &c);
        let rows = probe_rows(&key, "d", f64::NAN, &obs.probes);
        assert_eq!(rows.len(), obs.probes.len() * 4);
        let last = obs.probes.last().unwrap();
        let tail = &rows[rows.len() - 4..];
        for (w, row) in tail.iter().enumerate() {
            assert_eq!(row.worker, w as i64);
            assert_eq!(row.blocks, last.blocks_per_proc[w]);
            assert_eq!(row.t, last.time);
        }
    }

    #[test]
    fn trace_round_trip_reproduces_probe_rows() {
        // A rendered JSONL trace re-ingests to the same probe rows the
        // in-process path produces (per-f64-bit, via the sink's
        // shortest-round-trip float formatting).
        let c = cfg();
        let obs = hetsched_core::run_once_observed(&c, 7, ProbeConfig::by_events(8));
        let text = hetsched_core::render_trace(
            &c,
            7,
            ProbeConfig::by_events(8),
            hetsched_core::TraceFormat::Jsonl,
        );
        let rows = trace_jsonl_rows("camp", &text).unwrap();
        // Config key matches the in-process hash.
        assert!(rows.iter().all(|r| r.config == config_hash(&c)));
        assert!(rows.iter().all(|r| r.run == "trace-7"));
        let probe: Vec<&Row> = rows.iter().filter(|r| r.kind == "probe").collect();
        let direct = probe_rows(
            &RunKey::new("camp", "trace-7", 7, &c),
            c.strategy.label(c.kernel),
            f64::NAN,
            &obs.probes,
        );
        assert_eq!(probe.len(), direct.len());
        for (a, b) in probe.iter().zip(&direct) {
            assert_eq!(a.worker, b.worker);
            assert_eq!(a.blocks, b.blocks);
            assert_eq!(a.tasks, b.tasks);
            assert_eq!(a.t.to_bits(), b.t.to_bits(), "t mismatch");
            assert_eq!(a.events, b.events);
        }
        // Event counts cover the run's allocations.
        assert!(rows
            .iter()
            .any(|r| r.kind == "trace" && r.metric.starts_with("events.")));
    }

    #[test]
    fn figure_csv_rows_parse_and_reject() {
        let csv = "figure,series,x,mean,std_dev\nfig2,Random,10,1.5,0.1\nfig2,Dynamic,10,1.2,0\n";
        let rows = figure_csv_rows("figs", csv).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].run, "fig2");
        assert_eq!(rows[0].series, "Random");
        assert_eq!(rows[0].t, 10.0);
        assert_eq!(rows[1].value, 1.2);
        assert!(figure_csv_rows("figs", "wrong,header\n1,2\n").is_err());
        assert!(figure_csv_rows("figs", "figure,series,x,mean,std_dev\na,b,xx,1,2\n").is_err());
    }

    #[test]
    fn serve_log_rows_key_jobs_and_surface_done_metrics() {
        let log = concat!(
            "{\"event\":\"daemon_start\",\"policy\":\"fifo\"}\n",
            "{\"event\":\"submitted\",\"job\":1,\"name\":\"a\"}\n",
            "{\"event\":\"done\",\"job\":1,\"makespan_mean\":2.5,\"total_blocks_mean\":100,\"normalized_comm_mean\":1.1}\n",
        );
        let rows = serve_log_rows("serve", log).unwrap();
        assert_eq!(rows[0].run, "daemon");
        assert_eq!(rows[1].run, "job-1");
        assert_eq!(rows[1].series, "a");
        let done = rows.iter().find(|r| r.metric == "done").unwrap();
        assert_eq!(done.value, 2.5);
        assert!(rows
            .iter()
            .any(|r| r.metric == "done.total_blocks_mean" && r.value == 100.0));
        assert!(serve_log_rows("serve", "{\"no_event\":1}\n").is_err());
    }

    #[test]
    fn bench_rows_flatten_snapshot() {
        let text = "{\"date\":\"2026-08-08\",\"engine_requests_per_sec\":1e6,\"nested\":{\"a\":2}}";
        let rows = bench_rows("bench", text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].run, "bench-2026-08-08");
        assert_eq!(rows[0].series, "2026-08-08");
        assert_eq!(rows[0].metric, "engine_requests_per_sec");
        assert_eq!(rows[1].metric, "nested.a");
    }

    #[test]
    fn rows_for_text_detects_each_shape() {
        let c = cfg();
        let trace = hetsched_core::render_trace(
            &c,
            3,
            ProbeConfig::disabled(),
            hetsched_core::TraceFormat::Jsonl,
        );
        assert_eq!(rows_for_text("x", &trace).unwrap().1, "trace");
        assert_eq!(
            rows_for_text("x", "figure,series,x,mean,std_dev\n")
                .unwrap()
                .1,
            "figure"
        );
        assert_eq!(
            rows_for_text("x", "{\"event\":\"daemon_start\"}\n")
                .unwrap()
                .1,
            "serve"
        );
        assert_eq!(
            rows_for_text("x", "{\"date\":\"2026-01-01\",\"v\":1}")
                .unwrap()
                .1,
            "bench"
        );
        let chrome = rows_for_text("x", "[{\"name\":\"a\"}]").unwrap_err();
        assert!(chrome.contains("Chrome trace"), "{chrome}");
        let err = rows_for_text("x", "plain text").unwrap_err();
        assert!(err.contains("unrecognized artifact"), "{err}");
    }
}
