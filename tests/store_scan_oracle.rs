//! The store's column scan against a naive row-at-a-time oracle.
//!
//! Random rows span several segments, a segment of more than one chunk
//! and many pages, with NaN cells, clustered strings (so page bitsets
//! prune) and scattered ones. Random conjunctive predicates — string
//! `=`/`!=` with present and absent literals, every numeric operator,
//! range literals — run grouped and ungrouped, and their rendered CSV and
//! JSONL must equal the oracle's byte for byte: before and after
//! compaction, at one and at three scan threads. The oracle sums in the
//! store's association order (rows within a chunk, then chunks in scan
//! order), so `sum` and `mean` compare by their bits too.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hetsched::store::{
    build_query, run_query_with, QueryResult, Row, Store, Value, CHUNK_ROWS, COLUMNS,
};

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

const RUNS: [&str; 6] = ["r0", "r1", "r2", "r3", "r4", "r5"];
const KINDS: [&str; 3] = ["probe", "report", "trace"];
const STRATEGIES: [&str; 4] = ["A", "B", "C", ""];
const METRICS: [&str; 3] = ["m0", "m1", "sample"];

/// `n` rows starting at global row `first`: runs and kinds sit in long
/// contiguous blocks, strategies and metrics vary per row; a third of
/// `value` and most of `beta` are NaN.
fn rows(rng: &mut Rng, first: usize, n: usize) -> Vec<Row> {
    (first..first + n)
        .map(|i| {
            let run = RUNS[(i / 9000) % RUNS.len()];
            let kind = KINDS[(i / 20_000) % KINDS.len()];
            let mut r = Row::new("camp", run, kind, "cfg");
            r.strategy = rng.pick(&STRATEGIES).to_string();
            r.metric = rng.pick(&METRICS).to_string();
            r.seed = (i / 5000) as u64;
            r.worker = rng.below(9) as i64 - 1;
            r.events = i as u64;
            r.blocks = rng.next() % 200;
            r.t = (i % 1000) as f64 * 0.25;
            r.value = match rng.below(3) {
                0 => f64::NAN,
                _ => (rng.below(400) as f64) * 0.125 - 10.0,
            };
            if rng.below(5) == 0 {
                r.beta = 2.0 + rng.below(4) as f64 * 0.5;
            }
            r
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetsched-oracle-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random conjunctive `--where` spec over the schema.
fn random_where(rng: &mut Rng) -> String {
    let clauses = 1 + rng.below(3);
    let mut out = Vec::new();
    for _ in 0..clauses {
        let clause = match rng.below(6) {
            0 => format!("run={}", rng.pick(&["r1", "r4", "absent"])),
            1 => format!("kind!={}", rng.pick(&["trace", "absent"])),
            2 => format!("strategy={}", rng.pick(&["A", "C", "zzz"])),
            3 => {
                let col = rng.pick(&["worker", "seed", "value", "t", "blocks", "beta"]);
                let op = rng.pick(&["=", "!=", "<", "<=", ">", ">="]);
                let lit = match col {
                    "worker" => (rng.below(9) as i64 - 1).to_string(),
                    "seed" => rng.below(16).to_string(),
                    "blocks" => rng.below(200).to_string(),
                    "beta" => (2.0 + rng.below(4) as f64 * 0.5).to_string(),
                    "t" => (rng.below(1000) as f64 * 0.25).to_string(),
                    _ => (rng.below(400) as f64 * 0.125 - 10.0).to_string(),
                };
                format!("{col}{op}{lit}")
            }
            4 => {
                let lo = rng.below(30) as f64 - 10.0;
                let incl = if rng.below(2) == 0 { "" } else { "=" };
                format!("value={lo}..{incl}{}", lo + rng.below(20) as f64)
            }
            _ => format!(
                "events={}..{}",
                rng.below(60_000),
                60_000 + rng.below(20_000)
            ),
        };
        out.push(clause);
    }
    out.join(",")
}

/// The cell comparison the oracle applies: NaN matches nothing.
fn holds(v: &Value, op: &str, lit: &str) -> bool {
    match v {
        Value::Str(s) => match op {
            "=" => s == lit,
            "!=" => s != lit,
            _ => false,
        },
        _ => {
            let x = v.as_f64().unwrap();
            let lit: f64 = lit.parse().unwrap();
            !x.is_nan()
                && match op {
                    "=" => x == lit,
                    "!=" => x != lit,
                    "<" => x < lit,
                    "<=" => x <= lit,
                    ">" => x > lit,
                    ">=" => x >= lit,
                    _ => unreachable!(),
                }
        }
    }
}

fn get(r: &Row, col: &str) -> Value {
    r.get(COLUMNS.iter().position(|(n, _)| *n == col).unwrap())
}

/// A `--where` spec as `(column, op, literal)` conditions, range
/// literals split in two.
fn conditions(spec: &str) -> Vec<(usize, &str, &str)> {
    let mut out = Vec::new();
    for clause in spec.split(',').filter(|c| !c.is_empty()) {
        let op = ["!=", "<=", ">=", "=", "<", ">"]
            .into_iter()
            .find(|op| clause.contains(op))
            .unwrap();
        let (col, lit) = clause.split_once(op).unwrap();
        let col = COLUMNS.iter().position(|(n, _)| *n == col).unwrap();
        match lit.split_once("..") {
            Some((lo, hi)) => {
                out.push((col, ">=", lo));
                match hi.strip_prefix('=') {
                    Some(hi) => out.push((col, "<=", hi)),
                    None => out.push((col, "<", hi)),
                }
            }
            None => out.push((col, op, lit)),
        }
    }
    out
}

/// A group-key cell ordered as the store orders them: floats by
/// `total_cmp`, whose order is that of these mapped bits.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
enum K {
    S(String),
    U(u64),
    I(i64),
    F(u64),
}

fn key_cell(v: Value) -> K {
    match v {
        Value::Str(s) => K::S(s),
        Value::U64(x) => K::U(x),
        Value::I64(x) => K::I(x),
        Value::F64(x) => {
            let b = x.to_bits();
            K::F(if b >> 63 == 1 { !b } else { b | 1 << 63 })
        }
    }
}

fn key_value(k: &K) -> Value {
    match k {
        K::S(s) => Value::Str(s.clone()),
        K::U(x) => Value::U64(*x),
        K::I(x) => Value::I64(*x),
        K::F(b) => Value::F64(f64::from_bits(if b >> 63 == 1 {
            b & !(1 << 63)
        } else {
            !b
        })),
    }
}

/// One aggregate over a group's rows, given chunk by chunk in scan order.
fn aggregate(func: &str, col: Option<&str>, chunks: &[Vec<&Row>]) -> f64 {
    let cells = |c: &[&Row]| -> Vec<f64> {
        c.iter()
            .map(|r| get(r, col.unwrap()).as_f64().unwrap())
            .filter(|x| !x.is_nan())
            .collect()
    };
    if func == "count" {
        return chunks.iter().map(Vec::len).sum::<usize>() as f64;
    }
    let all: Vec<f64> = chunks.iter().flat_map(|c| cells(c)).collect();
    match func {
        "sum" | "mean" => {
            // Rows within a chunk, then chunk partials in scan order.
            let partials: Vec<f64> = chunks
                .iter()
                .filter(|c| !c.is_empty())
                .map(|c| cells(c).iter().fold(0.0, |s, x| s + x))
                .collect();
            let sum = partials
                .iter()
                .skip(1)
                .fold(partials.first().copied().unwrap_or(0.0), |s, p| s + p);
            match func {
                "sum" => sum,
                _ if all.is_empty() => f64::NAN,
                _ => sum / all.len() as f64,
            }
        }
        "min" => all.iter().copied().reduce(f64::min).unwrap_or(f64::NAN),
        "max" => all.iter().copied().reduce(f64::max).unwrap_or(f64::NAN),
        p => {
            let mut v = all;
            if v.is_empty() {
                return f64::NAN;
            }
            v.sort_by(f64::total_cmp);
            let p: f64 = p[1..].parse().unwrap();
            let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
            v[rank.max(1) - 1]
        }
    }
}

/// The oracle: `chunks` are the store's rows in scan order, split at its
/// chunk boundaries.
fn naive(
    chunks: &[Vec<&Row>],
    select: &[&str],
    spec: &str,
    group_by: &[&str],
    aggs: &[(&str, Option<&str>)],
) -> QueryResult {
    let conds = conditions(spec);
    let matches = |r: &Row| {
        conds
            .iter()
            .all(|&(col, op, lit)| holds(&r.get(col), op, lit))
    };
    let kept: Vec<Vec<&Row>> = chunks
        .iter()
        .map(|c| c.iter().copied().filter(|r| matches(r)).collect())
        .collect();
    if aggs.is_empty() {
        return QueryResult {
            header: select.iter().map(|c| c.to_string()).collect(),
            rows: kept
                .iter()
                .flatten()
                .map(|r| select.iter().map(|c| get(r, c)).collect())
                .collect(),
        };
    }
    let mut groups: BTreeMap<Vec<K>, Vec<Vec<&Row>>> = BTreeMap::new();
    for (i, chunk) in kept.iter().enumerate() {
        for &r in chunk {
            let key = group_by.iter().map(|c| key_cell(get(r, c))).collect();
            groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); kept.len()])[i]
                .push(r);
        }
    }
    if group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), vec![Vec::new()]);
    }
    let mut header: Vec<String> = group_by.iter().map(|c| c.to_string()).collect();
    header.extend(aggs.iter().map(|(f, c)| match c {
        Some(c) => format!("{f}({c})"),
        None => f.to_string(),
    }));
    let rows = groups
        .iter()
        .map(|(key, per_chunk)| {
            let mut row: Vec<Value> = key.iter().map(key_value).collect();
            row.extend(
                aggs.iter()
                    .map(|(f, c)| Value::F64(aggregate(f, *c, per_chunk))),
            );
            row
        })
        .collect();
    QueryResult { header, rows }
}

/// One query: a `--where` spec, then a projection or a group-by with
/// aggregates.
#[derive(Debug)]
struct Case {
    spec: String,
    select: Vec<&'static str>,
    group_by: Vec<&'static str>,
    aggs: Vec<(&'static str, Option<&'static str>)>,
}

impl Case {
    /// The store's answer, rendered as CSV and JSONL.
    fn run(&self, store: &Store, threads: usize) -> (String, String) {
        let aggs: Vec<String> = self
            .aggs
            .iter()
            .map(|(f, c)| match c {
                Some(c) => format!("{f}({c})"),
                None => f.to_string(),
            })
            .collect();
        let list = |xs: &[&str]| (!xs.is_empty()).then(|| xs.join(","));
        let aggs: Vec<&str> = aggs.iter().map(String::as_str).collect();
        let q = build_query(
            list(&self.select).as_deref(),
            Some(&self.spec)
                .filter(|s| !s.is_empty())
                .map(String::as_str),
            list(&self.group_by).as_deref(),
            list(&aggs).as_deref(),
            None,
        )
        .unwrap();
        let res = run_query_with(store, &q, Some(threads)).unwrap();
        (res.to_csv(), res.to_jsonl())
    }

    /// The oracle's answer over `chunks`, rendered the same way.
    fn oracle(&self, chunks: &[Vec<&Row>]) -> (String, String) {
        let res = naive(chunks, &self.select, &self.spec, &self.group_by, &self.aggs);
        (res.to_csv(), res.to_jsonl())
    }
}

/// The store's rows in scan order, split at its chunk boundaries.
fn layout<'a>(segments: &[&'a [Row]]) -> Vec<Vec<&'a Row>> {
    segments
        .iter()
        .flat_map(|seg| seg.chunks(CHUNK_ROWS).map(|c| c.iter().collect()))
        .collect()
}

#[test]
fn column_scan_matches_a_row_at_a_time_oracle() {
    let mut rng = Rng(20);
    // One segment of two chunks, then three small ones.
    let sizes = [CHUNK_ROWS + 5_000, 4_000, 2_500, 700];
    let mut batches = Vec::new();
    let mut first = 0;
    for n in sizes {
        batches.push(rows(&mut rng, first, n));
        first += n;
    }
    let dir = scratch("store");
    let store = Store::open(&dir).unwrap();
    let mut named: Vec<(PathBuf, &[Row])> = batches
        .iter()
        .map(|b| {
            let mut batch = store.batch();
            batch.push_all(b.iter().cloned());
            (batch.commit().unwrap().unwrap(), &b[..])
        })
        .collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    let in_order: Vec<&[Row]> = named.iter().map(|(_, b)| *b).collect();
    let before = layout(&in_order);

    // `events` is unique per row: one group per row, so a chunk holds
    // more distinct keys than a page has rows.
    let group_cols = [
        "strategy", "kind", "worker", "run", "seed", "beta", "events",
    ];
    let agg_cols = ["value", "blocks", "worker", "t", "beta"];
    // Every operator on an integer and a float column, at literals inside
    // and at the edges of the data, then random conjunctions.
    let mut queries = Vec::new();
    for op in ["=", "!=", "<", "<=", ">", ">="] {
        for lit in ["seed{op}7", "worker{op}-1", "value{op}0.5", "beta{op}3"] {
            let spec = lit.replace("{op}", op);
            queries.push(Case {
                spec,
                select: vec!["events"],
                group_by: Vec::new(),
                aggs: Vec::new(),
            });
        }
    }
    // No predicate and no group: counts come from every chunk, whether
    // or not the scan reads any column.
    queries.push(Case {
        spec: String::new(),
        select: Vec::new(),
        group_by: Vec::new(),
        aggs: vec![
            ("count", None),
            ("count", Some("kind")),
            ("count", Some("value")),
        ],
    });
    queries.push(Case {
        spec: String::new(),
        select: Vec::new(),
        group_by: Vec::new(),
        aggs: vec![("count", None), ("max", Some("events"))],
    });
    // A string and a per-row key across the first chunk boundary.
    queries.push(Case {
        spec: "events=60000..70000".to_string(),
        select: Vec::new(),
        group_by: vec!["kind", "events"],
        aggs: vec![
            ("count", None),
            ("count", Some("kind")),
            ("min", Some("value")),
            ("max", Some("value")),
            ("sum", Some("value")),
            ("mean", Some("value")),
        ],
    });
    for i in 0..14 {
        let spec = random_where(&mut rng);
        if i % 2 == 0 {
            let select: Vec<&str> = (0..1 + rng.below(4))
                .map(|_| COLUMNS[rng.below(COLUMNS.len())].0)
                .collect();
            queries.push(Case {
                spec,
                select,
                group_by: Vec::new(),
                aggs: Vec::new(),
            });
        } else {
            let group_by: Vec<&str> = (0..rng.below(3)).map(|_| rng.pick(&group_cols)).collect();
            let mut group_by_dedup = group_by.clone();
            group_by_dedup.dedup();
            let col = rng.pick(&agg_cols);
            let aggs = vec![
                ("count", None),
                ("count", Some("kind")),
                ("count", Some(col)),
                ("min", Some(col)),
                ("max", Some(col)),
                ("p50", Some(col)),
                ("p95", Some(col)),
                ("sum", Some(col)),
                ("mean", Some(col)),
            ];
            queries.push(Case {
                spec,
                select: Vec::new(),
                group_by: group_by_dedup,
                aggs,
            });
        }
    }

    let mut outputs = Vec::new();
    let mut nonempty = 0;
    for q in &queries {
        let got = q.run(&store, 1);
        assert_eq!(got, q.oracle(&before), "query {q:?}");
        assert_eq!(q.run(&store, 3), got, "3 threads, query {q:?}");
        nonempty += usize::from(got.0.lines().count() > 1);
        outputs.push(got);
    }
    assert!(
        nonempty >= queries.len() / 2,
        "too few queries select anything"
    );

    // Compaction merges everything into one segment of two chunks.
    let report = store.compact(usize::MAX).unwrap();
    assert_eq!(report.segments_after, 1);
    let all_rows = in_order.concat();
    let after = layout(&[&all_rows]);
    for (q, before) in queries.iter().zip(&outputs) {
        let got = q.run(&store, 1);
        assert_eq!(got, q.oracle(&after), "after compaction, query {q:?}");
        assert_eq!(
            q.run(&store, 3),
            got,
            "after compaction, 3 threads, query {q:?}"
        );
        // Ungrouped rows and association-free aggregates do not move.
        if q.aggs.is_empty() {
            assert_eq!(
                &got, before,
                "ungrouped output moved under compaction: {q:?}"
            );
        } else {
            let free = |csv: &str| -> Vec<String> {
                csv.lines()
                    .map(|l| {
                        let cells: Vec<&str> = l.split(',').collect();
                        let keep = cells.len() - 2; // drop sum, mean
                        cells[..keep].join(",")
                    })
                    .collect()
            };
            assert_eq!(
                free(&got.0),
                free(&before.0),
                "association-free aggregates moved: {q:?}"
            );
        }
    }

    // The compacted file is exactly what one batch of the concatenated
    // rows encodes to.
    let direct_dir = scratch("direct");
    let direct = Store::open(&direct_dir).unwrap();
    let mut batch = direct.batch();
    batch.push_all(all_rows.iter().cloned());
    let direct_path = batch.commit().unwrap().unwrap();
    let compacted = store.segment_paths().unwrap();
    assert_eq!(compacted[0].file_name(), direct_path.file_name());
    assert_eq!(
        std::fs::read(&compacted[0]).unwrap(),
        std::fs::read(&direct_path).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&direct_dir);
}
