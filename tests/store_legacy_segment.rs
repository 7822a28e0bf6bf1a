//! Segments written before footers carried page entries (version-1
//! footers) still open, and answer a point, a range, a group-by and a
//! percentile query with the bytes the version-1 reader gave.
//!
//! `tests/fixtures/store-v1/` holds two such segments: a `simulate
//! --store` run of two-phase (n 24, p 4, 3 trials, seed 7) and one of
//! dynamic (n 20, p 3, 2 trials, seed 11), both probed every 16 events.
//! `store-v1.expected` is the version-1 reader's output for the queries
//! below, in order.

use std::path::{Path, PathBuf};

use hetsched::store::{build_query, run_query_with, Segment, Store};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store-v1");
const EXPECTED: &str = include_str!("fixtures/store-v1.expected");

/// `(select, where, group-by, agg, jsonl)` of a recorded query.
type Recorded = (
    Option<&'static str>,
    Option<&'static str>,
    Option<&'static str>,
    Option<&'static str>,
    bool,
);

const QUERIES: [Recorded; 5] = [
    (
        Some("run,t,worker,blocks,tasks,useful"),
        Some("run=sim-7-t3,worker=1"),
        None,
        None,
        false,
    ),
    (
        Some("run,kind,metric,value"),
        Some("value=2..=4"),
        None,
        None,
        false,
    ),
    (
        None,
        None,
        Some("kind,strategy"),
        Some("count,mean(value),min(value),max(value),sum(value)"),
        false,
    ),
    (
        None,
        Some("kind=report"),
        Some("strategy,metric"),
        Some("p50(value),p95(value),p0(value),p100(value)"),
        false,
    ),
    (
        Some("run,t,worker,value,beta"),
        Some("run=sim-7-t3,worker=1"),
        None,
        None,
        true,
    ),
];

/// A private copy of the fixture store.
fn copy_fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hetsched-legacy-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(FIXTURE).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    dir
}

/// Each query's rendered output.
fn answers(dir: &Path, threads: usize) -> Vec<String> {
    let store = Store::open(dir).unwrap();
    QUERIES
        .iter()
        .map(|&(select, where_, group_by, agg, jsonl)| {
            let q = build_query(select, where_, group_by, agg, None).unwrap();
            let res = run_query_with(&store, &q, Some(threads)).unwrap();
            if jsonl {
                res.to_jsonl()
            } else {
                res.to_csv()
            }
        })
        .collect()
}

#[test]
fn version_1_segments_answer_as_before() {
    let dir = copy_fixture("answer");
    let store = Store::open(&dir).unwrap();
    for path in store.segment_paths().unwrap() {
        assert_eq!(Segment::open(&path).unwrap().meta.version, 1);
    }
    for threads in [1, 3] {
        assert_eq!(
            answers(&dir, threads).concat(),
            EXPECTED,
            "{threads} threads"
        );
    }

    // Compaction rewrites them as one version-2 segment. Rows keep their
    // order, so every query but the group-by (whose means and sums
    // re-associate when chunk boundaries move) answers the same.
    let report = store.compact(usize::MAX).unwrap();
    assert_eq!((report.merged, report.segments_after), (2, 1));
    let merged = &store.segment_paths().unwrap()[0];
    assert_eq!(Segment::open(merged).unwrap().meta.version, 2);
    let pristine = copy_fixture("pristine");
    let (before, after) = (answers(&pristine, 1), answers(&dir, 1));
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if i != 2 {
            assert_eq!(a, b, "query {i} after compaction");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pristine);
}
