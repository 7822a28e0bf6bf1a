//! `hetsched-store`: an embedded columnar warehouse for whole campaigns.
//!
//! Every artifact the workspace produces — probe series, `SimReport`/run
//! ledgers, figure CSVs, `BENCH_*.json` snapshots, `hetsched serve` event
//! logs, JSONL traces — lands in one wide table keyed by `(campaign, run,
//! config-hash, seed)`, stored as immutable segment files of per-column
//! chunks:
//!
//! * cumulative counters are delta + zigzag + LEB128-varint encoded
//!   (the `ProbeConfig` delta idea, applied at rest);
//! * strings are chunk-local dictionary encoded;
//! * floats are raw little-endian bits, so `value` round-trips exactly;
//! * every segment footer carries a column index, row counts, min/max
//!   zone maps per chunk and per 4 Ki-row page, dictionary-presence
//!   bitsets per page (pruning), and the batch's run keys (replay-safe
//!   dedupe without decoding a single row).
//!
//! On top sits a small column-at-a-time query engine (`--select` /
//! `--where` / `--group-by` / `--agg`, CSV or JSONL out) and the canned
//! [`stats_report`]. No dependencies beyond the workspace's own crates;
//! no background process — a store is a directory, a reader is `open` +
//! scan.
//!
//! ```text
//! simulate --store runs/   figures --store runs/   serve --store runs/
//!         \__________________    |    _____________________/
//!                            v   v   v
//!                   runs/seg-<fnv64>.hsc   (columnar, immutable)
//!                            |
//!          hetsched query --where kind=report --group-by strategy ...
//!          hetsched stats
//! ```

pub mod column;
pub mod ingest;
pub mod json;
pub mod query;
pub mod schema;
pub mod segment;
pub mod stats;
pub mod store;
pub mod varint;

pub use ingest::{
    bench_rows, config_hash, figure_csv_rows, probe_rows, report_rows, rows_for_text,
    serve_log_rows, sim_run_id, summary_rows, trace_jsonl_rows, RunKey,
};
pub use query::{build_query, run_query, run_query_with, Query, QueryResult};
pub use schema::{column_index, ColumnType, Row, Value, COLUMNS};
pub use segment::{Segment, SegmentMeta, CHUNK_ROWS};
pub use stats::{stats_report, stats_report_with};
pub use store::{fnv1a64, run_key, CompactReport, IngestBatch, Store};
