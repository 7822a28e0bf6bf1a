//! The warehouse schema: one wide table every ingest source maps onto.
//!
//! Rows are keyed by `(campaign, run, config)` — campaign names the
//! sweep, `run` the artifact within it, `config` the 16-hex-digit hash of
//! the experiment configuration (see [`crate::config_hash`]) — plus the
//! master `seed`. The remaining columns are a union of what the sources
//! need: probe samples fill the per-worker engine-state columns, run
//! reports and summaries fill `metric`/`value`/`sigma`, figure rows fill
//! `series`/`t`/`value`/`sigma`, bench snapshots and serve transitions
//! fill `metric`/`series`/`value`. Unused numeric columns hold 0 (integer)
//! or NaN (float); unused strings are empty. A long/narrow union schema
//! keeps the store dependency-free: every query is projection + predicate
//! + group-by over one table, no joins.

/// Physical column types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// Dictionary-encoded UTF-8 string.
    Str,
    /// Unsigned counter, delta + zigzag + varint encoded.
    U64,
    /// Signed integer, delta + zigzag + varint encoded.
    I64,
    /// IEEE double, raw little-endian bits (exact round trip).
    F64,
}

/// The fixed column set, in on-disk order.
pub const COLUMNS: &[(&str, ColumnType)] = &[
    ("campaign", ColumnType::Str),
    ("run", ColumnType::Str),
    ("kind", ColumnType::Str),
    ("strategy", ColumnType::Str),
    ("metric", ColumnType::Str),
    ("series", ColumnType::Str),
    ("config", ColumnType::Str),
    ("seed", ColumnType::U64),
    ("worker", ColumnType::I64),
    ("events", ColumnType::U64),
    ("remaining", ColumnType::U64),
    ("blocks", ColumnType::U64),
    ("tasks", ColumnType::U64),
    ("queue_depth", ColumnType::U64),
    ("t", ColumnType::F64),
    ("value", ColumnType::F64),
    ("sigma", ColumnType::F64),
    ("useful", ColumnType::F64),
    ("link_busy", ColumnType::F64),
    ("beta", ColumnType::F64),
];

/// Index of `name` in [`COLUMNS`], or a contextful error listing the
/// valid names — surfaced verbatim by `hetsched query`.
pub fn column_index(name: &str) -> Result<usize, String> {
    COLUMNS.iter().position(|(n, _)| *n == name).ok_or_else(|| {
        let names: Vec<&str> = COLUMNS.iter().map(|(n, _)| *n).collect();
        format!("unknown column {name:?} (columns: {})", names.join(", "))
    })
}

/// One row, in memory. Construct with [`Row::new`] and fill what the
/// source provides; the defaults are the documented "absent" values.
#[derive(Clone, Debug)]
pub struct Row {
    pub campaign: String,
    pub run: String,
    pub kind: String,
    pub strategy: String,
    pub metric: String,
    pub series: String,
    pub config: String,
    pub seed: u64,
    /// Worker index, `-1` when the row is not per-worker.
    pub worker: i64,
    pub events: u64,
    pub remaining: u64,
    pub blocks: u64,
    pub tasks: u64,
    pub queue_depth: u64,
    pub t: f64,
    pub value: f64,
    pub sigma: f64,
    pub useful: f64,
    pub link_busy: f64,
    pub beta: f64,
}

impl Row {
    /// A row of kind `kind` under the given run key, every other column at
    /// its "absent" default.
    pub fn new(campaign: &str, run: &str, kind: &str, config: &str) -> Row {
        Row {
            campaign: campaign.to_string(),
            run: run.to_string(),
            kind: kind.to_string(),
            strategy: String::new(),
            metric: String::new(),
            series: String::new(),
            config: config.to_string(),
            seed: 0,
            worker: -1,
            events: 0,
            remaining: 0,
            blocks: 0,
            tasks: 0,
            queue_depth: 0,
            t: f64::NAN,
            value: f64::NAN,
            sigma: f64::NAN,
            useful: f64::NAN,
            link_busy: f64::NAN,
            beta: f64::NAN,
        }
    }

    /// The row's value in column `idx` (an index into [`COLUMNS`]).
    pub fn get(&self, idx: usize) -> Value {
        match self.cell(idx) {
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::U64(v) => Value::U64(v),
            Cell::I64(v) => Value::I64(v),
            Cell::F64(v) => Value::F64(v),
        }
    }

    /// The row's cell in column `idx`, borrowed: what the segment encoder
    /// reads, so it copies no string per cell.
    pub(crate) fn cell(&self, idx: usize) -> Cell<'_> {
        match idx {
            0 => Cell::Str(&self.campaign),
            1 => Cell::Str(&self.run),
            2 => Cell::Str(&self.kind),
            3 => Cell::Str(&self.strategy),
            4 => Cell::Str(&self.metric),
            5 => Cell::Str(&self.series),
            6 => Cell::Str(&self.config),
            7 => Cell::U64(self.seed),
            8 => Cell::I64(self.worker),
            9 => Cell::U64(self.events),
            10 => Cell::U64(self.remaining),
            11 => Cell::U64(self.blocks),
            12 => Cell::U64(self.tasks),
            13 => Cell::U64(self.queue_depth),
            14 => Cell::F64(self.t),
            15 => Cell::F64(self.value),
            16 => Cell::F64(self.sigma),
            17 => Cell::F64(self.useful),
            18 => Cell::F64(self.link_busy),
            19 => Cell::F64(self.beta),
            other => panic!("column index {other} out of range"),
        }
    }
}

/// A borrowed cell of a [`Row`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Cell<'a> {
    Str(&'a str),
    U64(u64),
    I64(i64),
    F64(f64),
}

/// One cell, as the query engine and the ingest layer see it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Value {
    /// Numeric view (strings have none); `U64`/`I64` widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Str(_) => None,
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
        }
    }

    /// CSV cell rendering: strings verbatim, floats via Rust's
    /// shortest-round-trip `Display` (deterministic, parses back exactly).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        self.write_csv(&mut out);
        out
    }

    /// [`Value::render_csv`], appended to `out`.
    pub(crate) fn write_csv(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = match self {
            Value::Str(s) => out.write_str(s),
            Value::U64(v) => write!(out, "{v}"),
            Value::I64(v) => write!(out, "{v}"),
            Value::F64(v) => write!(out, "{v}"),
        };
    }

    /// JSON fragment rendering: strings escaped and quoted, non-finite
    /// floats as `null` (matching the trace sinks' `num` convention).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// [`Value::render_json`], appended to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                out.push_str(&hetsched_core::provenance::json_escape(s));
                out.push('"');
            }
            Value::F64(v) if !v.is_finite() => out.push_str("null"),
            other => other.write_csv(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_lookup_and_error() {
        assert_eq!(column_index("campaign").unwrap(), 0);
        assert_eq!(column_index("beta").unwrap(), COLUMNS.len() - 1);
        let err = column_index("makespan").unwrap_err();
        assert!(err.contains("unknown column"), "{err}");
        assert!(err.contains("\"makespan\""), "{err}");
        assert!(err.contains("campaign, run, kind"), "{err}");
    }

    #[test]
    fn row_defaults_and_get_cover_every_column() {
        let row = Row::new("c", "r", "probe", "abc");
        for (i, (name, ty)) in COLUMNS.iter().enumerate() {
            let v = row.get(i);
            match ty {
                ColumnType::Str => assert!(matches!(v, Value::Str(_)), "{name}"),
                ColumnType::U64 => assert_eq!(v, Value::U64(0), "{name}"),
                ColumnType::I64 => assert_eq!(v, Value::I64(-1), "{name}"),
                ColumnType::F64 => {
                    assert!(matches!(v, Value::F64(x) if x.is_nan()), "{name}")
                }
            }
        }
        assert_eq!(row.get(2), Value::Str("probe".into()));
    }

    #[test]
    fn value_rendering() {
        assert_eq!(Value::Str("a\"b".into()).render_json(), "\"a\\\"b\"");
        assert_eq!(Value::F64(f64::NAN).render_json(), "null");
        assert_eq!(Value::F64(f64::NAN).render_csv(), "NaN");
        assert_eq!(Value::F64(0.5).render_csv(), "0.5");
        assert_eq!(Value::I64(-1).render_csv(), "-1");
    }
}
