//! The query engine: projection + predicates + group-by over segments.
//!
//! Queries are compiled from the `hetsched query` flag surface:
//!
//! * `--select campaign,metric,value` — column projection;
//! * `--where "kind=report,metric=makespan,beta>=0"` — conjunctive
//!   predicates (`= != < <= > >=`; strings take `=`/`!=` only); numeric
//!   columns also take range literals, `value=2..5` (half-open) and
//!   `value=2..=5` (inclusive), which desugar to a `>=`/`<`(`<=`) pair;
//! * `--group-by strategy` + `--agg count,mean(value),p95(value)` —
//!   grouped aggregates (`count`, `mean`, `min`, `max`, `sum`, and
//!   nearest-rank `pNN` percentiles, 0 ≤ NN ≤ 100);
//! * `--limit N` — output row cap.
//!
//! A scan works a column at a time and never materialises a `Row` or a
//! `String` per cell. Per chunk, in this order:
//!
//! 1. **Chunk pruning.** Numeric predicates test the chunk's footer zone
//!    map; each string literal is looked up once in the chunk
//!    dictionary, and `=` on an absent string prunes the chunk.
//! 2. **Page pruning.** Each page's footer entry settles a predicate
//!    where it can: a numeric zone outside the literal skips the page,
//!    an integer zone inside it admits every row; a dictionary-presence
//!    bitset without the literal's index skips an `=` page, one holding
//!    only that index admits it whole (`!=` the other way round).
//! 3. **Selection vector.** The page's rows start selected; every
//!    predicate the footer could not settle decodes its column's page
//!    (typed: dictionary indices, `u64` bits, `f64`) and narrows the
//!    selection. String predicates compare dictionary indices.
//! 4. **Output.** Only pages with selected rows decode the projected,
//!    grouped and aggregated columns (`count` of a column decodes none).
//!
//! **Group ids.** Each group-by column gives a selected row a chunk-local
//! id: a string column's dictionary index as it is, a numeric column's
//! bits interned in first-appearance order. The first column's id is the
//! row's group; each further column packs `(group so far, id)` into one
//! `u64` and interns that. One string column thus costs no hashing, and a
//! key of any width and type takes the same steps. Keys map back to
//! strings and numbers once per group per chunk.
//!
//! **Typed folds.** Each aggregate keeps its states in flat vectors
//! indexed by group: sums and cell counts, minima, maxima, percentile
//! cells (as order-preserving keys, one part per chunk). A page folds in
//! with one loop per (aggregate, column type), not one dispatch per row.
//! `count` — of rows or of any column, NaN and string cells included — is
//! the group's row count.
//!
//! Chunks scan in parallel ([`run_query_with`] takes a thread count;
//! `None` means all cores). Each chunk produces a partial result, and
//! partials merge in (segment-name, chunk) order, so output is
//! **byte-identical at any thread count**. Every fold keeps the order
//! the row-at-a-time reader used: within a chunk a group's cells fold in
//! row order (a sum starts at `+0.0` and adds each cell), and chunk
//! partials add into the merged sum in chunk order — it too starts at
//! `+0.0`, which moves no bits, since a sum that starts at `+0.0` is
//! never `-0.0` — so `sum` and `mean` keep their bits; `min`/`max` skip
//! NaN the same way; percentile cells concatenate in chunk order before
//! the nearest-rank selection, whose answer does not depend on order
//! anyway. NaN cells match no predicate and are skipped by every
//! aggregate except `count`, mirroring SQL NULL.
//! Group keys sort with a total order (NaN groups last), and ungrouped
//! scans emit rows in segment-name/chunk/row order, so output is
//! deterministic — the golden byte-stability tests in the CLI and
//! `tests/store_parallel.rs` pin this.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};

use hetsched_core::runner::parallel_map;

use crate::column::{bit, Cells};
use crate::schema::{column_index, ColumnType, Value, COLUMNS};
use crate::segment::Segment;
use crate::store::Store;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Clone, Debug)]
pub enum Literal {
    Str(String),
    Num(f64),
}

#[derive(Clone, Debug)]
pub struct Filter {
    pub col: usize,
    pub op: CmpOp,
    pub literal: Literal,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggFn {
    Count,
    Mean,
    Min,
    Max,
    Sum,
    /// Nearest-rank percentile, 0 ≤ p ≤ 100 (`p0` = min, `p100` = max).
    Percentile(f64),
}

#[derive(Clone, Debug)]
pub struct Agg {
    pub func: AggFn,
    /// Aggregated column; `None` only for `count`.
    pub col: Option<usize>,
    /// Output header label, e.g. `mean(value)`.
    pub label: String,
}

#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Projected columns (ignored when aggregating).
    pub select: Vec<usize>,
    pub filters: Vec<Filter>,
    pub group_by: Vec<usize>,
    pub aggs: Vec<Agg>,
    pub limit: Option<usize>,
}

/// Compiles the CLI flag surface into a [`Query`].
pub fn build_query(
    select: Option<&str>,
    where_: Option<&str>,
    group_by: Option<&str>,
    agg: Option<&str>,
    limit: Option<usize>,
) -> Result<Query, String> {
    let mut q = Query {
        limit,
        ..Default::default()
    };
    if let Some(s) = select {
        for name in s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            q.select.push(column_index(name)?);
        }
    }
    if let Some(s) = where_ {
        q.filters = parse_filters(s)?;
    }
    if let Some(s) = group_by {
        for name in s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            q.group_by.push(column_index(name)?);
        }
    }
    if let Some(s) = agg {
        q.aggs = parse_aggs(s)?;
    }
    if !q.group_by.is_empty() && q.aggs.is_empty() {
        q.aggs = vec![Agg {
            func: AggFn::Count,
            col: None,
            label: "count".to_string(),
        }];
    }
    Ok(q)
}

/// Parses a comma-separated predicate list: `col op literal`, where a
/// numeric literal may be a range `lo..hi` / `lo..=hi` (with `=` only).
pub fn parse_filters(spec: &str) -> Result<Vec<Filter>, String> {
    let mut filters = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (op, op_text, split_at) = ["<=", ">=", "!=", "=", "<", ">"]
            .iter()
            .filter_map(|t| clause.find(t).map(|i| (*t, i)))
            .min_by_key(|&(t, i)| (i, std::cmp::Reverse(t.len())))
            .map(|(t, i)| {
                let op = match t {
                    "<=" => CmpOp::Le,
                    ">=" => CmpOp::Ge,
                    "!=" => CmpOp::Ne,
                    "=" => CmpOp::Eq,
                    "<" => CmpOp::Lt,
                    _ => CmpOp::Gt,
                };
                (op, t, i)
            })
            .ok_or_else(|| {
                format!(
                    "malformed predicate {clause:?}: expected <column><op><literal> with op one \
                     of = != < <= > >="
                )
            })?;
        let col_name = clause[..split_at].trim();
        let lit_text = clause[split_at + op_text.len()..].trim();
        let col = column_index(col_name)?;
        if lit_text.is_empty() {
            return Err(format!("malformed predicate {clause:?}: missing literal"));
        }
        if let Some(dots) = lit_text.find("..") {
            // Range literal: `lo..hi` selects lo ≤ x < hi, `lo..=hi`
            // selects lo ≤ x ≤ hi; desugars to two conjunctive filters so
            // zone pruning applies to both bounds.
            if COLUMNS[col].1 == ColumnType::Str {
                return Err(format!(
                    "predicate {clause:?}: range literals apply to numeric columns only \
                     ({col_name:?} is a string column)"
                ));
            }
            if op != CmpOp::Eq {
                return Err(format!(
                    "predicate {clause:?}: range literals take the form {col_name}=lo..hi or \
                     {col_name}=lo..=hi"
                ));
            }
            let lo_text = lit_text[..dots].trim();
            let rest = &lit_text[dots + 2..];
            let (hi_op, hi_text) = match rest.strip_prefix('=') {
                Some(hi) => (CmpOp::Le, hi.trim()),
                None => (CmpOp::Lt, rest.trim()),
            };
            let bound = |text: &str, side: &str| -> Result<f64, String> {
                if text.is_empty() {
                    return Err(format!(
                        "predicate {clause:?}: range literal is missing its {side} bound \
                         (expected lo..hi or lo..=hi)"
                    ));
                }
                text.parse().map_err(|_| {
                    format!("predicate {clause:?}: range {side} bound {text:?} is not a number")
                })
            };
            let lo = bound(lo_text, "lower")?;
            let hi = bound(hi_text, "upper")?;
            filters.push(Filter {
                col,
                op: CmpOp::Ge,
                literal: Literal::Num(lo),
            });
            filters.push(Filter {
                col,
                op: hi_op,
                literal: Literal::Num(hi),
            });
            continue;
        }
        let literal = match COLUMNS[col].1 {
            ColumnType::Str => {
                if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Err(format!(
                        "predicate {clause:?}: string column {col_name:?} supports only = and !="
                    ));
                }
                Literal::Str(lit_text.trim_matches('"').to_string())
            }
            _ => Literal::Num(lit_text.parse().map_err(|_| {
                format!(
                    "predicate {clause:?}: {lit_text:?} is not a number (column {col_name:?} \
                     is numeric)"
                )
            })?),
        };
        filters.push(Filter { col, op, literal });
    }
    Ok(filters)
}

/// Parses the aggregate list: `count`, `fn(col)` or `fn:col` where fn is
/// `mean|min|max|sum|pNN`.
pub fn parse_aggs(spec: &str) -> Result<Vec<Agg>, String> {
    let mut aggs = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (fn_name, col_name) = if let Some(open) = item.find('(') {
            let close = item
                .rfind(')')
                .ok_or_else(|| format!("malformed aggregate {item:?}: missing ')'"))?;
            (&item[..open], item[open + 1..close].trim())
        } else if let Some(colon) = item.find(':') {
            (&item[..colon], item[colon + 1..].trim())
        } else {
            (item, "")
        };
        let func = match fn_name {
            "count" => AggFn::Count,
            "mean" => AggFn::Mean,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "sum" => AggFn::Sum,
            p if p.starts_with('p') => {
                let pct: f64 = p[1..].parse().map_err(|_| {
                    format!(
                        "unknown aggregate {fn_name:?} (expected count, mean, min, max, sum, \
                         or pNN)"
                    )
                })?;
                // NaN must fail too, so the contains form (never true for
                // NaN) is exactly right.
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!(
                        "percentile {fn_name:?} outside [0, 100] (p0 is the minimum, p100 the \
                         maximum)"
                    ));
                }
                AggFn::Percentile(pct)
            }
            other => {
                return Err(format!(
                    "unknown aggregate {other:?} (expected count, mean, min, max, sum, or pNN)"
                ))
            }
        };
        let col = if func == AggFn::Count && col_name.is_empty() {
            None
        } else {
            if col_name.is_empty() {
                return Err(format!(
                    "aggregate {item:?} needs a column, e.g. {fn_name}(value)"
                ));
            }
            let idx = column_index(col_name)?;
            if COLUMNS[idx].1 == ColumnType::Str && func != AggFn::Count {
                return Err(format!(
                    "aggregate {item:?}: cannot aggregate string column {col_name:?}"
                ));
            }
            Some(idx)
        };
        let label = match col {
            Some(idx) => format!("{fn_name}({})", COLUMNS[idx].0),
            None => "count".to_string(),
        };
        aggs.push(Agg { func, col, label });
    }
    Ok(aggs)
}

/// A totally ordered group-key cell: NaN sorts after every number.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Str(String),
    U64(u64),
    I64(i64),
    F64(TotalF64),
}

#[derive(Clone, Copy, Debug)]
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn key_value(k: &Key) -> Value {
    match k {
        Key::Str(s) => Value::Str(s.clone()),
        Key::U64(x) => Value::U64(*x),
        Key::I64(x) => Value::I64(*x),
        Key::F64(x) => Value::F64(x.0),
    }
}

/// Materialized query output.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    pub header: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                v.write_csv(&mut out);
            }
            out.push('\n');
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let keys: Vec<String> = self
            .header
            .iter()
            .map(|name| format!("\"{}\":", hetsched_core::provenance::json_escape(name)))
            .collect();
        let mut out = String::new();
        for row in &self.rows {
            out.push('{');
            for (i, (key, v)) in keys.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(key);
                v.write_json(&mut out);
            }
            out.push_str("}\n");
        }
        out
    }
}

/// What a page's (or chunk's) footer entry says about a predicate: no
/// row can match, every row matches, or the rows must be tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Skip,
    All,
    Test,
}

/// Can any row in a chunk with numeric zone `(lo, hi)` satisfy the
/// predicate? Conservative: NaN rows (excluded from the zone) never
/// match, so zone-only reasoning is sound.
fn zone_admits(zone: (f64, f64), op: CmpOp, lit: f64) -> bool {
    let (lo, hi) = zone;
    match op {
        CmpOp::Eq => lo <= lit && lit <= hi,
        CmpOp::Ne => !(lo == lit && hi == lit),
        CmpOp::Lt => lo < lit,
        CmpOp::Le => lo <= lit,
        CmpOp::Gt => hi > lit,
        CmpOp::Ge => hi >= lit,
    }
}

/// Does every value in zone `(lo, hi)` satisfy the predicate?
fn zone_implies(zone: (f64, f64), op: CmpOp, lit: f64) -> bool {
    let (lo, hi) = zone;
    match op {
        CmpOp::Eq => lo == lit && hi == lit,
        CmpOp::Ne => lit < lo || lit > hi,
        CmpOp::Lt => hi < lit,
        CmpOp::Le => hi <= lit,
        CmpOp::Gt => lo > lit,
        CmpOp::Ge => lo >= lit,
    }
}

/// A numeric predicate against a zone. `None` means every value is NaN,
/// which nothing matches; float columns may hide NaN rows inside any
/// zone, so only integer zones can admit a whole page.
fn zone_verdict(zone: Option<(f64, f64)>, op: CmpOp, lit: f64, may_nan: bool) -> Verdict {
    match zone {
        None => Verdict::Skip,
        Some(z) if !zone_admits(z, op, lit) => Verdict::Skip,
        Some(z) if !may_nan && zone_implies(z, op, lit) => Verdict::All,
        Some(_) => Verdict::Test,
    }
}

/// A string (in)equality against a page's dictionary-presence bitset
/// (`None`: unknown). `needle` is the literal's chunk dictionary index.
fn str_verdict(present: Option<&[u8]>, needle: Option<u32>, ne: bool) -> Verdict {
    let Some(id) = needle else {
        return if ne { Verdict::All } else { Verdict::Skip };
    };
    let Some(bits) = present else {
        return Verdict::Test;
    };
    let has = bit(bits, id);
    let others = bits.iter().enumerate().any(|(i, &b)| {
        let mask = if i == id as usize / 8 {
            !(1u8 << (id % 8))
        } else {
            0xff
        };
        b & mask != 0
    });
    match (has, others) {
        (false, _) if ne => Verdict::All,
        (false, _) => Verdict::Skip,
        (true, false) if ne => Verdict::Skip,
        (true, false) => Verdict::All,
        (true, true) => Verdict::Test,
    }
}

/// A filter compiled against the schema.
enum Pred<'q> {
    /// `col = lit` (or `!=` when `ne`) on a string column.
    Str { col: usize, ne: bool, lit: &'q str },
    /// `col op lit` on a numeric column.
    Num { col: usize, op: CmpOp, lit: f64 },
    /// A literal of the wrong type, or an ordering on strings: matches
    /// no row.
    Never,
}

impl<'q> Pred<'q> {
    fn compile(f: &'q Filter) -> Pred<'q> {
        match (COLUMNS[f.col].1, &f.literal) {
            (ColumnType::Str, Literal::Str(lit)) if matches!(f.op, CmpOp::Eq | CmpOp::Ne) => {
                Pred::Str {
                    col: f.col,
                    ne: f.op == CmpOp::Ne,
                    lit,
                }
            }
            (ColumnType::Str, _) | (_, Literal::Str(_)) => Pred::Never,
            (_, Literal::Num(lit)) => Pred::Num {
                col: f.col,
                op: f.op,
                lit: *lit,
            },
        }
    }
}

/// Keeps the rows of `sel` whose value `x(r)` satisfies `op lit`. NaN
/// satisfies nothing (every comparison with NaN is false but `!=`).
fn retain_cmp(sel: &mut Vec<u32>, x: impl Fn(usize) -> f64, op: CmpOp, lit: f64) {
    let x = |r: &u32| x(*r as usize);
    match op {
        CmpOp::Eq => sel.retain(|r| x(r) == lit),
        CmpOp::Ne => sel.retain(|r| {
            let v = x(r);
            !v.is_nan() && v != lit
        }),
        CmpOp::Lt => sel.retain(|r| x(r) < lit),
        CmpOp::Le => sel.retain(|r| x(r) <= lit),
        CmpOp::Gt => sel.retain(|r| x(r) > lit),
        CmpOp::Ge => sel.retain(|r| x(r) >= lit),
    }
}

/// Narrows the selection vector `sel` by `op lit` on a decoded numeric
/// page.
fn refine_num(sel: &mut Vec<u32>, cells: &Cells, signed: bool, op: CmpOp, lit: f64) {
    match cells {
        Cells::F64(v) => retain_cmp(sel, |r| v[r], op, lit),
        Cells::Int(v) if signed => retain_cmp(sel, |r| v[r] as i64 as f64, op, lit),
        Cells::Int(v) => retain_cmp(sel, |r| v[r] as f64, op, lit),
        Cells::Str(_) => sel.clear(),
    }
}

/// The smaller of a `min` state and a cell; a NaN state is empty.
fn least(state: f64, x: f64) -> f64 {
    if state.is_nan() {
        x
    } else {
        state.min(x)
    }
}

/// The larger of a `max` state and a cell; a NaN state is empty.
fn most(state: f64, x: f64) -> f64 {
    if state.is_nan() {
        x
    } else {
        state.max(x)
    }
}

/// `x`'s bits mapped so that unsigned order is `f64::total_cmp` order.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative: flip every bit. Positive: set the sign bit.
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// One aggregate's states, one slot per group. A page's selected rows
/// fold in with one typed loop per (aggregate, column type) — the
/// dispatch happens once per page, never per row.
enum Fold {
    /// `count`, of rows or of a column's cells (NaN and string cells
    /// included), is its group's row count and keeps no state of its own.
    Count,
    /// `mean` and `sum`: running sums and their non-NaN cell counts.
    Sum(Vec<f64>, Vec<u64>),
    /// `min`: NaN while empty.
    Min(Vec<f64>),
    /// `max`: NaN while empty.
    Max(Vec<f64>),
    /// `pNN`: the non-NaN cells as [`order_key`]s, in scan order: one
    /// part per chunk, so merging partials moves cells instead of
    /// copying them.
    Cells(Vec<Vec<Vec<u64>>>),
}

impl Fold {
    fn new(func: AggFn) -> Fold {
        match func {
            AggFn::Count => Fold::Count,
            AggFn::Mean | AggFn::Sum => Fold::Sum(Vec::new(), Vec::new()),
            AggFn::Min => Fold::Min(Vec::new()),
            AggFn::Max => Fold::Max(Vec::new()),
            AggFn::Percentile(_) => Fold::Cells(Vec::new()),
        }
    }

    /// Grows the states to `groups` slots; new slots are empty.
    fn grow(&mut self, groups: usize) {
        match self {
            Fold::Count => {}
            Fold::Sum(sum, n) => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            Fold::Min(m) | Fold::Max(m) => m.resize(groups, f64::NAN),
            Fold::Cells(cells) => cells.resize_with(groups, || vec![Vec::new()]),
        }
    }

    /// Folds the selected rows `sel` of a decoded numeric page in, row
    /// `sel[j]` into group `gids[j]`. Integers widen to `f64` (as `I64`
    /// when `signed`).
    fn add(&mut self, cells: &Cells, signed: bool, sel: &[u32], gids: &[u32]) {
        match cells {
            Cells::F64(v) => self.add_with(sel, gids, |r| v[r]),
            Cells::Int(v) if signed => self.add_with(sel, gids, |r| v[r] as i64 as f64),
            Cells::Int(v) => self.add_with(sel, gids, |r| v[r] as f64),
            Cells::Str(_) => unreachable!("string columns take count only"),
        }
    }

    fn add_with(&mut self, sel: &[u32], gids: &[u32], x: impl Fn(usize) -> f64) {
        let cells = sel
            .iter()
            .zip(gids)
            .map(|(&r, &g)| (x(r as usize), g as usize))
            .filter(|(x, _)| !x.is_nan());
        match self {
            Fold::Count => {}
            Fold::Sum(sum, n) => cells.for_each(|(x, g)| {
                sum[g] += x;
                n[g] += 1;
            }),
            Fold::Min(m) => cells.for_each(|(x, g)| m[g] = least(m[g], x)),
            Fold::Max(m) => cells.for_each(|(x, g)| m[g] = most(m[g], x)),
            Fold::Cells(v) => cells.for_each(|(x, g)| v[g][0].push(order_key(x))),
        }
    }

    /// Appends slot `g` of `other` (a chunk's partial) as a new slot,
    /// moving its state. This is what merging it into an empty slot
    /// gives: a chunk's sum starts at `+0.0`, so it is never `-0.0`, and
    /// `+0.0 + x` is `x` bit for bit.
    fn push_from(&mut self, other: &mut Fold, g: usize) {
        match (self, other) {
            (Fold::Count, Fold::Count) => {}
            (Fold::Sum(sum, n), Fold::Sum(sum2, n2)) => {
                sum.push(sum2[g]);
                n.push(n2[g]);
            }
            (Fold::Min(a), Fold::Min(b)) | (Fold::Max(a), Fold::Max(b)) => a.push(b[g]),
            (Fold::Cells(a), Fold::Cells(b)) => a.push(std::mem::take(&mut b[g])),
            _ => unreachable!("merging partials of different aggregates"),
        }
    }

    /// Folds slot `g` of `other` (a later chunk's partial) into slot
    /// `into`. Callers merge in chunk order, which [`Fold::Cells`] relies
    /// on.
    fn merge(&mut self, into: usize, other: &mut Fold, g: usize) {
        match (self, other) {
            (Fold::Count, Fold::Count) => {}
            (Fold::Sum(sum, n), Fold::Sum(sum2, n2)) => {
                sum[into] += sum2[g];
                n[into] += n2[g];
            }
            (Fold::Min(a), Fold::Min(b)) => a[into] = least(a[into], b[g]),
            (Fold::Max(a), Fold::Max(b)) => a[into] = most(a[into], b[g]),
            (Fold::Cells(a), Fold::Cells(b)) => a[into].append(&mut b[g]),
            _ => unreachable!("merging partials of different aggregates"),
        }
    }

    /// Aggregate `func` of group `g`, which holds `rows` selected rows.
    /// `scratch` holds a percentile's cells when they span chunks.
    fn finish(&mut self, func: AggFn, g: usize, rows: u64, scratch: &mut Vec<u64>) -> f64 {
        match self {
            Fold::Count => rows as f64,
            Fold::Sum(sum, n) if func == AggFn::Mean => {
                if n[g] == 0 {
                    f64::NAN
                } else {
                    sum[g] / n[g] as f64
                }
            }
            Fold::Sum(sum, _) => sum[g],
            Fold::Min(m) | Fold::Max(m) => m[g],
            Fold::Cells(cells) => {
                let AggFn::Percentile(p) = func else {
                    unreachable!("cells are kept for percentiles only")
                };
                let parts = &mut cells[g];
                parts.retain(|part| !part.is_empty());
                let keys = match &mut parts[..] {
                    [] => return f64::NAN,
                    [one] => one,
                    parts => {
                        scratch.clear();
                        parts
                            .iter()
                            .for_each(|part| scratch.extend_from_slice(part));
                        scratch
                    }
                };
                // Nearest rank. Keys order as `total_cmp` orders the cells,
                // and equal keys are equal bits, so selecting the rank picks
                // what a full sort would.
                let rank = ((p / 100.0) * keys.len() as f64).ceil() as usize;
                from_order_key(*keys.select_nth_unstable(rank.max(1) - 1).1)
            }
        }
    }
}

/// Group states, one slot per group: its selected rows and one [`Fold`]
/// per aggregate.
struct States {
    rows: Vec<u64>,
    folds: Vec<Fold>,
}

impl States {
    fn new(q: &Query) -> States {
        States {
            rows: Vec::new(),
            folds: q.aggs.iter().map(|a| Fold::new(a.func)).collect(),
        }
    }

    fn grow(&mut self, groups: usize) {
        self.rows.resize(groups, 0);
        self.folds.iter_mut().for_each(|f| f.grow(groups));
    }

    /// Appends slot `g` of `other`, a chunk's partial, as a new group.
    fn push_from(&mut self, other: &mut States, g: usize) {
        self.rows.push(other.rows[g]);
        for (fold, theirs) in self.folds.iter_mut().zip(&mut other.folds) {
            fold.push_from(theirs, g);
        }
    }

    /// Folds slot `g` of `other`, a later chunk's partial, into slot
    /// `into`.
    fn merge(&mut self, into: usize, other: &mut States, g: usize) {
        self.rows[into] += other.rows[g];
        for (fold, theirs) in self.folds.iter_mut().zip(&mut other.folds) {
            fold.merge(into, theirs, g);
        }
    }
}

/// A hasher for the `u64` keys group ids are interned by: one folded
/// multiply, which spreads every key bit over the low bits a table picks
/// its bucket from and the high bits it tags entries with.
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, key: u64) {
        let p = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }
}

/// Starts each [`MixHasher`] from a random seed, so cells read from
/// ingested files cannot be chosen to collide. Ids never depend on it.
struct MixState(u64);

impl Default for MixState {
    fn default() -> MixState {
        MixState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// Dense ids for `u64` keys, in first-appearance order.
#[derive(Default)]
struct Interner {
    ids: HashMap<u64, u32, MixState>,
    keys: Vec<u64>,
}

impl Interner {
    fn id(&mut self, key: u64) -> u32 {
        let keys = &mut self.keys;
        *self.ids.entry(key).or_insert_with(|| {
            keys.push(key);
            keys.len() as u32 - 1
        })
    }
}

/// The compiled query shared by every chunk scan.
struct Plan<'q> {
    q: &'q Query,
    preds: Vec<Pred<'q>>,
    /// Projected columns of an ungrouped scan.
    select: Vec<usize>,
    /// Columns decoded for output once a page has selected rows:
    /// projected, grouped and aggregated ones.
    body: Vec<usize>,
    grouped: bool,
}

/// One chunk's columns as a scan reads them: dictionaries once per
/// chunk, cells one page at a time.
struct ChunkReader<'s> {
    seg: &'s Segment,
    chunk: usize,
    dicts: Vec<Option<Vec<String>>>,
    cells: Vec<Cells>,
    /// The page `cells[c]` holds.
    page_of: Vec<Option<usize>>,
}

impl<'s> ChunkReader<'s> {
    fn new(seg: &'s Segment, chunk: usize) -> ChunkReader<'s> {
        ChunkReader {
            seg,
            chunk,
            dicts: vec![None; COLUMNS.len()],
            cells: COLUMNS.iter().map(|(_, ty)| Cells::new(*ty)).collect(),
            page_of: vec![None; COLUMNS.len()],
        }
    }

    fn dict(&mut self, col: usize) -> Result<&[String], String> {
        if self.dicts[col].is_none() {
            self.dicts[col] = Some(self.seg.dict(self.chunk, col)?);
        }
        Ok(self.dicts[col].as_deref().unwrap_or_default())
    }

    /// Decodes page `page` of column `col`, unless it holds it already.
    fn load(&mut self, col: usize, page: usize) -> Result<(), String> {
        if self.page_of[col] == Some(page) {
            return Ok(());
        }
        let dict_len = match COLUMNS[col].1 {
            ColumnType::Str => self.dict(col)?.len(),
            _ => 0,
        };
        self.seg
            .read_page(self.chunk, col, page, dict_len, &mut self.cells[col])?;
        self.page_of[col] = Some(page);
        Ok(())
    }

    /// Row `r` of the loaded page of column `col`, as an output value.
    fn value(&self, col: usize, r: usize) -> Value {
        match &self.cells[col] {
            Cells::Str(ids) => {
                Value::Str(self.dicts[col].as_deref().unwrap_or_default()[ids[r] as usize].clone())
            }
            Cells::Int(v) if COLUMNS[col].1 == ColumnType::I64 => Value::I64(v[r] as i64),
            Cells::Int(v) => Value::U64(v[r]),
            Cells::F64(v) => Value::F64(v[r]),
        }
    }
}

/// One chunk's groups. Each group-by column gives every selected row a
/// chunk-local cell id: a string column's dictionary index as it is, a
/// numeric column's bits interned. The first column's id is the row's
/// group; each further column packs `(group so far, cell id)` into one
/// `u64` and interns it, which gives the new group. So a key of one
/// string column costs no hashing, and keys of any width and type go
/// through the same steps. States accumulate per group in row order.
struct ChunkGroups<'q> {
    q: &'q Query,
    /// Per group-by column: its numeric cells' ids (unused for strings).
    cells: Vec<Interner>,
    /// Per group-by column after the first: the packed pairs' ids.
    pairs: Vec<Interner>,
    /// By group id. A dictionary entry no selected row holds is an empty
    /// group, dropped at the end.
    states: States,
    /// Scratch, per selected row: one column's cell ids, and the groups.
    ids: Vec<u32>,
    gids: Vec<u32>,
}

impl<'q> ChunkGroups<'q> {
    fn new(q: &'q Query) -> ChunkGroups<'q> {
        let width = q.group_by.len();
        ChunkGroups {
            q,
            cells: (0..width).map(|_| Interner::default()).collect(),
            pairs: (1..width).map(|_| Interner::default()).collect(),
            states: States::new(q),
            ids: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// Folds the selected rows `sel` of the loaded page into the groups.
    fn add(&mut self, rd: &ChunkReader, sel: &[u32]) {
        self.gids.clear();
        self.gids.resize(sel.len(), 0);
        let mut groups = 1;
        for (k, &c) in self.q.group_by.iter().enumerate() {
            let ids = if k == 0 {
                &mut self.gids
            } else {
                &mut self.ids
            };
            ids.clear();
            let interner = &mut self.cells[k];
            let sel = sel.iter().map(|&r| r as usize);
            let distinct = match &rd.cells[c] {
                Cells::Str(v) => {
                    ids.extend(sel.map(|r| v[r]));
                    rd.dicts[c].as_deref().map_or(0, <[String]>::len)
                }
                Cells::Int(v) => {
                    ids.extend(sel.map(|r| interner.id(v[r])));
                    interner.keys.len()
                }
                Cells::F64(v) => {
                    ids.extend(sel.map(|r| interner.id(v[r].to_bits())));
                    interner.keys.len()
                }
            };
            groups = if k == 0 {
                distinct
            } else {
                let pairs = &mut self.pairs[k - 1];
                for (g, &id) in self.gids.iter_mut().zip(&self.ids) {
                    *g = pairs.id((u64::from(*g) << 32) | u64::from(id));
                }
                pairs.keys.len()
            };
        }
        // Ids only grow within a chunk, so this never drops a group.
        self.states.grow(groups);
        for &g in &self.gids {
            self.states.rows[g as usize] += 1;
        }
        for (fold, agg) in self.states.folds.iter_mut().zip(&self.q.aggs) {
            if let (Some(c), false) = (agg.col, agg.func == AggFn::Count) {
                let signed = COLUMNS[c].1 == ColumnType::I64;
                fold.add(&rd.cells[c], signed, sel, &self.gids);
            }
        }
    }

    /// The non-empty groups, each with its state slot and its key mapped
    /// back to strings and numbers (once per group per chunk).
    fn finish(self, rd: &ChunkReader) -> Partial {
        let mut groups = Vec::new();
        for (slot, _) in self.states.rows.iter().enumerate().filter(|(_, &n)| n > 0) {
            let mut g = slot as u32;
            let mut key = Vec::with_capacity(self.q.group_by.len());
            for (k, &c) in self.q.group_by.iter().enumerate().rev() {
                let id = match k {
                    0 => g,
                    _ => {
                        let packed = self.pairs[k - 1].keys[g as usize];
                        g = (packed >> 32) as u32;
                        packed as u32
                    }
                } as usize;
                let bits = || self.cells[k].keys[id];
                key.push(match COLUMNS[c].1 {
                    ColumnType::Str => {
                        Key::Str(rd.dicts[c].as_deref().unwrap_or_default()[id].clone())
                    }
                    ColumnType::U64 => Key::U64(bits()),
                    ColumnType::I64 => Key::I64(bits() as i64),
                    ColumnType::F64 => Key::F64(TotalF64(f64::from_bits(bits()))),
                });
            }
            key.reverse();
            groups.push((key, slot));
        }
        Partial {
            groups,
            states: self.states,
        }
    }
}

/// A chunk's grouped output: its non-empty groups' keys and state slots.
struct Partial {
    groups: Vec<(Vec<Key>, usize)>,
    states: States,
}

/// One chunk's scan output: group partials when aggregating, projected
/// rows otherwise. `None` from [`scan_chunk`] means the chunk was pruned
/// or no row matched.
struct ChunkScan {
    groups: Option<Partial>,
    rows: Vec<Vec<Value>>,
}

fn scan_chunk(seg: &Segment, chunk: usize, plan: &Plan) -> Result<Option<ChunkScan>, String> {
    let meta = &seg.meta.chunks[chunk];
    let mut rd = ChunkReader::new(seg, chunk);
    // Chunk pruning: numeric zones from the footer, string literals
    // against the chunk dictionary.
    let mut needles: Vec<Option<u32>> = Vec::with_capacity(plan.preds.len());
    for p in &plan.preds {
        let mut needle = None;
        match *p {
            Pred::Never => return Ok(None),
            Pred::Num { col, op, lit } => {
                if zone_verdict(meta.cols[col].zone, op, lit, true) == Verdict::Skip {
                    return Ok(None);
                }
            }
            Pred::Str { col, ne, lit } => {
                needle = rd
                    .dict(col)?
                    .iter()
                    .position(|e| e == lit)
                    .map(|i| i as u32);
                if needle.is_none() && !ne {
                    return Ok(None);
                }
            }
        }
        needles.push(needle);
    }

    let mut groups = plan.grouped.then(|| ChunkGroups::new(plan.q));
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut sel: Vec<u32> = Vec::new();
    let npages = meta.rows.div_ceil(seg.meta.page_rows);
    'pages: for page in 0..npages {
        sel.clear();
        sel.extend(0..seg.meta.page_range(meta.rows, page).len() as u32);
        // Page pruning, then selection: each predicate the page entry
        // cannot settle narrows the selection vector on its decoded
        // column.
        for (p, &needle) in plan.preds.iter().zip(&needles) {
            match *p {
                Pred::Num { col, op, lit } => {
                    let ty = COLUMNS[col].1;
                    let zone = meta.cols[col].pages[page].zone;
                    match zone_verdict(zone, op, lit, ty == ColumnType::F64) {
                        Verdict::Skip => continue 'pages,
                        Verdict::All => {}
                        Verdict::Test => {
                            rd.load(col, page)?;
                            refine_num(&mut sel, &rd.cells[col], ty == ColumnType::I64, op, lit);
                        }
                    }
                }
                Pred::Str { col, ne, .. } => {
                    let present = meta.cols[col].pages[page].present.as_deref();
                    match str_verdict(present, needle, ne) {
                        Verdict::Skip => continue 'pages,
                        Verdict::All => {}
                        Verdict::Test => {
                            rd.load(col, page)?;
                            let (Cells::Str(ids), Some(id)) = (&rd.cells[col], needle) else {
                                unreachable!("tested string predicates have a needle")
                            };
                            sel.retain(|&r| (ids[r as usize] == id) != ne);
                        }
                    }
                }
                Pred::Never => unreachable!("pruned with the chunk"),
            }
            if sel.is_empty() {
                continue 'pages;
            }
        }
        // Output columns decode only for pages with selected rows.
        for &col in &plan.body {
            rd.load(col, page)?;
        }
        match &mut groups {
            Some(groups) => groups.add(&rd, &sel),
            None => rows.extend(sel.iter().map(|&r| {
                plan.select
                    .iter()
                    .map(|&c| rd.value(c, r as usize))
                    .collect()
            })),
        }
    }
    let groups = groups.map(|g| g.finish(&rd));
    if groups.as_ref().is_none_or(|g| g.groups.is_empty()) && rows.is_empty() {
        return Ok(None);
    }
    Ok(Some(ChunkScan { groups, rows }))
}

/// Runs `q` over every segment of `store`, scanning chunks on all cores.
pub fn run_query(store: &Store, q: &Query) -> Result<QueryResult, String> {
    run_query_with(store, q, None)
}

/// Runs `q` with an explicit scan-thread count (`None` = all cores,
/// `Some(1)` = serial). Output is byte-identical at any thread count.
pub fn run_query_with(
    store: &Store,
    q: &Query,
    threads: Option<usize>,
) -> Result<QueryResult, String> {
    let grouped = !q.aggs.is_empty();
    let select: Vec<usize> = if grouped {
        Vec::new()
    } else if q.select.is_empty() {
        (0..COLUMNS.len()).collect()
    } else {
        q.select.clone()
    };
    let mut body: Vec<usize> = Vec::new();
    // `count` of a column is its group's row count: it decodes no cells.
    let agg_cols = q
        .aggs
        .iter()
        .filter(|a| a.func != AggFn::Count)
        .filter_map(|a| a.col);
    for c in q.group_by.iter().chain(&select).copied().chain(agg_cols) {
        if !body.contains(&c) {
            body.push(c);
        }
    }
    let plan = Plan {
        q,
        preds: q.filters.iter().map(Pred::compile).collect(),
        select,
        body,
        grouped,
    };

    let segments = store.segments()?;
    // One work item per chunk; `segments()` sorts by name, so this order
    // — the merge order — is a pure function of the store contents.
    let work: Vec<(usize, usize)> = segments
        .iter()
        .enumerate()
        .flat_map(|(s, seg)| (0..seg.meta.chunks.len()).map(move |c| (s, c)))
        .collect();
    let scan = |&(s, c): &(usize, usize)| scan_chunk(&segments[s], c, &plan);

    if !grouped {
        let header: Vec<String> = plan
            .select
            .iter()
            .map(|&c| COLUMNS[c].0.to_string())
            .collect();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        if let Some(limit) = q.limit {
            // Serial with early exit: the parallel scan would decode every
            // chunk to keep the first `limit` rows of the full result —
            // same bytes, wasted work.
            for item in &work {
                if rows.len() >= limit {
                    break;
                }
                if let Some(chunk) = scan(item)? {
                    rows.extend(chunk.rows);
                }
            }
            rows.truncate(limit);
        } else {
            for partial in parallel_map(&work, threads, |_, item| scan(item)) {
                if let Some(chunk) = partial? {
                    rows.extend(chunk.rows);
                }
            }
        }
        return Ok(QueryResult { header, rows });
    }

    // Groups in key order, each with a slot in the merged states.
    let mut index: BTreeMap<Vec<Key>, usize> = BTreeMap::new();
    let mut states = States::new(q);
    // Deterministic merge: partials come back in work-list order whatever
    // the thread count (parallel_map preserves slot order).
    for partial in parallel_map(&work, threads, |_, item| scan(item)) {
        let Some(Partial {
            groups,
            states: mut chunk,
        }) = partial?.and_then(|c| c.groups)
        else {
            continue;
        };
        for (key, g) in groups {
            let next = index.len();
            let slot = *index.entry(key).or_insert(next);
            if slot == next {
                states.push_from(&mut chunk, g);
            } else {
                states.merge(slot, &mut chunk, g);
            }
        }
    }

    let mut header: Vec<String> = q
        .group_by
        .iter()
        .map(|&c| COLUMNS[c].0.to_string())
        .collect();
    header.extend(q.aggs.iter().map(|a| a.label.clone()));
    // A global aggregate over zero matching rows still reports one row.
    if q.group_by.is_empty() && index.is_empty() {
        index.insert(Vec::new(), 0);
        states.grow(1);
    }
    let mut rows = Vec::with_capacity(index.len());
    let mut scratch = Vec::new();
    for (key, g) in index {
        let mut row: Vec<Value> = key.iter().map(key_value).collect();
        for (fold, agg) in states.folds.iter_mut().zip(&q.aggs) {
            let rows = states.rows[g];
            row.push(Value::F64(fold.finish(agg.func, g, rows, &mut scratch)));
        }
        rows.push(row);
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }
    Ok(QueryResult { header, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Row;

    fn test_store(tag: &str, rows: Vec<Row>) -> (Store, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("hsc-query-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let mut b = store.batch();
        b.push_all(rows);
        b.commit().unwrap();
        (store, dir)
    }

    fn report(strategy: &str, metric: &str, value: f64, beta: f64) -> Row {
        let mut r = Row::new("c", "r", "report", "cfg0");
        r.strategy = strategy.to_string();
        r.metric = metric.to_string();
        r.value = value;
        r.beta = beta;
        r
    }

    #[test]
    fn filter_parse_errors_are_contextful() {
        assert!(parse_filters("kind=report").is_ok());
        let err = parse_filters("bogus=1").unwrap_err();
        assert!(err.contains("unknown column"), "{err}");
        let err = parse_filters("value~1").unwrap_err();
        assert!(err.contains("malformed predicate"), "{err}");
        let err = parse_filters("value=abc").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = parse_filters("kind<x").unwrap_err();
        assert!(err.contains("supports only"), "{err}");
    }

    #[test]
    fn range_literals_desugar_to_bound_pairs() {
        let f = parse_filters("value=2..5").unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].col, f[0].op), (15, CmpOp::Ge));
        assert_eq!((f[1].col, f[1].op), (15, CmpOp::Lt));
        assert!(matches!(f[0].literal, Literal::Num(lo) if lo == 2.0));
        assert!(matches!(f[1].literal, Literal::Num(hi) if hi == 5.0));

        let f = parse_filters("value=-2.5..=5").unwrap();
        assert_eq!(f[1].op, CmpOp::Le);
        assert!(matches!(f[0].literal, Literal::Num(lo) if lo == -2.5));

        let err = parse_filters("kind=a..b").unwrap_err();
        assert!(err.contains("numeric columns only"), "{err}");
        let err = parse_filters("value>=1..5").unwrap_err();
        assert!(err.contains("lo..hi"), "{err}");
        let err = parse_filters("value=1..").unwrap_err();
        assert!(err.contains("upper bound"), "{err}");
        let err = parse_filters("value=..5").unwrap_err();
        assert!(err.contains("lower bound"), "{err}");
        let err = parse_filters("value=x..5").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn range_predicates_evaluate_half_open_and_inclusive() {
        let rows = (1..=6)
            .map(|i| report("D", "m", i as f64, f64::NAN))
            .collect();
        let (store, dir) = test_store("range", rows);
        let q = build_query(Some("value"), Some("value=2..5"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.to_csv(), "value\n2\n3\n4\n");
        let q = build_query(Some("value"), Some("value=2..=5"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.to_csv(), "value\n2\n3\n4\n5\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_admits_each_operator() {
        let zone = (2.0, 5.0);
        assert!(zone_admits(zone, CmpOp::Eq, 2.0));
        assert!(zone_admits(zone, CmpOp::Eq, 5.0));
        assert!(!zone_admits(zone, CmpOp::Eq, 1.0));
        assert!(!zone_admits(zone, CmpOp::Eq, 6.0));
        assert!(zone_admits(zone, CmpOp::Ne, 3.0));
        assert!(!zone_admits((4.0, 4.0), CmpOp::Ne, 4.0));
        assert!(zone_admits(zone, CmpOp::Lt, 2.5));
        assert!(!zone_admits(zone, CmpOp::Lt, 2.0));
        assert!(zone_admits(zone, CmpOp::Le, 2.0));
        assert!(!zone_admits(zone, CmpOp::Le, 1.9));
        assert!(zone_admits(zone, CmpOp::Gt, 4.5));
        assert!(!zone_admits(zone, CmpOp::Gt, 5.0));
        assert!(zone_admits(zone, CmpOp::Ge, 5.0));
        assert!(!zone_admits(zone, CmpOp::Ge, 5.1));
    }

    #[test]
    fn zone_verdicts_skip_admit_or_test() {
        let int = |op, lit| zone_verdict(Some((2.0, 5.0)), op, lit, false);
        assert_eq!(int(CmpOp::Lt, 9.0), Verdict::All);
        assert_eq!(int(CmpOp::Lt, 4.0), Verdict::Test);
        assert_eq!(int(CmpOp::Lt, 2.0), Verdict::Skip);
        assert_eq!(int(CmpOp::Ge, 2.0), Verdict::All);
        assert_eq!(int(CmpOp::Ne, 6.0), Verdict::All);
        assert_eq!(int(CmpOp::Ne, 3.0), Verdict::Test);
        assert_eq!(
            zone_verdict(Some((4.0, 4.0)), CmpOp::Eq, 4.0, false),
            Verdict::All
        );
        // A float zone may hide NaN rows, which match nothing.
        assert_eq!(
            zone_verdict(Some((2.0, 5.0)), CmpOp::Lt, 9.0, true),
            Verdict::Test
        );
        // An all-NaN page has no zone.
        assert_eq!(zone_verdict(None, CmpOp::Ne, 1.0, true), Verdict::Skip);
    }

    #[test]
    fn string_verdicts_read_the_presence_bitset() {
        let (only_1, with_9) = ([0b10u8], [0b10u8, 0b10]);
        for (bits, needle, ne, want) in [
            (&only_1[..], 1, false, Verdict::All),
            (&only_1[..], 1, true, Verdict::Skip),
            (&only_1[..], 3, false, Verdict::Skip),
            (&only_1[..], 3, true, Verdict::All),
            (&with_9[..], 1, false, Verdict::Test),
            (&with_9[..], 9, true, Verdict::Test),
        ] {
            assert_eq!(
                str_verdict(Some(bits), Some(needle), ne),
                want,
                "{needle} {ne}"
            );
        }
        assert_eq!(str_verdict(None, Some(1), false), Verdict::Test);
        // A literal missing from the chunk dictionary.
        assert_eq!(str_verdict(Some(&only_1), None, false), Verdict::Skip);
        assert_eq!(str_verdict(Some(&only_1), None, true), Verdict::All);
    }

    #[test]
    fn agg_parse_both_syntaxes() {
        let aggs = parse_aggs("count,mean(value),p95:t,max(beta)").unwrap();
        assert_eq!(aggs.len(), 4);
        assert_eq!(aggs[0].label, "count");
        assert_eq!(aggs[1].label, "mean(value)");
        assert_eq!(aggs[2].func, AggFn::Percentile(95.0));
        assert_eq!(aggs[2].label, "p95(t)");
        assert!(parse_aggs("median(value)").is_err());
        assert!(parse_aggs("mean(kind)").is_err());
        assert!(parse_aggs("p200(value)").is_err());
    }

    #[test]
    fn percentile_bounds_are_validated() {
        // Endpoints are legal: p0 = min, p100 = max.
        let (store, dir) = test_store(
            "pbounds",
            (1..=10)
                .map(|i| report("D", "m", i as f64, f64::NAN))
                .collect(),
        );
        let q = build_query(None, None, None, Some("p0(value),p100(value)"), None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows[0][0], Value::F64(1.0));
        assert_eq!(res.rows[0][1], Value::F64(10.0));
        std::fs::remove_dir_all(&dir).ok();

        for bad in ["p101(value)", "p-0.5(value)", "pNaN(value)"] {
            let err = parse_aggs(bad).unwrap_err();
            assert!(err.contains("[0, 100]"), "{bad}: {err}");
        }
    }

    #[test]
    fn projection_and_predicates() {
        let rows = vec![
            report("Dynamic", "makespan", 10.0, f64::NAN),
            report("Dynamic", "makespan", 12.0, f64::NAN),
            report("Random", "makespan", 20.0, f64::NAN),
            report("Random", "blocks", 99.0, f64::NAN),
        ];
        let (store, dir) = test_store("proj", rows);
        let q = build_query(
            Some("strategy,value"),
            Some("metric=makespan,value>=12"),
            None,
            None,
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.header, vec!["strategy", "value"]);
        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.to_csv(), "strategy,value\nDynamic,12\nRandom,20\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_by_aggregates_and_percentiles() {
        let mut rows = Vec::new();
        for i in 1..=100 {
            rows.push(report("Dynamic", "makespan", i as f64, f64::NAN));
        }
        rows.push(report("Random", "makespan", 1000.0, f64::NAN));
        let (store, dir) = test_store("group", rows);
        let q = build_query(
            None,
            Some("metric=makespan"),
            Some("strategy"),
            Some("count,mean(value),p50(value),p95(value),min(value),max(value)"),
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        // BTreeMap ordering: "Dynamic" < "Random".
        assert_eq!(res.rows[0][0], Value::Str("Dynamic".into()));
        assert_eq!(res.rows[0][1], Value::F64(100.0)); // count
        assert_eq!(res.rows[0][2], Value::F64(50.5)); // mean
        assert_eq!(res.rows[0][3], Value::F64(50.0)); // p50 nearest-rank
        assert_eq!(res.rows[0][4], Value::F64(95.0)); // p95
        assert_eq!(res.rows[0][5], Value::F64(1.0));
        assert_eq!(res.rows[0][6], Value::F64(100.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wide_integer_keys_group_by_their_full_bits() {
        // Keys that agree in their low 32 bits, in both key positions.
        let rows = (0..12u64)
            .map(|i| {
                let mut r = report("D", "m", i as f64, f64::NAN);
                r.seed = (1 << 40) * (i % 2) + 7;
                r.events = u64::MAX - (1 << 33) * (i % 3);
                r
            })
            .collect();
        let (store, dir) = test_store("wide", rows);
        let q = build_query(
            None,
            None,
            Some("seed,events"),
            Some("count,sum(value)"),
            None,
        )
        .unwrap();
        let csv = run_query(&store, &q).unwrap().to_csv();
        let (a, b) = (7, (1u64 << 40) + 7);
        let (x, y, z) = (u64::MAX - (2 << 33), u64::MAX - (1 << 33), u64::MAX);
        assert_eq!(
            csv,
            format!(
                "seed,events,count,sum(value)\n{a},{x},2,10\n{a},{y},2,14\n{a},{z},2,6\n\
                 {b},{x},2,16\n{b},{y},2,8\n{b},{z},2,12\n"
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thread_count_does_not_change_output_bytes() {
        // Several segments (one per batch) so the work list has real
        // parallel structure, with group keys interleaved across them.
        let dir = std::env::temp_dir().join(format!("hsc-query-mt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        for s in 0..6 {
            let mut b = store.batch();
            for i in 0..40 {
                let strat = if (s + i) % 2 == 0 {
                    "Dynamic"
                } else {
                    "Random"
                };
                let mut r = report(strat, "makespan", (s * 40 + i) as f64 * 0.1, f64::NAN);
                r.run = format!("r{s}");
                b.push(r);
            }
            b.commit().unwrap();
        }
        let grouped = build_query(
            None,
            Some("metric=makespan"),
            Some("strategy"),
            Some("count,mean(value),sum(value),p50(value),min(value),max(value)"),
            None,
        )
        .unwrap();
        let plain = build_query(Some("run,value"), Some("value>=2"), None, None, None).unwrap();
        for q in [&grouped, &plain] {
            let base = run_query_with(&store, q, Some(1)).unwrap();
            for threads in [2, 3, 8] {
                let res = run_query_with(&store, q, Some(threads)).unwrap();
                assert_eq!(
                    res.to_csv(),
                    base.to_csv(),
                    "CSV must be byte-identical at {threads} threads"
                );
                assert_eq!(res.to_jsonl(), base.to_jsonl());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nan_matches_no_predicate_and_skips_means() {
        let rows = vec![
            report("D", "m", f64::NAN, f64::NAN),
            report("D", "m", 4.0, f64::NAN),
        ];
        let (store, dir) = test_store("nan", rows);
        let q = build_query(None, Some("value>=0"), None, None, None).unwrap();
        assert_eq!(run_query(&store, &q).unwrap().rows.len(), 1);
        let q = build_query(
            None,
            None,
            Some("strategy"),
            Some("count,mean(value)"),
            None,
        )
        .unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows[0][1], Value::F64(2.0), "count includes NaN rows");
        assert_eq!(res.rows[0][2], Value::F64(4.0), "mean skips NaN");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_aggregate_and_empty_store() {
        let (store, dir) = test_store("glob", vec![report("D", "m", 2.0, f64::NAN)]);
        let q = build_query(None, None, None, Some("count,sum(value)"), None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows, vec![vec![Value::F64(1.0), Value::F64(2.0)]]);
        std::fs::remove_dir_all(&dir).ok();

        let empty_dir = std::env::temp_dir().join(format!("hsc-query-none-{}", std::process::id()));
        std::fs::remove_dir_all(&empty_dir).ok();
        let empty = Store::open(&empty_dir).unwrap();
        let res = run_query(&empty, &q).unwrap();
        assert_eq!(res.rows[0][0], Value::F64(0.0));
        assert_eq!(res.rows[0][1], Value::F64(0.0), "sum over nothing is 0");
        let plain = build_query(None, None, None, None, None).unwrap();
        assert!(run_query(&empty, &plain).unwrap().rows.is_empty());
        std::fs::remove_dir_all(&empty_dir).ok();
    }

    #[test]
    fn limit_and_jsonl_rendering() {
        let rows = vec![
            report("D", "m", 1.0, f64::NAN),
            report("D", "m", 2.0, f64::NAN),
            report("D", "m", 3.0, f64::NAN),
        ];
        let (store, dir) = test_store("limit", rows);
        let q = build_query(Some("metric,value,beta"), None, None, None, Some(2)).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 2);
        assert_eq!(
            res.to_jsonl(),
            "{\"metric\":\"m\",\"value\":1,\"beta\":null}\n{\"metric\":\"m\",\"value\":2,\"beta\":null}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_and_dictionary_pruning_skip_chunks() {
        // Two separate segments with disjoint value ranges and kinds; a
        // predicate selecting one must not decode the other (verified
        // indirectly: results stay correct under pruning).
        let (store, dir) = test_store("prune1", vec![report("D", "m", 5.0, f64::NAN)]);
        let mut b = store.batch();
        let mut other = Row::new("c2", "r2", "figure", "cfgX");
        other.metric = "fig2".to_string();
        other.value = 500.0;
        b.push(other);
        b.commit().unwrap();
        let q = build_query(None, Some("kind=figure,value>100"), None, None, None).unwrap();
        let res = run_query(&store, &q).unwrap();
        assert_eq!(res.rows.len(), 1);
        let q = build_query(None, Some("value<1"), None, None, None).unwrap();
        assert!(run_query(&store, &q).unwrap().rows.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
