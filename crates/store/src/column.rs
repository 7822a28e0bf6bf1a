//! Column chunk encodings, and the typed vectors scans and compaction
//! work on.
//!
//! Each chunk holds one column's values for a contiguous slice of rows,
//! as one byte stream:
//!
//! * **Str** — chunk-local dictionary (varint count, then varint-length
//!   prefixed UTF-8 entries in first-appearance order), followed by the
//!   row count and zigzag-delta varints of dictionary indices. Campaign,
//!   run and metric names repeat across thousands of rows, so the indices
//!   delta to zero almost everywhere.
//! * **U64 / I64** — row count, then zigzag varints of wrapping deltas
//!   between consecutive values (first value deltas against 0). This is
//!   the cumulative-counter layout borrowed from the probe machinery.
//!   Both types share one codec over the values' 64 bits.
//! * **F64** — row count, then raw little-endian IEEE bits per value.
//!   Floats round-trip *exactly*, which the golden round-trip test pins.
//!
//! **Pages.** A stream is cut into pages of `PAGE_ROWS` (4096) rows. Nothing
//! inside the stream marks them; the segment footer keeps one
//! `PageMeta` per page: the byte offset of the page's first value, the
//! delta base a decoder needs to start there (the previous row's value
//! or dictionary index), a min/max zone for numeric columns (NaN
//! excluded) and a dictionary-presence bitset for strings. A page thus
//! decodes on its own, and a scan can skip it from the footer alone.
//!
//! **Cells.** Decoding yields `Cells`: dictionary indices for strings,
//! never the strings themselves, so a scan tests string predicates and
//! builds group keys without materialising a `String` per row. Integer
//! and index deltas of one or two varint bytes — nearly all of them —
//! decode without a branch on their length. Every count read from a
//! stream is checked against the bytes that remain before anything is
//! allocated: a corrupt stream is an error, never a panic or an abort.

use crate::schema::ColumnType;
use crate::varint::{get_varint, put_varint, unzigzag, zigzag};

/// Rows per page: the unit of page-level pruning and of a scan's reads.
pub(crate) const PAGE_ROWS: usize = 4096;

/// Decoded cells of one column over a run of rows.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Cells {
    /// Indices into the chunk's (or batch's) dictionary.
    Str(Vec<u32>),
    /// `U64` values, or `I64` values as their two's-complement bits.
    Int(Vec<u64>),
    F64(Vec<f64>),
}

impl Cells {
    pub fn new(ty: ColumnType) -> Cells {
        match ty {
            ColumnType::Str => Cells::Str(Vec::new()),
            ColumnType::U64 | ColumnType::I64 => Cells::Int(Vec::new()),
            ColumnType::F64 => Cells::F64(Vec::new()),
        }
    }

    pub fn clear(&mut self) {
        match self {
            Cells::Str(v) => v.clear(),
            Cells::Int(v) => v.clear(),
            Cells::F64(v) => v.clear(),
        }
    }
}

/// Footer entry of one page of a column stream.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PageMeta {
    /// Byte offset of the page's first value within the column stream.
    pub offset: usize,
    /// Delta base: the previous row's value bits (integers) or
    /// dictionary index (strings); 0 on a chunk's first page and for
    /// floats.
    pub base: u64,
    /// Numeric pages: `(min, max)` over non-NaN values, `None` when every
    /// value is NaN. Always `None` for strings.
    pub zone: Option<(f64, f64)>,
    /// String pages: bit `i` is set when dictionary entry `i` occurs in
    /// the page. `None` for numeric pages and for the single page an old
    /// (version-1) footer's chunk is read as.
    pub present: Option<Vec<u8>>,
}

/// Min/max over numeric values, NaN excluded. `None` when there are no
/// non-NaN values (all-NaN float pages keep no zone map; no predicate
/// can match them).
pub fn zone_of(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    let mut zone: Option<(f64, f64)> = None;
    for v in values {
        if v.is_nan() {
            continue;
        }
        zone = Some(match zone {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }
    zone
}

/// Whether dictionary index `id` is set in a page's presence bitset.
pub(crate) fn bit(bits: &[u8], id: u32) -> bool {
    bits.get(id as usize / 8)
        .is_some_and(|b| b & (1 << (id % 8)) != 0)
}

/// Appends one string chunk stream for `ids` (indices into `dict`) to
/// `out`, and returns its page entries. The stream's dictionary is
/// chunk-local, in first-appearance order, so equal strings encode to
/// equal bytes whatever `dict` holds. `local` is scratch the caller
/// keeps across chunks (all `u32::MAX` between calls).
pub(crate) fn encode_str(
    ids: &[u32],
    dict: &[String],
    local: &mut Vec<u32>,
    out: &mut Vec<u8>,
) -> Vec<PageMeta> {
    local.resize(dict.len(), u32::MAX);
    let mut order: Vec<u32> = Vec::new();
    let local_ids: Vec<u64> = ids
        .iter()
        .map(|&g| {
            let slot = &mut local[g as usize];
            if *slot == u32::MAX {
                *slot = order.len() as u32;
                order.push(g);
            }
            u64::from(*slot)
        })
        .collect();
    let start = out.len();
    put_varint(out, order.len() as u64);
    for &g in &order {
        let entry = &dict[g as usize];
        put_varint(out, entry.len() as u64);
        out.extend_from_slice(entry.as_bytes());
        local[g as usize] = u32::MAX;
    }
    put_varint(out, ids.len() as u64);
    let bitset_len = order.len().div_ceil(8);
    put_delta_pages(&local_ids, start, out, |page| {
        let mut bits = vec![0u8; bitset_len];
        for &id in page {
            bits[id as usize / 8] |= 1 << (id % 8);
        }
        (None, Some(bits))
    })
}

/// Appends one integer chunk stream (`U64`, or `I64` bits when `signed`)
/// to `out`, and returns its page entries.
pub(crate) fn encode_int(values: &[u64], signed: bool, out: &mut Vec<u8>) -> Vec<PageMeta> {
    let start = out.len();
    put_varint(out, values.len() as u64);
    put_delta_pages(values, start, out, |page| {
        let zone = if signed {
            zone_of(page.iter().map(|&v| v as i64 as f64))
        } else {
            zone_of(page.iter().map(|&v| v as f64))
        };
        (zone, None)
    })
}

/// Appends one float chunk stream to `out`, and returns its page entries.
pub(crate) fn encode_f64(values: &[f64], out: &mut Vec<u8>) -> Vec<PageMeta> {
    let start = out.len();
    put_varint(out, values.len() as u64);
    values
        .chunks(PAGE_ROWS)
        .map(|page| {
            let meta = PageMeta {
                offset: out.len() - start,
                base: 0,
                zone: zone_of(page.iter().copied()),
                present: None,
            };
            for &v in page {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            meta
        })
        .collect()
}

/// Writes `values` as zigzag varints of wrapping deltas, page by page;
/// `summary` gives each page's zone and presence bitset.
fn put_delta_pages(
    values: &[u64],
    start: usize,
    out: &mut Vec<u8>,
    mut summary: impl FnMut(&[u64]) -> (Option<(f64, f64)>, Option<Vec<u8>>),
) -> Vec<PageMeta> {
    let mut prev = 0u64;
    values
        .chunks(PAGE_ROWS)
        .map(|page| {
            let (zone, present) = summary(page);
            let meta = PageMeta {
                offset: out.len() - start,
                base: prev,
                zone,
                present,
            };
            for &v in page {
                put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
                prev = v;
            }
            meta
        })
        .collect()
}

/// Reads a count varint and checks that `count * min_bytes` more bytes
/// remain: every counted item occupies at least that many.
fn get_count(buf: &[u8], pos: &mut usize, min_bytes: usize, what: &str) -> Result<usize, String> {
    let v = get_varint(buf, pos)?;
    let remaining = buf.len() - *pos;
    if v > (remaining / min_bytes) as u64 {
        return Err(format!(
            "{what} {v} exceeds what the {remaining} remaining bytes can hold"
        ));
    }
    Ok(v as usize)
}

/// Parses the head of a string stream: its dictionary (borrowed from
/// `buf`), its row count, and the byte position of the first index. The
/// row count is returned unchecked; callers compare it with the footer.
pub(crate) fn str_header(buf: &[u8]) -> Result<(Vec<&str>, u64, usize), String> {
    let mut pos = 0;
    let n = get_count(buf, &mut pos, 1, "dictionary size")?;
    let mut dict = Vec::with_capacity(n);
    for _ in 0..n {
        let len = get_count(buf, &mut pos, 1, "dictionary entry length")
            .map_err(|e| format!("truncated string chunk dictionary: {e}"))?;
        let entry = std::str::from_utf8(&buf[pos..pos + len])
            .map_err(|e| format!("non-UTF-8 dictionary entry: {e}"))?;
        dict.push(entry);
        pos += len;
    }
    let rows = get_varint(buf, &mut pos)?;
    Ok((dict, rows, pos))
}

/// Parses the head of a numeric stream: its (unchecked) row count and
/// the byte position of the first value.
pub(crate) fn num_header(buf: &[u8]) -> Result<(u64, usize), String> {
    let mut pos = 0;
    let rows = get_varint(buf, &mut pos)?;
    Ok((rows, pos))
}

/// Decodes `n` cells from `buf` (a page's bytes, or a stream's body),
/// continuing from delta base `base`, and appends them to `out`. String
/// indices must fall below `dict_len`.
pub(crate) fn decode_cells(
    buf: &[u8],
    n: usize,
    base: u64,
    dict_len: usize,
    out: &mut Cells,
) -> Result<(), String> {
    let width = if matches!(out, Cells::F64(_)) { 8 } else { 1 };
    if n > buf.len() / width {
        return Err(format!(
            "{n} cells cannot fit in the {} bytes that hold them",
            buf.len()
        ));
    }
    let mut pos = 0;
    let mut prev = base;
    let mut next = |pos: &mut usize| -> Result<u64, String> {
        // Deltas of one or two bytes (the first two bytes are not both
        // continuation bytes) decode without a branch on their length,
        // which mixed lengths would mispredict. Longer ones, the buffer's
        // last byte and every error take the general reader.
        let raw = match buf.get(*pos..*pos + 2) {
            Some(&[b0, b1]) if b0 & b1 & 0x80 == 0 => {
                let more = b0 >> 7;
                *pos += 1 + usize::from(more);
                u64::from(b0 & 0x7f) | ((u64::from(b1) << 7) * u64::from(more))
            }
            _ => get_varint(buf, pos)?,
        };
        prev = prev.wrapping_add(unzigzag(raw) as u64);
        Ok(prev)
    };
    match out {
        Cells::Str(v) => {
            v.reserve(n);
            for _ in 0..n {
                let id = next(&mut pos)?;
                if id >= dict_len as u64 {
                    return Err(format!(
                        "string chunk index {} out of dictionary range",
                        id as i64
                    ));
                }
                v.push(id as u32);
            }
        }
        Cells::Int(v) => {
            v.reserve(n);
            for _ in 0..n {
                v.push(next(&mut pos)?);
            }
        }
        Cells::F64(v) => v.extend(buf[..n * 8].chunks_exact(8).map(|b| {
            let mut bits = [0u8; 8];
            bits.copy_from_slice(b);
            f64::from_bits(u64::from_le_bytes(bits))
        })),
    }
    Ok(())
}

/// Decodes a whole chunk stream of type `ty` that the footer says holds
/// `rows` rows: appends its cells to `out` and returns its dictionary
/// (empty for numeric columns).
pub(crate) fn decode_stream<'a>(
    buf: &'a [u8],
    ty: ColumnType,
    rows: usize,
    out: &mut Cells,
) -> Result<Vec<&'a str>, String> {
    let (dict, n, pos) = match ty {
        ColumnType::Str => str_header(buf)?,
        _ => {
            let (n, pos) = num_header(buf)?;
            (Vec::new(), n, pos)
        }
    };
    if n != rows as u64 {
        return Err(format!("stream holds {n} rows, the footer says {rows}"));
    }
    decode_cells(&buf[pos..], rows, 0, dict.len(), out)?;
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(values: &[&str]) -> (Vec<u32>, Vec<String>) {
        let mut dict: Vec<String> = Vec::new();
        let ids = values
            .iter()
            .map(|v| match dict.iter().position(|d| d == v) {
                Some(i) => i as u32,
                None => {
                    dict.push(v.to_string());
                    dict.len() as u32 - 1
                }
            })
            .collect();
        (ids, dict)
    }

    fn decode(buf: &[u8], ty: ColumnType, rows: usize) -> (Vec<String>, Cells) {
        let mut cells = Cells::new(ty);
        let dict = decode_stream(buf, ty, rows, &mut cells).unwrap();
        (dict.into_iter().map(str::to_string).collect(), cells)
    }

    #[test]
    fn str_round_trip_and_dict_sharing() {
        let values = ["probe", "probe", "report", "probe", "", "report"];
        let (ids, dict) = strings(&values);
        let mut buf = Vec::new();
        let pages = encode_str(&ids, &dict, &mut Vec::new(), &mut buf);
        let (got_dict, cells) = decode(&buf, ColumnType::Str, values.len());
        let Cells::Str(got) = cells else { panic!() };
        let back: Vec<&str> = got.iter().map(|&i| got_dict[i as usize].as_str()).collect();
        assert_eq!(back, values);
        // Dictionary holds 3 distinct entries, so repeats cost ~1 byte each.
        assert!(
            buf.len() < 40,
            "dict encoding too large: {} bytes",
            buf.len()
        );
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].present.as_deref(), Some(&[0b111u8][..]));
    }

    #[test]
    fn str_dictionary_is_chunk_local_in_first_appearance_order() {
        // The same strings under different batch dictionaries encode to
        // the same bytes.
        let dict: Vec<String> = ["z", "a", "m"].iter().map(|s| s.to_string()).collect();
        let mut a = Vec::new();
        encode_str(&[2, 1, 2], &dict, &mut Vec::new(), &mut a);
        let (ids, dict2) = strings(&["m", "a", "m"]);
        let mut b = Vec::new();
        encode_str(&ids, &dict2, &mut Vec::new(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pages_decode_on_their_own() {
        let rows = 2 * PAGE_ROWS + 17;
        let values: Vec<u64> = (0..rows as u64).map(|i| (i * 7919) % 1000).collect();
        let mut buf = Vec::new();
        let pages = encode_int(&values, false, &mut buf);
        assert_eq!(pages.len(), 3);
        for (p, page) in pages.iter().enumerate() {
            let end = pages.get(p + 1).map_or(buf.len(), |n| n.offset);
            let n = (rows - p * PAGE_ROWS).min(PAGE_ROWS);
            let mut cells = Cells::new(ColumnType::U64);
            decode_cells(&buf[page.offset..end], n, page.base, 0, &mut cells).unwrap();
            assert_eq!(
                cells,
                Cells::Int(values[p * PAGE_ROWS..p * PAGE_ROWS + n].to_vec())
            );
            let want = zone_of(
                values[p * PAGE_ROWS..p * PAGE_ROWS + n]
                    .iter()
                    .map(|&v| v as f64),
            );
            assert_eq!(page.zone, want);
        }
    }

    #[test]
    fn u64_round_trip_including_decreasing() {
        let values = [0u64, 1, 1, 100, 50, u64::MAX, 3];
        let mut buf = Vec::new();
        encode_int(&values, false, &mut buf);
        assert_eq!(
            decode(&buf, ColumnType::U64, 7).1,
            Cells::Int(values.to_vec())
        );
    }

    #[test]
    fn varints_of_every_length_decode_and_truncations_error_alike() {
        // Deltas of one to ten varint bytes, up and down, ending on a
        // one-byte delta in the buffer's last byte.
        let mut values: Vec<u64> = (0..64).map(|k| (1u64 << k) ^ (k % 2)).collect();
        values.extend([0, u64::MAX, 3, 3, 60]);
        let mut buf = Vec::new();
        encode_int(&values, false, &mut buf);
        assert_eq!(
            decode(&buf, ColumnType::U64, values.len()).1,
            Cells::Int(values)
        );
        // A varint cut short errors as the general reader does.
        for bytes in [&[0x80u8][..], &[0x81, 0x80], &[0x81, 0x82, 0x83]] {
            let mut cells = Cells::new(ColumnType::U64);
            let want = get_varint(bytes, &mut 0).unwrap_err();
            assert_eq!(decode_cells(bytes, 1, 0, 0, &mut cells), Err(want));
        }
    }

    #[test]
    fn u64_monotone_counters_compress() {
        // Cumulative counters advancing by small steps: ~1 byte per row.
        let values: Vec<u64> = (0..1000u64).map(|i| 5_000_000 + i * 3).collect();
        let mut buf = Vec::new();
        encode_int(&values, false, &mut buf);
        assert!(buf.len() < 1100, "{} bytes for 1000 counters", buf.len());
        assert_eq!(decode(&buf, ColumnType::U64, 1000).1, Cells::Int(values));
    }

    #[test]
    fn i64_round_trip_and_signed_zone() {
        let values = [-1i64, -1, 0, 7, i64::MIN, i64::MAX, -1];
        let bits: Vec<u64> = values.iter().map(|&v| v as u64).collect();
        let mut buf = Vec::new();
        let pages = encode_int(&bits, true, &mut buf);
        assert_eq!(decode(&buf, ColumnType::I64, 7).1, Cells::Int(bits));
        assert_eq!(pages[0].zone, Some((i64::MIN as f64, i64::MAX as f64)));
    }

    #[test]
    fn f64_round_trip_is_exact() {
        let values = [
            0.0f64,
            -0.0,
            1.0 / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e308,
        ];
        let mut buf = Vec::new();
        encode_f64(&values, &mut buf);
        let Cells::F64(back) = decode(&buf, ColumnType::F64, values.len()).1 else {
            panic!()
        };
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zone_ignores_nan_and_handles_all_nan() {
        assert_eq!(
            zone_of([1.0, f64::NAN, -2.0, 5.0].into_iter()),
            Some((-2.0, 5.0))
        );
        assert_eq!(zone_of([f64::NAN, 3.0].into_iter()), Some((3.0, 3.0)));
        assert_eq!(zone_of([f64::NAN, f64::NAN].into_iter()), None);
        assert_eq!(zone_of(std::iter::empty()), None);
    }

    #[test]
    fn truncated_chunks_error_cleanly() {
        let (ids, dict) = strings(&["abc"]);
        let mut buf = Vec::new();
        encode_str(&ids, &dict, &mut Vec::new(), &mut buf);
        let mut cells = Cells::new(ColumnType::Str);
        assert!(decode_stream(&buf[..buf.len() - 1], ColumnType::Str, 1, &mut cells).is_err());
        let mut fbuf = Vec::new();
        encode_f64(&[1.0, 2.0], &mut fbuf);
        let mut cells = Cells::new(ColumnType::F64);
        assert!(decode_stream(&fbuf[..fbuf.len() - 1], ColumnType::F64, 2, &mut cells).is_err());
    }

    #[test]
    fn huge_counts_are_errors_not_allocations() {
        // A float stream claiming 2^61 rows.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 61);
        buf.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        let mut cells = Cells::new(ColumnType::F64);
        assert!(decode_stream(&buf, ColumnType::F64, 1, &mut cells).is_err());
        assert!(decode_cells(&buf, 1 << 61, 0, 0, &mut cells).is_err());
        // A string stream claiming a 2^62-entry dictionary.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 62);
        buf.extend_from_slice(&[1, b'a', 1, 0]);
        assert!(str_header(&buf).is_err());
        // An entry longer than the stream.
        let buf = [1u8, 0xff, 0xff, 0xff, 0xff, 0x0f, b'a'];
        assert!(str_header(&buf).is_err());
        // Every count replaced by u64::MAX, for each encoding.
        for ty in [ColumnType::Str, ColumnType::U64, ColumnType::F64] {
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::MAX);
            buf.extend_from_slice(&[0; 16]);
            let mut cells = Cells::new(ty);
            assert!(decode_stream(&buf, ty, 2, &mut cells).is_err(), "{ty:?}");
        }
    }

    #[test]
    fn out_of_range_string_indices_are_errors() {
        let mut cells = Cells::new(ColumnType::Str);
        // Index delta +2 against a 2-entry dictionary.
        assert!(decode_cells(&[4], 1, 0, 2, &mut cells).is_err());
        assert!(decode_cells(&[2], 1, 0, 2, &mut cells).is_ok());
    }
}
