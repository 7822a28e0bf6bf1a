//! Segment files: the on-disk unit of the warehouse.
//!
//! One segment holds one ingest batch, laid out column-major:
//!
//! ```text
//! "HSCS"                                      4-byte magic
//! chunk 0: col 0 stream, col 1 stream, …      encoded per column.rs
//! chunk 1: …                                  (65 536 rows per chunk)
//! footer                                      varint-encoded, see below
//! footer length                               u64 little-endian
//! "HSCF"                                      4-byte trailing magic
//! ```
//!
//! The footer, version 2 (what this build writes):
//!
//! ```text
//! 0x00, varint 2               version mark; a version-1 footer starts
//!                              with its column count, never 0
//! varint page_rows             rows per page (column::PAGE_ROWS)
//! varint ncols                 then per column: varint-length name, type byte
//! varint nchunks               then per chunk:
//!   varint rows
//!   per column:
//!     varint offset, len       the column stream's byte range in the file
//!     zone                     0, or 1 + min/max f64 bits (numeric columns)
//!     per page (⌈rows / page_rows⌉ of them):
//!       varint offset          the page's first value, within the stream
//!       varint base            delta base (previous row's value or index)
//!       strings: varint n, n bytes of dictionary-presence bitset
//!       numbers: zone          as above, over the page
//! varint nkeys                 then per run key: varint length, UTF-8
//! varint total_rows
//! ```
//!
//! The column index is validated against the compiled-in schema on
//! open; the run keys serve ingest dedupe without scanning rows. A
//! version-1 footer is the same without the version mark, the page size
//! and the page entries. A segment is read whole on open; a scan then
//! decodes only the dictionaries and pages it needs out of those bytes.
//! Version-1 segments still open: each chunk reads as a single page, so
//! they get chunk-level pruning only.
//!
//! Every count in a footer is checked against the bytes that remain,
//! every byte range against the file, and every chunk's rows against
//! [`CHUNK_ROWS`] and its streams' lengths, before anything is
//! allocated: a corrupt segment is an error naming the file, never a
//! panic.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::column::{
    decode_cells, decode_stream, encode_f64, encode_int, encode_str, num_header, str_header,
    zone_of, Cells, PageMeta, PAGE_ROWS,
};
use crate::schema::{Cell, ColumnType, Row, COLUMNS};
use crate::store::{fnv1a64_from, run_key, FNV_OFFSET};
use crate::varint::{get_varint, put_varint};

/// Rows per chunk. Large enough to amortize dictionaries, small enough
/// that zone maps prune usefully within big batches.
pub const CHUNK_ROWS: usize = 65_536;

const MAGIC_HEAD: &[u8; 4] = b"HSCS";
const MAGIC_TAIL: &[u8; 4] = b"HSCF";
/// Trailing length + magic.
const TRAILER: usize = 12;
const FOOTER_VERSION: u64 = 2;

/// Byte range, zone map and pages of one column within one chunk.
#[derive(Clone, Debug)]
pub struct ChunkColMeta {
    pub offset: usize,
    pub len: usize,
    /// `(min, max)` over finite values; `None` for strings and all-NaN
    /// chunks.
    pub zone: Option<(f64, f64)>,
    /// One entry per page. Empty in a version-1 footer read on its own
    /// ([`Segment::read_meta`]); [`Segment::open`] gives such a chunk a
    /// single page.
    pub(crate) pages: Vec<PageMeta>,
}

/// Per-chunk footer entry.
#[derive(Clone, Debug)]
pub struct ChunkMeta {
    pub rows: usize,
    pub cols: Vec<ChunkColMeta>,
}

/// Parsed segment footer.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    /// Footer version: 1 (no page entries) or 2.
    pub version: u64,
    /// Rows per page ([`CHUNK_ROWS`] for version 1: one page per chunk).
    pub(crate) page_rows: usize,
    pub chunks: Vec<ChunkMeta>,
    /// `campaign \u{1f} run \u{1f} config` strings, one per ingested run.
    pub run_keys: Vec<String>,
    pub total_rows: usize,
}

impl SegmentMeta {
    /// Row range of page `page` within a chunk of `rows` rows.
    pub(crate) fn page_range(&self, rows: usize, page: usize) -> Range<usize> {
        let start = page * self.page_rows;
        start..(start + self.page_rows).min(rows)
    }
}

/// A string column's batch dictionary: entries in first-appearance order
/// and their index.
#[derive(Default)]
struct Dict {
    entries: Vec<String>,
    index: HashMap<String, u32>,
}

impl Dict {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.entries.len() as u32;
        self.entries.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }
}

/// Rows held column-major: what a segment is encoded from. Each string
/// column keeps one batch dictionary and a `u32` index per row, so
/// neither ingest nor compaction copies a string per cell.
pub(crate) struct Columns {
    rows: usize,
    cells: Vec<Cells>,
    /// One per column; empty for numeric columns.
    dicts: Vec<Dict>,
}

impl Default for Columns {
    fn default() -> Self {
        Columns {
            rows: 0,
            cells: COLUMNS.iter().map(|(_, ty)| Cells::new(*ty)).collect(),
            dicts: COLUMNS.iter().map(|_| Dict::default()).collect(),
        }
    }
}

impl Columns {
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    pub fn push_row(&mut self, row: &Row) {
        for (c, (cells, dict)) in self.cells.iter_mut().zip(&mut self.dicts).enumerate() {
            match (row.cell(c), cells) {
                (Cell::Str(s), Cells::Str(ids)) => ids.push(dict.intern(s)),
                (Cell::U64(v), Cells::Int(vs)) => vs.push(v),
                (Cell::I64(v), Cells::Int(vs)) => vs.push(v as u64),
                (Cell::F64(v), Cells::F64(vs)) => vs.push(v),
                _ => unreachable!("row cells follow the schema"),
            }
        }
        self.rows += 1;
    }

    /// Appends every row of `seg`, in chunk/row order, decoding each
    /// column as a typed vector: no `Row` is built.
    pub fn append_segment(&mut self, seg: &Segment) -> Result<(), String> {
        let mut remap: Vec<u32> = Vec::new();
        for (c, chunk) in seg.meta.chunks.iter().enumerate() {
            for (col, (cells, dict)) in self.cells.iter_mut().zip(&mut self.dicts).enumerate() {
                let stream = seg.stream(c, col, 0..chunk.cols[col].len);
                let chunk_dict = decode_stream(stream, COLUMNS[col].1, chunk.rows, cells)
                    .map_err(|e| seg.corrupt(c, col, &e))?;
                if let Cells::Str(ids) = cells {
                    remap.clear();
                    remap.extend(chunk_dict.iter().map(|s| dict.intern(s)));
                    let new = ids.len() - chunk.rows;
                    for id in &mut ids[new..] {
                        *id = remap[*id as usize];
                    }
                }
            }
            self.rows += chunk.rows;
        }
        Ok(())
    }

    /// The distinct `(campaign, run, config)` run keys of the rows,
    /// sorted.
    pub fn run_keys(&self) -> Vec<String> {
        let (Cells::Str(campaign), Cells::Str(run), Cells::Str(config)) =
            (&self.cells[0], &self.cells[1], &self.cells[6])
        else {
            unreachable!("campaign, run and config are string columns")
        };
        let triples: HashSet<(u32, u32, u32)> = (0..self.rows)
            .map(|i| (campaign[i], run[i], config[i]))
            .collect();
        let name = |col: usize, id: u32| self.dicts[col].entries[id as usize].as_str();
        let keys: BTreeSet<String> = triples
            .into_iter()
            .map(|(a, b, c)| run_key(name(0, a), name(1, b), name(6, c)))
            .collect();
        keys.into_iter().collect()
    }
}

/// A segment's file bytes and its content address.
pub(crate) struct Encoded {
    pub bytes: Vec<u8>,
    /// FNV-1a over the segment's version-1 encoding: the same column
    /// streams under a footer without the version mark and page entries.
    /// Pages are a function of the rows, so this addresses the content
    /// exactly as well as hashing the file would, and a segment keeps
    /// its name (and so its place in the store's scan and merge order)
    /// across footer versions.
    pub hash: u64,
}

/// Encodes `cols` (plus the batch's run keys) as a segment.
pub(crate) fn encode_segment(cols: &Columns, run_keys: &[String]) -> Encoded {
    let mut out = MAGIC_HEAD.to_vec();
    let mut chunks = Vec::new();
    let mut local = Vec::new();
    for start in (0..cols.rows).step_by(CHUNK_ROWS) {
        let end = (start + CHUNK_ROWS).min(cols.rows);
        let mut metas = Vec::with_capacity(COLUMNS.len());
        for (c, (_, ty)) in COLUMNS.iter().enumerate() {
            let offset = out.len();
            let (pages, zone) = match &cols.cells[c] {
                Cells::Str(ids) => {
                    let dict = &cols.dicts[c].entries;
                    (
                        encode_str(&ids[start..end], dict, &mut local, &mut out),
                        None,
                    )
                }
                Cells::Int(v) if *ty == ColumnType::I64 => (
                    encode_int(&v[start..end], true, &mut out),
                    zone_of(v[start..end].iter().map(|&x| x as i64 as f64)),
                ),
                Cells::Int(v) => (
                    encode_int(&v[start..end], false, &mut out),
                    zone_of(v[start..end].iter().map(|&x| x as f64)),
                ),
                Cells::F64(v) => (
                    encode_f64(&v[start..end], &mut out),
                    zone_of(v[start..end].iter().copied()),
                ),
            };
            metas.push(ChunkColMeta {
                offset,
                len: out.len() - offset,
                zone,
                pages,
            });
        }
        chunks.push(ChunkMeta {
            rows: end - start,
            cols: metas,
        });
    }

    let mut hash = fnv1a64_from(FNV_OFFSET, &out);
    let v1 = footer(&chunks, run_keys, cols.rows, false);
    for part in [&v1[..], &(v1.len() as u64).to_le_bytes(), MAGIC_TAIL] {
        hash = fnv1a64_from(hash, part);
    }
    let footer = footer(&chunks, run_keys, cols.rows, true);
    out.extend_from_slice(&footer);
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(MAGIC_TAIL);
    Encoded { bytes: out, hash }
}

/// The footer bytes: version 2 with `pages`, version 1 without.
fn footer(chunks: &[ChunkMeta], run_keys: &[String], rows: usize, pages: bool) -> Vec<u8> {
    let mut footer = Vec::new();
    if pages {
        footer.push(0);
        put_varint(&mut footer, FOOTER_VERSION);
        put_varint(&mut footer, PAGE_ROWS as u64);
    }
    put_varint(&mut footer, COLUMNS.len() as u64);
    for (name, ty) in COLUMNS {
        put_varint(&mut footer, name.len() as u64);
        footer.extend_from_slice(name.as_bytes());
        footer.push(type_byte(*ty));
    }
    put_varint(&mut footer, chunks.len() as u64);
    for chunk in chunks {
        put_varint(&mut footer, chunk.rows as u64);
        for col in &chunk.cols {
            put_varint(&mut footer, col.offset as u64);
            put_varint(&mut footer, col.len as u64);
            put_zone(&mut footer, col.zone);
            for page in col.pages.iter().filter(|_| pages) {
                put_varint(&mut footer, page.offset as u64);
                put_varint(&mut footer, page.base);
                match &page.present {
                    Some(bits) => {
                        put_varint(&mut footer, bits.len() as u64);
                        footer.extend_from_slice(bits);
                    }
                    None => put_zone(&mut footer, page.zone),
                }
            }
        }
    }
    put_varint(&mut footer, run_keys.len() as u64);
    for key in run_keys {
        put_varint(&mut footer, key.len() as u64);
        footer.extend_from_slice(key.as_bytes());
    }
    put_varint(&mut footer, rows as u64);
    footer
}

fn type_byte(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Str => 0,
        ColumnType::U64 => 1,
        ColumnType::I64 => 2,
        ColumnType::F64 => 3,
    }
}

fn put_zone(out: &mut Vec<u8>, zone: Option<(f64, f64)>) {
    match zone {
        Some((lo, hi)) => {
            out.push(1);
            out.extend_from_slice(&lo.to_bits().to_le_bytes());
            out.extend_from_slice(&hi.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
}

/// An open segment: its parsed footer plus its bytes, read whole on
/// open. Chunk columns are decoded on demand.
pub struct Segment {
    data: Vec<u8>,
    pub meta: SegmentMeta,
    pub path: PathBuf,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("meta", &self.meta)
            .finish_non_exhaustive()
    }
}

/// The error for a segment file that cannot be read.
fn read_err(path: &Path, e: std::io::Error) -> String {
    format!("cannot read segment {}: {e}", path.display())
}

impl Segment {
    pub fn open(path: &Path) -> Result<Segment, String> {
        Self::open_if_present(path)?
            .ok_or_else(|| format!("cannot read segment {}: file not found", path.display()))
    }

    /// Like [`Segment::open`], but a missing file is `Ok(None)` instead of
    /// an error. Readers racing a concurrent compaction (which removes
    /// merged-away segments after writing their replacement) use this to
    /// skip segments that vanish between the directory listing and the
    /// read.
    pub fn open_if_present(path: &Path) -> Result<Option<Segment>, String> {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(read_err(path, e)),
        };
        let mut meta = read_footer(path, data.len() as u64, |pos, buf| {
            let pos = pos as usize;
            buf.copy_from_slice(&data[pos..pos + buf.len()]);
            Ok(())
        })?;
        if meta.version == 1 {
            single_pages(&data, &mut meta)
                .map_err(|e| format!("corrupt segment {}: {e}", path.display()))?;
        }
        Ok(Some(Segment {
            data,
            meta,
            path: path.to_path_buf(),
        }))
    }

    /// Parses only the footer of a segment file — enough for run-key
    /// dedupe checks without decoding any rows. Reads just the trailer
    /// and footer bytes (three small reads), not the row data, so a
    /// store of many large segments pays footer-sized I/O per file.
    pub fn read_meta(path: &Path) -> Result<SegmentMeta, String> {
        Self::read_meta_if_present(path)?
            .ok_or_else(|| format!("cannot read segment {}: file not found", path.display()))
    }

    /// Footer-only read with the same missing-file tolerance as
    /// [`Segment::open_if_present`].
    pub fn read_meta_if_present(path: &Path) -> Result<Option<SegmentMeta>, String> {
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(read_err(path, e)),
        };
        let file_len = file.metadata().map_err(|e| read_err(path, e))?.len();
        read_footer(path, file_len, |pos, buf| {
            file.seek(SeekFrom::Start(pos))?;
            file.read_exact(buf)
        })
        .map(Some)
    }

    /// The error for a corrupt column stream, naming file, chunk and
    /// column.
    fn corrupt(&self, chunk: usize, col: usize, msg: &str) -> String {
        format!(
            "corrupt segment {}: chunk {chunk} column {}: {msg}",
            self.path.display(),
            COLUMNS[col].0
        )
    }

    /// Bytes `range` of column `col`'s stream in chunk `chunk`. The
    /// footer parser has checked that every stream lies in the file.
    fn stream(&self, chunk: usize, col: usize, range: Range<usize>) -> &[u8] {
        let start = self.meta.chunks[chunk].cols[col].offset + range.start;
        &self.data[start..start + range.len()]
    }

    /// The dictionary of string column `col` in chunk `chunk`: the stream
    /// bytes before its first page.
    pub(crate) fn dict(&self, chunk: usize, col: usize) -> Result<Vec<String>, String> {
        let meta = &self.meta.chunks[chunk];
        let Some(first) = meta.cols[col].pages.first() else {
            return Ok(Vec::new());
        };
        let stream = self.stream(chunk, col, 0..first.offset);
        let (dict, rows, pos) = str_header(stream).map_err(|e| self.corrupt(chunk, col, &e))?;
        if rows != meta.rows as u64 || pos != first.offset {
            return Err(self.corrupt(chunk, col, "dictionary header disagrees with the footer"));
        }
        Ok(dict.into_iter().map(str::to_string).collect())
    }

    /// Decodes page `page` of column `col` in chunk `chunk` into `out`,
    /// replacing its contents. `dict_len` bounds string indices.
    pub(crate) fn read_page(
        &self,
        chunk: usize,
        col: usize,
        page: usize,
        dict_len: usize,
        out: &mut Cells,
    ) -> Result<(), String> {
        let meta = &self.meta.chunks[chunk];
        let pages = &meta.cols[col].pages;
        let end = pages.get(page + 1).map_or(meta.cols[col].len, |p| p.offset);
        // A numeric stream's first page is read with the row-count header
        // before it, which must agree with the footer. (A string stream's
        // header is its dictionary, checked by [`Segment::dict`].)
        let check_header = page == 0 && COLUMNS[col].1 != ColumnType::Str;
        let start = if check_header { 0 } else { pages[page].offset };
        let buf = self.stream(chunk, col, start..end);
        if check_header && num_header(buf) != Ok((meta.rows as u64, pages[0].offset)) {
            return Err(self.corrupt(chunk, col, "row-count header disagrees with the footer"));
        }
        out.clear();
        let rows = self.meta.page_range(meta.rows, page).len();
        decode_cells(
            &buf[pages[page].offset - start..],
            rows,
            pages[page].base,
            dict_len,
            out,
        )
        .map_err(|e| self.corrupt(chunk, col, &e))
    }
}

/// Gives each chunk column of a version-1 segment (the file's `data`)
/// one page spanning the chunk, starting after the stream's header.
fn single_pages(data: &[u8], meta: &mut SegmentMeta) -> Result<(), String> {
    for (c, chunk) in meta.chunks.iter_mut().enumerate() {
        for (col, m) in chunk.cols.iter_mut().enumerate() {
            let stream = &data[m.offset..m.offset + m.len];
            let (rows, pos) = match COLUMNS[col].1 {
                ColumnType::Str => str_header(stream).map(|(_, rows, pos)| (rows, pos)),
                _ => num_header(stream),
            }
            .map_err(|e| format!("chunk {c} column {}: {e}", COLUMNS[col].0))?;
            if rows != chunk.rows as u64 {
                return Err(format!(
                    "chunk {c} column {} holds {rows} rows, the footer says {}",
                    COLUMNS[col].0, chunk.rows
                ));
            }
            m.pages = vec![PageMeta {
                offset: pos,
                base: 0,
                zone: m.zone,
                present: None,
            }];
        }
    }
    Ok(())
}

/// Reads and parses the footer of the `file_len`-byte segment file at
/// `path`; `read(pos, buf)` fills `buf` from byte `pos` of the file.
fn read_footer(
    path: &Path,
    file_len: u64,
    mut read: impl FnMut(u64, &mut [u8]) -> std::io::Result<()>,
) -> Result<SegmentMeta, String> {
    let corrupt = |msg: &str| format!("corrupt segment {}: {msg}", path.display());
    if file_len < (MAGIC_HEAD.len() + TRAILER) as u64 {
        return Err(corrupt("file shorter than magic + footer trailer"));
    }
    let mut head = [0u8; 4];
    read(0, &mut head).map_err(|e| read_err(path, e))?;
    if &head != MAGIC_HEAD {
        return Err(corrupt("bad header magic (not an hsc segment)"));
    }
    let mut trailer = [0u8; TRAILER];
    read(file_len - TRAILER as u64, &mut trailer).map_err(|e| read_err(path, e))?;
    if &trailer[8..] != MAGIC_TAIL {
        return Err(corrupt("bad trailing magic (truncated write?)"));
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&trailer[..8]);
    let footer_len = u64::from_le_bytes(len_bytes);
    let footer_start = (file_len - TRAILER as u64)
        .checked_sub(footer_len)
        .filter(|&s| s >= MAGIC_HEAD.len() as u64)
        .ok_or_else(|| corrupt("footer length exceeds file size"))?;
    let mut footer = vec![0u8; footer_len as usize];
    read(footer_start, &mut footer).map_err(|e| read_err(path, e))?;
    parse_footer(&footer, footer_start as usize).map_err(|e| corrupt(&e))
}

/// A bounds-checked reader over footer bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn varint(&mut self) -> Result<u64, String> {
        get_varint(self.buf, &mut self.pos)
    }

    /// A count of items of at least `min_bytes` each, checked against the
    /// bytes that remain.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize, String> {
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(format!(
                "{what} {n} exceeds what the {} remaining footer bytes can hold",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated {what}"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// A varint-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.count(1, what)?;
        std::str::from_utf8(self.bytes(len, what)?).map_err(|e| format!("non-UTF-8 {what}: {e}"))
    }

    fn zone(&mut self) -> Result<Option<(f64, f64)>, String> {
        match self.bytes(1, "zone flag")?[0] {
            0 => Ok(None),
            1 => {
                let b = self.bytes(16, "zone map")?;
                let f = |s: &[u8]| {
                    let mut bits = [0u8; 8];
                    bits.copy_from_slice(s);
                    f64::from_bits(u64::from_le_bytes(bits))
                };
                Ok(Some((f(&b[..8]), f(&b[8..]))))
            }
            other => Err(format!("bad zone flag {other}")),
        }
    }
}

/// Parses the footer bytes themselves (column index, chunk and page
/// tables, run keys, row total) — shared by the whole-file and
/// footer-only readers. Column streams must lie in `MAGIC_HEAD.len()..
/// data_end`.
fn parse_footer(footer: &[u8], data_end: usize) -> Result<SegmentMeta, String> {
    let mut cur = Cursor {
        buf: footer,
        pos: 0,
    };
    let (version, page_rows) = if footer.first() == Some(&0) {
        cur.pos = 1;
        let version = cur.varint()?;
        if version != FOOTER_VERSION {
            return Err(format!(
                "footer version {version} (this build reads 1 and {FOOTER_VERSION})"
            ));
        }
        let page_rows = cur.varint()?;
        if page_rows == 0 || page_rows > CHUNK_ROWS as u64 {
            return Err(format!("page size {page_rows} outside 1..={CHUNK_ROWS}"));
        }
        (version, page_rows as usize)
    } else {
        (1, CHUNK_ROWS)
    };
    let ncols = cur.varint()?;
    if ncols != COLUMNS.len() as u64 {
        return Err(format!(
            "segment has {ncols} columns, this build expects {}",
            COLUMNS.len()
        ));
    }
    for (name, ty) in COLUMNS {
        let got = cur.str("column name")?;
        let ty_byte = cur.bytes(1, "column type")?[0];
        if got != *name || ty_byte != type_byte(*ty) {
            return Err(format!(
                "column mismatch: segment has {got:?}/type {ty_byte}, schema wants {name:?}"
            ));
        }
    }

    // Each chunk entry takes at least a rows varint plus, per column, an
    // offset, a length and a zone flag.
    let nchunks = cur.count(1 + 3 * COLUMNS.len(), "chunk count")?;
    let mut chunks = Vec::with_capacity(nchunks);
    let mut total = 0usize;
    for c in 0..nchunks {
        let rows = cur.varint()?;
        if rows > CHUNK_ROWS as u64 {
            return Err(format!(
                "chunk {c} holds {rows} rows, more than {CHUNK_ROWS}"
            ));
        }
        let rows = rows as usize;
        total += rows;
        let npages = if version == 1 {
            0
        } else {
            rows.div_ceil(page_rows)
        };
        let mut cols = Vec::with_capacity(COLUMNS.len());
        for (name, ty) in COLUMNS {
            let offset = cur.varint()?;
            let len = cur.varint()?;
            if offset < MAGIC_HEAD.len() as u64
                || offset.checked_add(len).is_none_or(|e| e > data_end as u64)
            {
                return Err(format!(
                    "chunk {c} column {name}: bytes {offset}+{len} lie outside the data section"
                ));
            }
            let (offset, len) = (offset as usize, len as usize);
            // Every encoding spends at least one byte per row.
            if rows > len {
                return Err(format!(
                    "chunk {c} column {name}: {rows} rows cannot fit in {len} bytes"
                ));
            }
            let zone = cur.zone()?;
            // A page entry takes at least an offset, a base and a flag or
            // bitset length.
            if npages > cur.remaining() / 3 {
                return Err(format!(
                    "chunk {c} column {name}: {npages} page entries exceed the footer"
                ));
            }
            let mut pages = Vec::with_capacity(npages);
            let mut prev = 0u64;
            for p in 0..npages {
                let page_offset = cur.varint()?;
                if page_offset <= prev || page_offset >= len as u64 {
                    return Err(format!(
                        "chunk {c} column {name}: page {p} offset {page_offset} out of order or \
                         outside the {len}-byte stream"
                    ));
                }
                prev = page_offset;
                let base = cur.varint()?;
                let (zone, present) = if *ty == ColumnType::Str {
                    let n = cur.count(1, "presence bitset length")?;
                    (None, Some(cur.bytes(n, "presence bitset")?.to_vec()))
                } else {
                    (cur.zone()?, None)
                };
                pages.push(PageMeta {
                    offset: page_offset as usize,
                    base,
                    zone,
                    present,
                });
            }
            cols.push(ChunkColMeta {
                offset,
                len,
                zone,
                pages,
            });
        }
        chunks.push(ChunkMeta { rows, cols });
    }

    let nkeys = cur.count(1, "run key count")?;
    let mut run_keys = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        run_keys.push(cur.str("run key")?.to_string());
    }
    let total_rows = cur.varint()?;
    if total_rows != total as u64 {
        return Err(format!(
            "footer total {total_rows} != sum of chunk rows {total}"
        ));
    }
    if cur.remaining() != 0 {
        return Err(format!(
            "{} trailing bytes after the footer",
            cur.remaining()
        ));
    }
    Ok(SegmentMeta {
        version,
        page_rows,
        chunks,
        run_keys,
        total_rows: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let mut r = Row::new("camp", "run-1", "probe", "deadbeefdeadbeef");
                r.seed = 42 + i as u64;
                r.worker = (i % 4) as i64;
                r.events = (i * 10) as u64;
                r.t = i as f64 * 0.5;
                r.value = if i % 7 == 0 { f64::NAN } else { i as f64 };
                r.metric = if i % 2 == 0 {
                    "sample".into()
                } else {
                    "other".into()
                };
                r
            })
            .collect()
    }

    fn columns(rows: &[Row]) -> Columns {
        let mut cols = Columns::default();
        rows.iter().for_each(|r| cols.push_row(r));
        cols
    }

    fn encode(rows: &[Row], keys: &[String]) -> Vec<u8> {
        encode_segment(&columns(rows), keys).bytes
    }

    fn write_tmp(tag: &str, bytes: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsc-seg-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.hsc");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Every cell of column `col`, decoded page by page.
    fn column(seg: &Segment, chunk: usize, col: usize) -> (Vec<String>, Cells) {
        let dict = match COLUMNS[col].1 {
            ColumnType::Str => seg.dict(chunk, col).unwrap(),
            _ => Vec::new(),
        };
        let mut all = Cells::new(COLUMNS[col].1);
        let mut page = Cells::new(COLUMNS[col].1);
        for p in 0..seg.meta.chunks[chunk].cols[col].pages.len() {
            seg.read_page(chunk, col, p, dict.len(), &mut page).unwrap();
            match (&mut all, &page) {
                (Cells::Str(a), Cells::Str(b)) => a.extend(b),
                (Cells::Int(a), Cells::Int(b)) => a.extend(b),
                (Cells::F64(a), Cells::F64(b)) => a.extend(b),
                _ => unreachable!(),
            }
        }
        (dict, all)
    }

    #[test]
    fn segment_round_trips_rows_and_keys() {
        let rows = sample_rows(100);
        let keys = vec!["camp\u{1f}run-1\u{1f}deadbeefdeadbeef".to_string()];
        assert_eq!(columns(&rows).run_keys(), keys);
        let path = write_tmp("round", &encode(&rows, &keys));
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta.version, 2);
        assert_eq!(seg.meta.total_rows, 100);
        assert_eq!(seg.meta.chunks.len(), 1);
        assert_eq!(seg.meta.run_keys, keys);
        for col in 0..COLUMNS.len() {
            let (dict, cells) = column(&seg, 0, col);
            let n = match &cells {
                Cells::Str(v) => v.len(),
                Cells::Int(v) => v.len(),
                Cells::F64(v) => v.len(),
            };
            assert_eq!(n, 100, "col {col}");
            for (i, row) in rows.iter().enumerate() {
                match (row.cell(col), &cells) {
                    (Cell::Str(s), Cells::Str(ids)) => assert_eq!(dict[ids[i] as usize], s),
                    (Cell::U64(v), Cells::Int(vs)) => assert_eq!(vs[i], v),
                    (Cell::I64(v), Cells::Int(vs)) => assert_eq!(vs[i] as i64, v),
                    (Cell::F64(v), Cells::F64(vs)) => assert_eq!(vs[i].to_bits(), v.to_bits()),
                    _ => panic!("col {col}: cell type mismatch"),
                }
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn multi_chunk_segments_split_at_chunk_rows_and_pages() {
        let rows = sample_rows(CHUNK_ROWS + 10);
        let path = write_tmp("multi", &encode(&rows, &[]));
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta.chunks.len(), 2);
        assert_eq!(seg.meta.chunks[0].rows, CHUNK_ROWS);
        assert_eq!(seg.meta.chunks[1].rows, 10);
        assert_eq!(seg.meta.total_rows, CHUNK_ROWS + 10);
        assert_eq!(
            seg.meta.chunks[0].cols[14].pages.len(),
            CHUNK_ROWS / PAGE_ROWS
        );
        assert_eq!(seg.meta.chunks[1].cols[14].pages.len(), 1);
        let Cells::F64(t) = column(&seg, 1, 14).1 else {
            panic!()
        };
        assert_eq!(t[9], (CHUNK_ROWS + 9) as f64 * 0.5);
        // A page in the middle of a chunk decodes on its own.
        let mut cells = Cells::new(ColumnType::U64);
        seg.read_page(0, 9, 3, 0, &mut cells).unwrap();
        assert_eq!(
            cells,
            Cells::Int(
                (0..PAGE_ROWS as u64)
                    .map(|i| (3 * PAGE_ROWS as u64 + i) * 10)
                    .collect()
            )
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn zone_maps_cover_numeric_columns_and_pages() {
        // The last row (index PAGE_ROWS + 48, a multiple of 7) is NaN.
        let n = PAGE_ROWS + 49;
        let rows = sample_rows(n);
        let path = write_tmp("zones", &encode(&rows, &[]));
        let seg = Segment::open(&path).unwrap();
        let chunk = &seg.meta.chunks[0];
        // seed column: 42..=42 + n - 1, split at the page boundary.
        let last = (42 + n - 1) as f64;
        assert_eq!(chunk.cols[7].zone, Some((42.0, last)));
        assert_eq!(
            chunk.cols[7].pages[0].zone,
            Some((42.0, (42 + PAGE_ROWS - 1) as f64))
        );
        assert_eq!(
            chunk.cols[7].pages[1].zone,
            Some(((42 + PAGE_ROWS) as f64, last))
        );
        // strings carry no zone but a presence bitset per page.
        assert_eq!(chunk.cols[0].zone, None);
        assert_eq!(
            chunk.cols[4].pages[1].present.as_deref(),
            Some(&[0b11u8][..])
        );
        // value column: NaNs excluded. Row 0 is NaN, so the min is 1.0;
        // the chunk's last row and page 0's last row (PAGE_ROWS - 1) are
        // NaN, so each max is the row before.
        let max = (n - 2) as f64;
        assert_eq!(chunk.cols[15].zone, Some((1.0, max)));
        assert_eq!(
            chunk.cols[15].pages[0].zone,
            Some((1.0, (PAGE_ROWS - 2) as f64))
        );
        assert_eq!(chunk.cols[15].pages[1].zone, Some((PAGE_ROWS as f64, max)));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compaction_input_matches_encoding_rows_directly() {
        let rows = sample_rows(300);
        let (a, b) = rows.split_at(120);
        let mut cols = Columns::default();
        for (tag, part) in [("part-a", a), ("part-b", b)] {
            let path = write_tmp(tag, &encode(part, &[]));
            cols.append_segment(&Segment::open(&path).unwrap()).unwrap();
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
        assert_eq!(encode_segment(&cols, &[]).bytes, encode(&rows, &[]));
    }

    /// Replaces the varint at `at` with `u64::MAX`'s; returns the bytes
    /// and how many bytes longer they got.
    fn splice_max(bytes: &[u8], at: usize) -> (Vec<u8>, usize) {
        let mut end = at;
        get_varint(bytes, &mut end).unwrap();
        let mut out = bytes[..at].to_vec();
        put_varint(&mut out, u64::MAX);
        let grown = out.len() - end;
        out.extend_from_slice(&bytes[end..]);
        (out, grown)
    }

    fn frame(data: &[u8], footer: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        out.extend_from_slice(footer);
        out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        out.extend_from_slice(MAGIC_TAIL);
        out
    }

    /// Positions of every count varint in a version-2 footer, walking
    /// the layout of the module docs: version, page size, column count
    /// and name lengths, chunk count; per chunk its rows, per column its
    /// stream offset and length, per page its offset (and a string
    /// page's bitset length); run-key count and lengths; row total.
    fn footer_counts(footer: &[u8]) -> Vec<usize> {
        let mut cur = Cursor {
            buf: footer,
            pos: 1,
        };
        let mut at = Vec::new();
        let mut count = |cur: &mut Cursor| {
            at.push(cur.pos);
            cur.varint().unwrap() as usize
        };
        count(&mut cur);
        let page_rows = count(&mut cur);
        for _ in 0..count(&mut cur) {
            let n = count(&mut cur);
            cur.bytes(n + 1, "name").unwrap();
        }
        for _ in 0..count(&mut cur) {
            let pages = count(&mut cur).div_ceil(page_rows);
            for (_, ty) in COLUMNS {
                count(&mut cur);
                count(&mut cur);
                cur.zone().unwrap();
                for _ in 0..pages {
                    count(&mut cur);
                    cur.varint().unwrap();
                    if *ty == ColumnType::Str {
                        let n = count(&mut cur);
                        cur.bytes(n, "bitset").unwrap();
                    } else {
                        cur.zone().unwrap();
                    }
                }
            }
        }
        for _ in 0..count(&mut cur) {
            let n = count(&mut cur);
            cur.bytes(n, "key").unwrap();
        }
        count(&mut cur);
        assert_eq!(cur.remaining(), 0, "walk covers the whole footer");
        at
    }

    /// Positions of the count varints heading a column stream: a string
    /// stream's dictionary size, entry lengths and row count; a numeric
    /// stream's row count.
    fn stream_counts(stream: &[u8], ty: ColumnType) -> Vec<usize> {
        let mut pos = 0;
        let mut at = vec![0];
        if ty == ColumnType::Str {
            for _ in 0..get_varint(stream, &mut pos).unwrap() {
                at.push(pos);
                pos += get_varint(stream, &mut pos).unwrap() as usize;
            }
            at.push(pos);
        }
        at
    }

    #[test]
    fn corrupt_counts_and_truncations_are_errors_never_panics() {
        let rows = sample_rows(5);
        let cols = columns(&rows);
        let bytes = encode_segment(&cols, &cols.run_keys()).bytes;
        let dir = std::env::temp_dir().join(format!("hsc-seg-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::store::Store::open(&dir).unwrap();
        let path = dir.join("seg-0000000000000000.hsc");
        let scan_all = crate::query::build_query(None, None, None, None, None).unwrap();
        let must_fail = |what: &str, bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let res = Segment::open(&path)
                .and_then(|_| crate::query::run_query_with(&store, &scan_all, Some(1)));
            let err = res.expect_err(what);
            assert!(err.contains("seg-0000000000000000.hsc"), "{what}: {err}");
        };
        must_fail("empty file", &[]);
        std::fs::write(&path, &bytes).unwrap();
        let intact = crate::query::run_query_with(&store, &scan_all, Some(1)).unwrap();
        assert_eq!(intact.rows.len(), 5);

        let footer_len =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        let data_end = bytes.len() - TRAILER - footer_len as usize;
        let (data, footer) = (&bytes[..data_end], &bytes[data_end..bytes.len() - TRAILER]);
        // The file cut at every byte of its footer and trailer, and the
        // footer itself cut at every byte under a well-formed trailer.
        for k in data_end..bytes.len() {
            must_fail(&format!("file cut at {k}"), &bytes[..k]);
        }
        for k in 0..footer.len() {
            must_fail(&format!("footer cut at {k}"), &frame(data, &footer[..k]));
        }
        // Each footer count replaced by u64::MAX.
        for at in footer_counts(footer) {
            let (footer, _) = splice_max(footer, at);
            must_fail(&format!("footer count at {at}"), &frame(data, &footer));
        }
        // Each count heading a column stream replaced by u64::MAX, with
        // the footer's offsets moved to match, so only the stream lies.
        let meta = parse_footer(footer, data_end).unwrap();
        for (c, (name, ty)) in COLUMNS.iter().enumerate() {
            let col = &meta.chunks[0].cols[c];
            let stream = &data[col.offset..col.offset + col.len];
            for at in stream_counts(stream, *ty) {
                let (data, grown) = splice_max(data, col.offset + at);
                let mut meta = meta.clone();
                for (k, m) in meta.chunks[0].cols.iter_mut().enumerate() {
                    if k > c {
                        m.offset += grown;
                    } else if k == c {
                        m.len += grown;
                        m.pages.iter_mut().for_each(|p| p.offset += grown);
                    }
                }
                let footer = super::footer(&meta.chunks, &meta.run_keys, 5, true);
                must_fail(
                    &format!("{name} stream count at {at}"),
                    &frame(&data, &footer),
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let bytes = encode(&sample_rows(5), &[]);
        // Truncated file.
        let path = write_tmp("trunc", &bytes[..bytes.len() - 3]);
        let err = Segment::open(&path).unwrap_err();
        assert!(err.contains("corrupt segment"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        // Wrong magic.
        let mut garbled = bytes.clone();
        garbled[0] = b'X';
        let path = write_tmp("magic", &garbled);
        let err = Segment::open(&path).unwrap_err();
        assert!(err.contains("not an hsc segment"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
