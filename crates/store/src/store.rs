//! The store directory: a flat set of immutable segment files.
//!
//! A store is just a directory of `seg-<hash>.hsc` files. Segment names
//! are content-addressed (FNV-1a over the segment's version-1 encoding,
//! see `segment::Encoded`), so re-ingesting
//! identical data rewrites the same file — idempotent by construction —
//! and two daemon workers committing concurrently can never clobber each
//! other's distinct batches. Writes go through a temp file + rename so a
//! crash mid-write leaves no half segment behind. Dedupe above the byte
//! level uses the run keys recorded in every footer: `contains_run` scans
//! footers only, never row data.
//!
//! Content addressing also makes footers immutable: a `Store` handle
//! caches parsed footers by file name, so repeated dedupe checks and row
//! counts over a long-lived handle read each footer once. And it makes
//! [`Store::compact`] safe — merging small segments into one rewrites the
//! same rows under a new content-addressed name, run keys preserved, so
//! replay dedupe and queries see the store unchanged while the file count
//! drops to ⌈rows / 64Ki⌉-scale. Compaction never builds a `Row`: it
//! decodes the small segments' columns as typed vectors, merges their
//! string dictionaries, and re-encodes.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::schema::Row;
use crate::segment::{encode_segment, Columns, Encoded, Segment, SegmentMeta, CHUNK_ROWS};

/// 64-bit FNV-1a — the store's only hash. Used for segment names and for
/// config hashes (see [`crate::ingest::config_hash`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// The FNV-1a offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
pub(crate) fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The footer run-key string for `(campaign, run, config)`. Unit
/// separators keep the three parts unambiguous whatever they contain.
pub fn run_key(campaign: &str, run: &str, config: &str) -> String {
    format!("{campaign}\u{1f}{run}\u{1f}{config}")
}

/// What one [`Store::compact`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Small segments merged away (0 when there was nothing to do).
    pub merged: usize,
    /// Rows rewritten into the merged segment(s).
    pub rows: usize,
    /// Segment count before / after the pass.
    pub segments_before: usize,
    pub segments_after: usize,
    /// Stale temp files (from crashed writers) removed.
    pub tmp_cleaned: usize,
}

/// An open store directory.
pub struct Store {
    dir: PathBuf,
    /// Parsed footers keyed by file name. Segment files are
    /// content-addressed, hence immutable: a cached footer can go stale
    /// only by its file disappearing (compaction), never by changing.
    meta_cache: Mutex<HashMap<String, Arc<SegmentMeta>>>,
}

impl Store {
    /// Opens (creating if absent) the store at `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            meta_cache: Mutex::new(HashMap::new()),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of every segment file, sorted by name for deterministic scan
    /// order.
    pub fn segment_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".hsc") {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Opens every segment. A segment that vanishes between the listing
    /// and the read (a concurrent compaction removed it after writing its
    /// replacement) is skipped, not an error.
    pub fn segments(&self) -> Result<Vec<Segment>, String> {
        let paths = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        let mut segments = Vec::with_capacity(paths.len());
        for p in &paths {
            if let Some(seg) = Segment::open_if_present(p)? {
                segments.push(seg);
            }
        }
        Ok(segments)
    }

    /// The parsed footer of the segment at `path`, via the handle's
    /// footer cache. `None` when the file is gone (compacted away).
    pub fn segment_meta(&self, path: &Path) -> Result<Option<Arc<SegmentMeta>>, String> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("segment path {} has no file name", path.display()))?
            .to_string();
        if let Some(meta) = self.cache_lock().get(&name) {
            return Ok(Some(Arc::clone(meta)));
        }
        let Some(meta) = Segment::read_meta_if_present(path)? else {
            return Ok(None);
        };
        let meta = Arc::new(meta);
        self.cache_lock().insert(name, Arc::clone(&meta));
        Ok(Some(meta))
    }

    /// The footer cache never holds partial state across a panic (inserts
    /// are single calls), so a poisoned lock is safe to take over.
    fn cache_lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<SegmentMeta>>> {
        self.meta_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Sum of row counts across all segment footers.
    pub fn total_rows(&self) -> Result<usize, String> {
        let paths = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        let mut total = 0;
        for p in &paths {
            if let Some(meta) = self.segment_meta(p)? {
                total += meta.total_rows;
            }
        }
        Ok(total)
    }

    /// True when some segment already holds rows for this run key. Reads
    /// footers only (cached per handle) — this is the replay-safe dedupe
    /// check used by `hetsched serve --store` and `simulate --store`.
    pub fn contains_run(&self, campaign: &str, run: &str, config: &str) -> Result<bool, String> {
        let key = run_key(campaign, run, config);
        let paths = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        for p in &paths {
            if let Some(meta) = self.segment_meta(p)? {
                if meta.run_keys.contains(&key) {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Starts an ingest batch; commit writes one segment.
    pub fn batch(&self) -> IngestBatch<'_> {
        IngestBatch {
            store: self,
            cols: Columns::default(),
        }
    }

    /// Merges every segment smaller than `max_segment_rows` into one
    /// segment of full [`CHUNK_ROWS`]-row chunks. Long-lived `serve
    /// --store` daemons write one small segment per completed job, so a
    /// real campaign degrades into thousands of fragments whose footers
    /// every query must open; this pass rewrites them as one file.
    ///
    /// Rows are concatenated in segment-name/chunk/row order and run keys
    /// unioned, so queries and replay dedupe see identical data before
    /// and after; the merged file's bytes are exactly those of encoding
    /// the concatenated rows as one batch. The merged segment is written (content-addressed, temp
    /// file + rename) *before* the old segments are removed: a crash at
    /// any point leaves either the old segments plus an ignorable temp
    /// file, or the merged segment plus some not-yet-removed old ones —
    /// both states query identically modulo duplicated rows being
    /// impossible (removal happens only after the rename lands, and
    /// readers scan names, not content, exactly once each).
    ///
    /// Stale temp files left by crashed *other* processes (pid differs)
    /// are swept; our own pid's temp files may belong to a live writer
    /// thread and are left alone.
    pub fn compact(&self, max_segment_rows: usize) -> Result<CompactReport, String> {
        let mut report = CompactReport {
            tmp_cleaned: self.clean_stale_tmp()?,
            ..CompactReport::default()
        };
        let paths = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        report.segments_before = paths.len();
        report.segments_after = paths.len();
        let mut small: Vec<&PathBuf> = Vec::new();
        for p in &paths {
            if let Some(meta) = self.segment_meta(p)? {
                if meta.total_rows < max_segment_rows {
                    small.push(p);
                }
            }
        }
        if small.len() < 2 {
            return Ok(report);
        }

        let mut cols = Columns::default();
        let mut keys: BTreeSet<String> = BTreeSet::new();
        for p in &small {
            let Some(seg) = Segment::open_if_present(p)? else {
                // Vanished under us: a concurrent pass merged it already.
                // Its rows live in that pass's output; retrying later
                // sees the settled state.
                return Ok(report);
            };
            keys.extend(seg.meta.run_keys.iter().cloned());
            cols.append_segment(&seg)?;
        }
        let keys: Vec<String> = keys.into_iter().collect();
        let merged = write_segment(&self.dir, &encode_segment(&cols, &keys))?;
        for p in &small {
            if **p == merged {
                continue;
            }
            match std::fs::remove_file(p) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("cannot remove {}: {e}", p.display())),
            }
            if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                self.cache_lock().remove(name);
            }
        }
        report.merged = small.len();
        report.rows = cols.len();
        report.segments_after = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?
            .len();
        Ok(report)
    }

    /// Count of segments smaller than [`CHUNK_ROWS`] rows — the
    /// fragmentation signal the serve daemon's opportunistic compaction
    /// trigger watches. Footer-cache cheap on a long-lived handle.
    pub fn small_segment_count(&self) -> Result<usize, String> {
        let paths = self
            .segment_paths()
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        let mut count = 0;
        for p in &paths {
            if let Some(meta) = self.segment_meta(p)? {
                if meta.total_rows < CHUNK_ROWS {
                    count += 1;
                }
            }
        }
        Ok(count)
    }

    /// Removes `.tmp-*` files left behind by *crashed* writer processes
    /// (trailing pid differs from ours). Same-pid temp files may belong
    /// to a live writer thread mid-commit and are kept.
    fn clean_stale_tmp(&self) -> Result<usize, String> {
        let our_pid = format!("-{}", std::process::id());
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?;
        let mut cleaned = 0;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("cannot list store {}: {e}", self.dir.display()))?
                .path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(".tmp-") && !name.ends_with(&our_pid) {
                match std::fs::remove_file(&path) {
                    Ok(()) => cleaned += 1,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("cannot remove {}: {e}", path.display())),
                }
            }
        }
        Ok(cleaned)
    }
}

/// Writes an encoded segment under its content-addressed name via a
/// temp file + atomic rename; returns the final path. Shared by ingest
/// commits and compaction.
fn write_segment(dir: &Path, seg: &Encoded) -> Result<PathBuf, String> {
    let bytes = &seg.bytes;
    let name = format!("seg-{:016x}.hsc", seg.hash);
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!(".tmp-{name}-{}", std::process::id()));
    std::fs::write(&tmp_path, bytes)
        .map_err(|e| format!("cannot write segment {}: {e}", tmp_path.display()))?;
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| format!("cannot commit segment {}: {e}", final_path.display()))?;
    Ok(final_path)
}

/// Rows accumulated for one segment, held column-major. Run keys are
/// derived from the rows' own `(campaign, run, config)` columns at commit
/// time, so a batch can never claim a run it holds no rows for.
pub struct IngestBatch<'a> {
    store: &'a Store,
    cols: Columns,
}

impl IngestBatch<'_> {
    pub fn push(&mut self, row: Row) {
        self.cols.push_row(&row);
    }

    pub fn push_all(&mut self, rows: impl IntoIterator<Item = Row>) {
        for row in rows {
            self.cols.push_row(&row);
        }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Writes the batch as one segment; returns its path, or `None` for
    /// an empty batch (nothing is written).
    pub fn commit(self) -> Result<Option<PathBuf>, String> {
        if self.cols.is_empty() {
            return Ok(None);
        }
        let seg = encode_segment(&self.cols, &self.cols.run_keys());
        write_segment(&self.store.dir, &seg).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsc-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn row(campaign: &str, run: &str, v: f64) -> Row {
        let mut r = Row::new(campaign, run, "report", "0123456789abcdef");
        r.metric = "makespan".into();
        r.value = v;
        r
    }

    #[test]
    fn batch_commit_and_dedupe() {
        let dir = scratch("dedupe");
        let store = Store::open(&dir).unwrap();
        assert!(!store.contains_run("c", "r1", "0123456789abcdef").unwrap());

        let mut b = store.batch();
        b.push(row("c", "r1", 1.0));
        b.push(row("c", "r1", 2.0));
        let path = b.commit().unwrap().unwrap();
        assert!(path.exists());

        assert!(store.contains_run("c", "r1", "0123456789abcdef").unwrap());
        assert!(!store.contains_run("c", "r2", "0123456789abcdef").unwrap());
        assert!(!store.contains_run("c", "r1", "ffff").unwrap());
        assert_eq!(store.total_rows().unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_batches_are_idempotent() {
        let dir = scratch("idem");
        let store = Store::open(&dir).unwrap();
        for _ in 0..3 {
            let mut b = store.batch();
            b.push(row("c", "r1", 1.5));
            b.commit().unwrap();
        }
        // Content-addressed name: three identical commits, one segment.
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        assert_eq!(store.total_rows().unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_writes_nothing() {
        let dir = scratch("empty");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.batch().commit().unwrap(), None);
        assert!(store.segment_paths().unwrap().is_empty());
        assert_eq!(store.total_rows().unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_batches_accumulate() {
        let dir = scratch("accum");
        let store = Store::open(&dir).unwrap();
        let mut b = store.batch();
        b.push(row("c", "r1", 1.0));
        b.commit().unwrap();
        let mut b = store.batch();
        b.push(row("c", "r2", 2.0));
        b.commit().unwrap();
        assert_eq!(store.segment_paths().unwrap().len(), 2);
        assert_eq!(store.total_rows().unwrap(), 2);
        assert!(store.contains_run("c", "r2", "0123456789abcdef").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_cache_serves_repeat_reads() {
        let dir = scratch("cache");
        let store = Store::open(&dir).unwrap();
        let mut b = store.batch();
        b.push(row("c", "r1", 1.0));
        b.commit().unwrap();
        let path = &store.segment_paths().unwrap()[0];
        let first = store.segment_meta(path).unwrap().unwrap();
        let second = store.segment_meta(path).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second read must come from the cache"
        );
        // A fresh handle re-reads from disk but sees the same footer.
        let other = Store::open(&dir).unwrap();
        let third = other.segment_meta(path).unwrap().unwrap();
        assert_eq!(third.total_rows, first.total_rows);
        assert_eq!(third.run_keys, first.run_keys);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_merges_small_segments_preserving_rows_and_keys() {
        let dir = scratch("compact");
        let store = Store::open(&dir).unwrap();
        for i in 0..5 {
            let mut b = store.batch();
            b.push(row("c", &format!("r{i}"), i as f64));
            b.commit().unwrap();
        }
        assert_eq!(store.segment_paths().unwrap().len(), 5);
        let report = store.compact(CHUNK_ROWS).unwrap();
        assert_eq!(report.merged, 5);
        assert_eq!(report.rows, 5);
        assert_eq!(report.segments_before, 5);
        assert_eq!(report.segments_after, 1);
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        assert_eq!(store.total_rows().unwrap(), 5);
        for i in 0..5 {
            assert!(
                store
                    .contains_run("c", &format!("r{i}"), "0123456789abcdef")
                    .unwrap(),
                "run key r{i} must survive compaction"
            );
        }
        // Compacting again is a no-op: one segment left, nothing to merge.
        let again = store.compact(CHUNK_ROWS).unwrap();
        assert_eq!(again.merged, 0);
        assert_eq!(store.segment_paths().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_is_deterministic_and_spares_big_segments() {
        let dir_a = scratch("compact-det-a");
        let dir_b = scratch("compact-det-b");
        for dir in [&dir_a, &dir_b] {
            let store = Store::open(dir).unwrap();
            for i in 0..4 {
                let mut b = store.batch();
                b.push(row("c", &format!("r{i}"), i as f64));
                b.commit().unwrap();
            }
            store.compact(CHUNK_ROWS).unwrap();
        }
        let names = |dir: &Path| -> Vec<String> {
            Store::open(dir)
                .unwrap()
                .segment_paths()
                .unwrap()
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(
            names(&dir_a),
            names(&dir_b),
            "same fragments compact to the same content-addressed segment"
        );

        // A segment at/above the row threshold is left untouched.
        let store = Store::open(&dir_a).unwrap();
        let big = store.segment_paths().unwrap()[0].clone();
        let mut b = store.batch();
        b.push(row("c", "extra-1", 9.0));
        b.commit().unwrap();
        let mut b = store.batch();
        b.push(row("c", "extra-2", 10.0));
        b.commit().unwrap();
        let report = store.compact(2).unwrap();
        assert_eq!(report.merged, 2, "only the sub-threshold segments merge");
        assert!(big.exists(), "4-row segment survives a 2-row threshold");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn compact_cleans_stale_tmp_files_from_other_pids() {
        let dir = scratch("compact-tmp");
        let store = Store::open(&dir).unwrap();
        let mut b = store.batch();
        b.push(row("c", "r1", 1.0));
        b.commit().unwrap();
        // A crashed *other* process left a half-written temp file; our own
        // pid's temp file may belong to a live writer thread.
        let stale = dir.join(".tmp-seg-dead.hsc-1");
        let ours = dir.join(format!(".tmp-seg-beef.hsc-{}", std::process::id()));
        std::fs::write(&stale, b"partial").unwrap();
        std::fs::write(&ours, b"partial").unwrap();
        assert_eq!(store.segment_paths().unwrap().len(), 1, "tmp ignored");
        let report = store.compact(CHUNK_ROWS).unwrap();
        assert_eq!(report.tmp_cleaned, 1);
        assert!(!stale.exists(), "stale foreign tmp swept");
        assert!(ours.exists(), "own-pid tmp kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so segment names stay stable across builds.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
