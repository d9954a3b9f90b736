//! Tables: a heap file plus any number of B+tree indexes.

use crate::btree::{BTree, MAX_KEY_WIDTH};
use crate::encode::{decode_key_rid, encode_key, encode_key_into, KeyBuf};
use crate::error::Result;
use crate::heap::{CompressionStats, HeapFile, PageFormat, RowId};
use crate::pagefile::FileId;
use crate::StoreError;
use parking_lot::RwLock;

/// A secondary index over a subset of a table's columns.
///
/// The B+tree key is the order-preserving encoding of the indexed columns
/// followed by the row id, so keys are unique and equal-prefix entries stay
/// adjacent. Because the indexed column values are recoverable from the key
/// itself, predicates over indexed columns are evaluated without touching
/// the heap ("covered" evaluation) — heap fetches happen only for matches.
pub struct Index {
    name: String,
    /// Positions of the indexed columns within the table schema.
    cols: Vec<usize>,
    tree: RwLock<BTree>,
}

impl Index {
    /// The index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column positions.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Bytes used on disk.
    pub fn size_bytes(&self) -> u64 {
        self.tree.read().size_bytes()
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.tree.read().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pool file id of the backing B+tree.
    pub(crate) fn tree_fid(&self) -> FileId {
        self.tree.read().fid()
    }

    /// Replaces the backing tree in place (heap rewrites rebuild every
    /// index because row ids change with the page format).
    pub(crate) fn replace_tree(&self, tree: BTree) {
        *self.tree.write() = tree;
    }
}

/// A table of fixed-width `f64` rows with optional indexes.
pub struct Table {
    name: String,
    cols: Vec<String>,
    heap: RwLock<HeapFile>,
    indexes: RwLock<Vec<std::sync::Arc<Index>>>,
}

impl Table {
    pub(crate) fn new(name: String, cols: Vec<String>, heap: HeapFile) -> Self {
        Self {
            name,
            cols,
            heap: RwLock::new(heap),
            indexes: RwLock::new(Vec::new()),
        }
    }

    pub(crate) fn attach_index(&self, name: String, cols: Vec<usize>, tree: BTree) {
        self.indexes.write().push(std::sync::Arc::new(Index {
            name,
            cols,
            tree: RwLock::new(tree),
        }));
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.cols
    }

    /// Resolves a column name to its position.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.cols
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| StoreError::NotFound(format!("column {name} of table {}", self.name)))
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        self.heap.read().num_rows()
    }

    /// Heap bytes on disk (pages, including the meta page).
    pub fn heap_bytes(&self) -> u64 {
        self.heap.read().size_bytes()
    }

    /// Raw row payload bytes (rows x columns x 8) — the paper's
    /// "feature size" notion, independent of page padding.
    pub fn payload_bytes(&self) -> u64 {
        self.heap.read().payload_bytes()
    }

    /// Total index bytes on disk.
    pub fn index_bytes(&self) -> u64 {
        self.indexes.read().iter().map(|i| i.size_bytes()).sum()
    }

    /// Appends a row, maintaining every index.
    pub fn insert(&self, row: &[f64]) -> Result<RowId> {
        let mut rid = [0];
        self.insert_rows(row, &mut rid)?;
        Ok(rid[0])
    }

    /// Appends `rows` (row-major, whole rows), maintaining every index,
    /// with one acquisition of the heap lock and of each tree lock for
    /// the whole batch. The heap, and each B+tree, receives the rows in
    /// the given order, so every file ends byte for byte as
    /// [`Table::insert`] row by row leaves it.
    pub fn insert_many(&self, rows: &[f64]) -> Result<()> {
        let mut rids = vec![0; rows.len() / self.cols.len()];
        self.insert_rows(rows, &mut rids)
    }

    fn insert_rows(&self, rows: &[f64], rids: &mut [RowId]) -> Result<()> {
        let ncols = self.cols.len();
        assert_eq!(rows.len(), rids.len() * ncols, "row arity mismatch");
        {
            let mut heap = self.heap.write();
            for (row, rid) in rows.chunks_exact(ncols).zip(rids.iter_mut()) {
                *rid = heap.insert(row)?;
            }
        }
        let indexes = self.indexes.read();
        if indexes.is_empty() {
            return Ok(());
        }
        let mut key = [0u8; MAX_KEY_WIDTH];
        for idx in indexes.iter() {
            let key = &mut key[..idx.cols.len() * 8 + 8];
            let mut tree = idx.tree.write();
            for (row, &rid) in rows.chunks_exact(ncols).zip(rids.iter()) {
                encode_key_into(idx.cols.iter().map(|&c| row[c]), rid, key);
                tree.insert(key, rid)?;
            }
        }
        Ok(())
    }

    /// Reads one row by id.
    pub fn fetch(&self, rid: RowId, out: &mut Vec<f64>) -> Result<()> {
        self.heap.read().fetch(rid, out)
    }

    /// Full scan in storage order; return `false` to stop early.
    pub fn seq_scan(&self, visit: impl FnMut(RowId, &[f64]) -> bool) -> Result<()> {
        // HeapFile::scan copies pages out of the pool, so holding the heap
        // lock during the visitor cannot deadlock against the pool. The
        // lock is a read lock: any number of scans proceed in parallel,
        // and only inserts take the heap exclusively.
        self.heap.read().scan(visit)
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Result<std::sync::Arc<Index>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.name == name)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(format!("index {name} on table {}", self.name)))
    }

    /// Names of all indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.read().iter().map(|i| i.name.clone()).collect()
    }

    /// Range scan over an index: visits every entry whose indexed columns
    /// lie lexicographically between `lo` and `hi` (inclusive, in index
    /// column order). The visitor receives the row id and the *indexed*
    /// column values decoded from the key; fetch the full row with
    /// [`Table::fetch`] only when needed.
    pub fn index_scan(
        &self,
        index_name: &str,
        lo: &[f64],
        hi: &[f64],
        mut visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        let idx = self.index(index_name)?;
        let ncols = idx.cols.len();
        assert_eq!(lo.len(), ncols, "lo bound arity");
        assert_eq!(hi.len(), ncols, "hi bound arity");
        let mut lo_key = KeyBuf::new();
        let mut hi_key = KeyBuf::new();
        encode_key(lo, 0, &mut lo_key);
        encode_key(hi, u64::MAX, &mut hi_key);
        let mut cols = vec![0.0f64; ncols];
        let result = idx.tree.read().range(&lo_key, &hi_key, |key, _val| {
            for (i, c) in cols.iter_mut().enumerate() {
                *c = crate::encode::decode_key_col(key, i);
            }
            let rid = decode_key_rid(key, ncols);
            visit(rid, &cols)
        });
        result
    }

    /// Batched variant of [`Table::index_scan`]: runs every `(lo, hi)`
    /// probe in one pass over the index via [`BTree::search_batch`]. The
    /// visitor receives the *range index* (position in `ranges`), the row
    /// id and the decoded indexed columns; entries arrive in key order
    /// within each range, with ranges processed in ascending-`lo` order.
    /// Returning `false` stops the whole batch.
    pub fn index_scan_batch(
        &self,
        index_name: &str,
        ranges: &[(&[f64], &[f64])],
        mut visit: impl FnMut(usize, RowId, &[f64]) -> bool,
    ) -> Result<()> {
        let idx = self.index(index_name)?;
        let ncols = idx.cols.len();
        let mut keys: Vec<(KeyBuf, KeyBuf)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            assert_eq!(lo.len(), ncols, "lo bound arity");
            assert_eq!(hi.len(), ncols, "hi bound arity");
            let mut lo_key = KeyBuf::new();
            let mut hi_key = KeyBuf::new();
            encode_key(lo, 0, &mut lo_key);
            encode_key(hi, u64::MAX, &mut hi_key);
            keys.push((lo_key, hi_key));
        }
        let byte_ranges: Vec<(&[u8], &[u8])> =
            keys.iter().map(|(lo, hi)| (&lo[..], &hi[..])).collect();
        let mut cols = vec![0.0f64; ncols];
        let tree = idx.tree.read();
        let result = tree.search_batch(&byte_ranges, |ri, key, _val| {
            for (i, c) in cols.iter_mut().enumerate() {
                *c = crate::encode::decode_key_col(key, i);
            }
            let rid = decode_key_rid(key, ncols);
            visit(ri, rid, &cols)
        });
        result
    }

    /// Fetches many rows with one page read per distinct page. `rids`
    /// must be sorted ascending (page-major order); see
    /// [`HeapFile::fetch_many`].
    pub fn fetch_many(
        &self,
        rids: &[RowId],
        visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        self.heap.read().fetch_many(rids, visit)
    }

    /// [`Table::fetch_many`] projected onto the contiguous columns
    /// `cols`; see [`HeapFile::fetch_many_cols`].
    pub fn fetch_many_cols(
        &self,
        rids: &[RowId],
        cols: std::ops::Range<usize>,
        visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        self.heap.read().fetch_many_cols(rids, cols, visit)
    }

    /// Page-at-a-time scan with zone-map pruning; see
    /// [`HeapFile::scan_blocks`]. The visitor receives each surviving
    /// page's rows as one row-major block of `n * ncols` values.
    pub fn scan_blocks(
        &self,
        filter: impl FnMut(&[f64], &[f64]) -> bool,
        visit: impl FnMut(&[f64], usize) -> bool,
    ) -> Result<crate::heap::ZoneScanStats> {
        self.heap.read().scan_blocks(filter, visit)
    }

    /// Column-at-a-time scan with the same zone-map pruning as
    /// [`Table::scan_blocks`]; see [`HeapFile::scan_columns`]. Compressed
    /// pages decode straight into the caller's column buffers.
    pub fn scan_columns(
        &self,
        filter: impl FnMut(&[f64], &[f64]) -> bool,
        cols: &mut Vec<Vec<f64>>,
        visit: impl FnMut(&[Vec<f64>], usize) -> bool,
    ) -> Result<crate::heap::ZoneScanStats> {
        self.heap.read().scan_columns(filter, cols, visit)
    }

    /// The data-page format of the backing heap.
    pub fn format(&self) -> PageFormat {
        self.heap.read().format()
    }

    /// The whole-heap `(mins, maxs)` zone summary, when maintained and
    /// non-empty (cloned out of the heap lock).
    pub fn zone_segment_bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        self.heap
            .read()
            .zone_segment_bounds()
            .map(|(mins, maxs)| (mins.to_vec(), maxs.to_vec()))
    }

    /// Segment-level pre-probe pruning: `true` when the whole table's
    /// zone summary fails `filter`, so a non-scan plan may skip it
    /// entirely; see [`HeapFile::prune_whole_segment`].
    pub fn prune_whole_segment(&self, filter: impl FnMut(&[f64], &[f64]) -> bool) -> bool {
        self.heap.read().prune_whole_segment(filter)
    }

    /// Encoded-vs-raw payload accounting over every data page; see
    /// [`HeapFile::compression_stats`].
    pub fn compression_stats(&self) -> Result<CompressionStats> {
        self.heap.read().compression_stats()
    }

    pub(crate) fn heap_fid(&self) -> FileId {
        self.heap.read().fid()
    }

    pub(crate) fn replace_heap(&self, heap: HeapFile) {
        *self.heap.write() = heap;
    }

    pub(crate) fn indexes(&self) -> Vec<std::sync::Arc<Index>> {
        self.indexes.read().clone()
    }

    /// Whether the heap currently maintains a zone map.
    pub fn has_zones(&self) -> bool {
        self.heap.read().has_zones()
    }

    /// Builds the zone map from existing rows when the sidecar was
    /// missing or stale (idempotent); see [`HeapFile::rebuild_zones`].
    pub fn ensure_zones(&self) -> Result<()> {
        self.heap.write().rebuild_zones()
    }

    /// Drops the zone map and its sidecar, disabling pruning (tests and
    /// ablations).
    pub fn drop_zones(&self) {
        self.heap.write().drop_zones()
    }

    /// Persists heap and index metadata (called by `Database::flush`).
    pub(crate) fn sync_meta(&self) -> Result<()> {
        self.heap.read().sync_meta()?;
        for idx in self.indexes.read().iter() {
            idx.tree.read().sync_meta()?;
        }
        Ok(())
    }

    /// Builds index contents from the existing heap rows, one insert at a
    /// time. [`crate::Database::create_index`] uses the much faster
    /// sort-and-bulk-load path instead; this incremental variant remains
    /// for callers that attach an index to a table they keep appending to.
    pub fn backfill_index(&self, index_name: &str) -> Result<()> {
        let idx = self.index(index_name)?;
        let mut key = KeyBuf::new();
        let mut colbuf = Vec::new();
        let mut pending: Vec<(KeyBuf, RowId)> = Vec::new();
        self.heap.read().scan(|rid, row| {
            colbuf.clear();
            colbuf.extend(idx.cols.iter().map(|&c| row[c]));
            encode_key(&colbuf, rid, &mut key);
            pending.push((key.clone(), rid));
            true
        })?;
        let mut tree = idx.tree.write();
        for (k, rid) in pending {
            tree.insert(&k, rid)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::pagefile::PageFile;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn setup(name: &str, cols: &[&str]) -> (Arc<BufferPool>, Table, Vec<PathBuf>) {
        let base =
            std::env::temp_dir().join(format!("pagestore-tbl-{}-{name}", std::process::id()));
        let pool = Arc::new(BufferPool::new(256));
        let heap_path = base.with_extension("tbl");
        let fid = pool.register_file(PageFile::create(&heap_path).unwrap());
        let heap = HeapFile::create(pool.clone(), fid, cols.len(), PageFormat::Raw).unwrap();
        let table = Table::new(
            name.to_string(),
            cols.iter().map(|s| s.to_string()).collect(),
            heap,
        );
        (pool, table, vec![heap_path])
    }

    fn add_index(
        pool: &Arc<BufferPool>,
        table: &Table,
        name: &str,
        cols: Vec<usize>,
        paths: &mut Vec<PathBuf>,
    ) {
        let p = std::env::temp_dir().join(format!(
            "pagestore-tbl-{}-{}-{name}.idx",
            std::process::id(),
            table.name()
        ));
        let fid = pool.register_file(PageFile::create(&p).unwrap());
        let tree = BTree::create(pool.clone(), fid, cols.len() * 8 + 8).unwrap();
        table.attach_index(name.to_string(), cols, tree);
        paths.push(p);
    }

    fn cleanup(paths: &[PathBuf]) {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn insert_scan_fetch() {
        let (_pool, table, paths) = setup("basic", &["dt", "dv", "t"]);
        let r0 = table.insert(&[30.0, -3.0, 0.0]).unwrap();
        table.insert(&[60.0, 1.0, 300.0]).unwrap();
        let mut row = Vec::new();
        table.fetch(r0, &mut row).unwrap();
        assert_eq!(row, vec![30.0, -3.0, 0.0]);
        let mut n = 0;
        table
            .seq_scan(|_, _| {
                n += 1;
                true
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(table.num_rows(), 2);
        cleanup(&paths);
    }

    #[test]
    fn insert_many_leaves_the_files_row_at_a_time_insertion_leaves() {
        // Enough rows, in scattered key order, to split leaves and grow
        // the trees; batches of uneven size, one of them empty.
        let rows: Vec<[f64; 3]> = (0..6000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                [(h % 977) as f64, -((h % 13) as f64), i as f64]
            })
            .collect();
        let build = |name: &str, batched: bool| {
            let (pool, table, mut paths) = setup(name, &["dt", "dv", "t"]);
            add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
            add_index(&pool, &table, "by_t", vec![2], &mut paths);
            if batched {
                let mut rest = rows.as_slice();
                for size in (0..).map(|i| (i * 7) % 40) {
                    let (batch, tail) = rest.split_at(size.min(rest.len()));
                    table.insert_many(batch.concat().as_slice()).unwrap();
                    rest = tail;
                    if rest.is_empty() {
                        break;
                    }
                }
            } else {
                for row in &rows {
                    table.insert(row).unwrap();
                }
            }
            table.sync_meta().unwrap();
            pool.flush_all().unwrap();
            let files: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
            let sizes = (table.num_rows(), table.heap_bytes(), table.index_bytes());
            cleanup(&paths);
            (sizes, files)
        };
        let (one_by_one, batched) = (build("rowwise", false), build("batched", true));
        assert_eq!(one_by_one.0, batched.0);
        assert_eq!(one_by_one.0 .0, 6000);
        assert!(one_by_one.1 == batched.1, "heap or B+tree bytes differ");
    }

    #[test]
    fn insert_many_rejects_a_ragged_batch() {
        let (_pool, table, paths) = setup("ragged", &["a", "b"]);
        let ragged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.insert_many(&[1.0, 2.0, 3.0])
        }));
        cleanup(&paths);
        assert!(ragged.is_err(), "one and a half rows must not be accepted");
    }

    #[test]
    fn index_scan_range_and_residual() {
        let (pool, table, mut paths) = setup("idx", &["dt", "dv", "t"]);
        add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
        for i in 0..2000 {
            let dt = (i % 100) as f64;
            let dv = -((i % 7) as f64);
            table.insert(&[dt, dv, i as f64]).unwrap();
        }
        // All rows with dt <= 10 (prefix range), then residual dv <= -5.
        let mut hits = 0;
        let mut fetched = Vec::new();
        table
            .index_scan(
                "by_dt_dv",
                &[f64::NEG_INFINITY, f64::NEG_INFINITY],
                &[10.0, f64::INFINITY],
                |rid, cols| {
                    assert!(cols[0] <= 10.0);
                    if cols[1] <= -5.0 {
                        hits += 1;
                        table.fetch(rid, &mut fetched).unwrap();
                        assert_eq!(fetched[0], cols[0]);
                        assert_eq!(fetched[1], cols[1]);
                    }
                    true
                },
            )
            .unwrap();
        // Ground truth by sequential scan.
        let mut expect = 0;
        table
            .seq_scan(|_, row| {
                if row[0] <= 10.0 && row[1] <= -5.0 {
                    expect += 1;
                }
                true
            })
            .unwrap();
        assert_eq!(hits, expect);
        assert!(hits > 0);
        cleanup(&paths);
    }

    #[test]
    fn backfill_matches_incremental() {
        let (pool, table, mut paths) = setup("backfill", &["a", "b"]);
        for i in 0..500 {
            table.insert(&[i as f64, (i * i) as f64]).unwrap();
        }
        add_index(&pool, &table, "by_a", vec![0], &mut paths);
        table.backfill_index("by_a").unwrap();
        let idx = table.index("by_a").unwrap();
        assert_eq!(idx.len(), 500);
        let mut seen = Vec::new();
        table
            .index_scan("by_a", &[100.0], &[104.0], |_, cols| {
                seen.push(cols[0]);
                true
            })
            .unwrap();
        assert_eq!(seen, vec![100.0, 101.0, 102.0, 103.0, 104.0]);
        cleanup(&paths);
    }

    #[test]
    fn batch_scan_matches_single_probes_and_fetch_many() {
        let (pool, table, mut paths) = setup("batch", &["dt", "dv", "t"]);
        add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
        for i in 0..3000 {
            let dt = (i % 120) as f64;
            let dv = -((i % 11) as f64);
            table.insert(&[dt, dv, i as f64]).unwrap();
        }
        let neg = f64::NEG_INFINITY;
        let bounds: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![neg, neg], vec![10.0, f64::INFINITY]),
            (vec![50.0, neg], vec![60.0, -5.0]),
            (vec![5.0, neg], vec![15.0, f64::INFINITY]), // overlaps the first
            (vec![500.0, neg], vec![600.0, 0.0]),        // empty
        ];
        let ranges: Vec<(&[f64], &[f64])> = bounds
            .iter()
            .map(|(lo, hi)| (lo.as_slice(), hi.as_slice()))
            .collect();
        let mut batched: Vec<(usize, RowId, Vec<f64>)> = Vec::new();
        table
            .index_scan_batch("by_dt_dv", &ranges, |ri, rid, cols| {
                batched.push((ri, rid, cols.to_vec()));
                true
            })
            .unwrap();
        // Reference: one index_scan per range, ascending-lo order.
        let mut single: Vec<(usize, RowId, Vec<f64>)> = Vec::new();
        for &ri in &[0usize, 2, 1, 3] {
            table
                .index_scan("by_dt_dv", ranges[ri].0, ranges[ri].1, |rid, cols| {
                    single.push((ri, rid, cols.to_vec()));
                    true
                })
                .unwrap();
        }
        assert_eq!(batched, single);
        assert!(batched.iter().any(|(ri, _, _)| *ri == 2), "overlap covered");
        assert!(batched.iter().all(|(ri, _, _)| *ri != 3), "empty range");
        // fetch_many over the sorted, deduped matches agrees with fetch.
        let mut rids: Vec<RowId> = batched.iter().map(|(_, rid, _)| *rid).collect();
        rids.sort_unstable();
        rids.dedup();
        let mut row = Vec::new();
        let mut n = 0;
        table
            .fetch_many(&rids, |rid, cols| {
                table.fetch(rid, &mut row).unwrap();
                assert_eq!(cols, row.as_slice());
                n += 1;
                true
            })
            .unwrap();
        assert_eq!(n, rids.len());
        cleanup(&paths);
    }

    #[test]
    fn scan_blocks_prunes_losslessly() {
        let (_pool, table, paths) = setup("zones", &["dt", "dv"]);
        for i in 0..4000 {
            table.insert(&[i as f64, -((i % 13) as f64)]).unwrap();
        }
        assert!(table.has_zones());
        // Count rows with dt <= 100 via pruned block scan.
        let mut pruned_rows = 0;
        let stats = table
            .scan_blocks(
                |mins, _maxs| mins[0] <= 100.0,
                |block, n| {
                    for r in 0..n {
                        if block[r * 2] <= 100.0 {
                            pruned_rows += 1;
                        }
                    }
                    true
                },
            )
            .unwrap();
        assert!(stats.pages_pruned > 0, "selective scan must prune");
        // Ground truth from the unpruned row scan.
        let mut expect = 0;
        table
            .seq_scan(|_, row| {
                if row[0] <= 100.0 {
                    expect += 1;
                }
                true
            })
            .unwrap();
        assert_eq!(pruned_rows, expect);
        // Dropping zones disables pruning but not the scan itself.
        table.drop_zones();
        assert!(!table.has_zones());
        let stats = table.scan_blocks(|_, _| false, |_, _| true).unwrap();
        assert_eq!(stats.pages_pruned, 0);
        table.ensure_zones().unwrap();
        assert!(table.has_zones());
        cleanup(&paths);
    }

    #[test]
    fn sizes_and_names() {
        let (pool, table, mut paths) = setup("meta", &["x"]);
        add_index(&pool, &table, "by_x", vec![0], &mut paths);
        for i in 0..100 {
            table.insert(&[i as f64]).unwrap();
        }
        assert_eq!(table.payload_bytes(), 800);
        assert!(table.heap_bytes() > 0);
        assert!(table.index_bytes() > 0);
        assert_eq!(table.index_names(), vec!["by_x".to_string()]);
        assert_eq!(table.column_index("x").unwrap(), 0);
        assert!(table.column_index("nope").is_err());
        assert!(table.index("nope").is_err());
        cleanup(&paths);
    }
}
