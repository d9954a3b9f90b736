//! Tables: a heap file plus any number of B+tree indexes, each behind a
//! write buffer that is sorted once per apply.

use crate::btree::{key_cmp, BTree, MAX_KEY_WIDTH};
use crate::encode::{decode_key_col, decode_key_rid, encode_key_into};
use crate::error::Result;
use crate::heap::{CompressionStats, HeapFile, RowId, ScanPage};
use crate::page;
use crate::pagefile::FileId;
use crate::StoreError;
use parking_lot::RwLock;
use std::sync::Arc;

/// How many entries an index holds back in its write buffer before it
/// merges them into the B+tree in one [`BTree::insert_sorted`] pass.
/// Inserts hit random leaves, so a tree of a few dozen leaves — what a
/// month of one sensor's features makes of its largest — takes a dozen
/// or more entries per leaf visit instead of one.
pub const BUFFER_ENTRIES: usize = 512;

/// When index `ordinal` of a table's `n` applies its buffer: every time
/// the entries it has received, modulo [`BUFFER_ENTRIES`], equal this. The
/// indexes of one table fill in lock-step; spreading their phases keeps
/// them from all applying inside one batch.
fn apply_phase(ordinal: usize, n: usize) -> u64 {
    (BUFFER_ENTRIES * (ordinal + 1) / n % BUFFER_ENTRIES) as u64
}

/// What an [`Index`]'s lock guards: the B+tree, and the write buffer that
/// holds the entries the tree has yet to receive. With `s` the heap's
/// [`HeapFile::sealed_rows`], the tree always holds rows
/// `[s, s + tree.len())` of the heap and the buffer the rows after them —
/// the sealed rows have no entry anywhere — so a buffer is never
/// persisted: it is what [`Table::attach_index`] derives from the heap's
/// tail.
///
/// The buffer keeps its keys in arrival order and is sorted once, when it
/// is applied ([`sort_keys`]). Every key ends in its row's id, so no two
/// are equal: the sorted run, and with it the tree file, is the one a
/// buffer kept in key order all along would apply.
struct Buffered {
    tree: BTree,
    /// The buffered keys, `tree.key_width()` bytes each, in arrival order.
    keys: Vec<u8>,
}

impl Buffered {
    fn new(tree: BTree) -> Self {
        Self {
            tree,
            keys: Vec::new(),
        }
    }

    fn buffered(&self) -> usize {
        self.keys.len() / self.tree.key_width()
    }

    /// No entry, applied or buffered.
    fn is_empty(&self) -> bool {
        self.tree.is_empty() && self.keys.is_empty()
    }

    /// Adds `key` to the buffer.
    fn hold(&mut self, key: &[u8]) {
        self.keys.extend_from_slice(key);
    }

    /// Inserts `key`: into the buffer, and the whole buffer, sorted, into
    /// the tree when that made the entries received (applied or buffered)
    /// reach an apply point of `phase`. Apply points depend on that count
    /// alone — not on a commit, flush, read or batch boundary — so one
    /// sequence of rows always builds one tree file, however it was
    /// batched, flushed or reopened on the way.
    fn insert(&mut self, key: &[u8], phase: u64) -> Result<()> {
        self.hold(key);
        self.tree.metrics().inserts.inc();
        let received = self.tree.len() + self.buffered() as u64;
        if received % BUFFER_ENTRIES as u64 != phase {
            return Ok(());
        }
        let Self { tree, keys } = self;
        let kw = tree.key_width();
        sort_keys(keys, kw);
        tree.insert_sorted(keys.len() / kw, |i| &keys[i * kw..][..kw])?;
        keys.clear();
        Ok(())
    }

    /// Visits the buffered keys within `[lo, hi]` in key order; `false`
    /// when the visitor stopped the scan. The buffer is filtered, and only
    /// the keys in range are sorted.
    fn scan(&self, lo: &[u8], hi: &[u8], mut visit: impl FnMut(&[u8]) -> bool) -> bool {
        if self.keys.is_empty() {
            return true;
        }
        let kw = lo.len();
        let within = |key: &&[u8]| key_cmp(key, lo).is_ge() && key_cmp(key, hi).is_le();
        let mut run: Vec<u8> = (self.keys.chunks_exact(kw).filter(within))
            .flatten()
            .copied()
            .collect();
        sort_keys(&mut run, kw);
        let mut visited = 0;
        let more = run.chunks_exact(kw).all(|key| {
            visited += 1;
            visit(key)
        });
        self.tree.metrics().entries_scanned.add(visited);
        more
    }
}

/// Sorts the `kw`-byte keys of `keys` into [`key_cmp`]'s order, in place.
/// A table's key is whole big-endian words, its columns and then its row
/// id: each key of up to five words is decoded once into a record of
/// words, and the records are sorted, comparing `u64`s instead of decoding
/// bytes at every comparison. Wider keys sort through [`key_cmp`].
fn sort_keys(keys: &mut [u8], kw: usize) {
    match (kw % 8, kw / 8) {
        (0, 2) => sort_records::<2>(keys),
        (0, 3) => sort_records::<3>(keys),
        (0, 4) => sort_records::<4>(keys),
        (0, 5) => sort_records::<5>(keys),
        _ => {
            let mut sorted: Vec<&[u8]> = keys.chunks_exact(kw).collect();
            sorted.sort_unstable_by(|a, b| key_cmp(a, b));
            let sorted: Vec<u8> = sorted.concat();
            keys.copy_from_slice(&sorted);
        }
    }
}

/// [`sort_keys`] for keys of `N` words.
fn sort_records<const N: usize>(keys: &mut [u8]) {
    let mut records: Vec<[u64; N]> = (keys.chunks_exact(8 * N))
        .map(|key| std::array::from_fn(|j| u64::from_be_bytes(page::arr(key, 8 * j))))
        .collect();
    records.sort_unstable();
    for (key, record) in keys.chunks_exact_mut(8 * N).zip(&records) {
        for (bytes, word) in key.chunks_exact_mut(8).zip(record) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }
}

/// A secondary index over a subset of a table's columns.
///
/// The B+tree key is the order-preserving encoding of the indexed columns
/// followed by the row id — the whole entry: the row id is read back out
/// of the key — so keys are unique and equal-prefix entries stay adjacent.
/// Because the indexed column values are recoverable from the key itself,
/// predicates over indexed columns are evaluated without touching the
/// heap ("covered" evaluation) — heap fetches happen only for matches.
pub struct Index {
    name: String,
    /// Positions of the indexed columns within the table schema.
    cols: Vec<usize>,
    tree: RwLock<Buffered>,
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

    /// Bytes used on disk (the tree file; buffered entries are not
    /// stored).
    pub fn size_bytes(&self) -> u64 {
        self.tree.read().tree.size_bytes()
    }

    /// Number of entries, buffered ones included.
    pub fn len(&self) -> u64 {
        let guard = self.tree.read();
        guard.tree.len() + guard.buffered() as u64
    }

    /// How many of the entries sit in the write buffer, yet to be merged
    /// into the tree.
    pub fn buffered(&self) -> usize {
        self.tree.read().buffered()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pool file id of the backing B+tree.
    pub(crate) fn tree_fid(&self) -> FileId {
        self.tree.read().tree.fid()
    }

    /// The keys that bound the entries whose indexed columns lie between
    /// `lo` and `hi`: below and above every row id.
    fn bounds(&self, lo: &[f64], hi: &[f64]) -> (Vec<u8>, Vec<u8>) {
        let key = |cols: &[f64], rid: u64| {
            assert_eq!(cols.len(), self.cols.len(), "bound arity");
            let mut key = vec![0u8; cols.len() * 8 + 8];
            encode_key_into(cols.iter().copied(), rid, &mut key);
            key
        };
        (key(lo, 0), key(hi, u64::MAX))
    }

    /// Replaces the backing tree in place (a seal rebuilds every index:
    /// the rows it moves into columnar pages change their ids). The new tree
    /// holds every row behind the sealed ones, so the buffer starts empty.
    pub(crate) fn replace_tree(&self, tree: BTree) {
        *self.tree.write() = Buffered::new(tree);
    }
}

/// Decodes an index entry: its indexed columns into `cols`, and its row id.
#[inline]
fn decode_entry(key: &[u8], cols: &mut [f64]) -> RowId {
    for (i, c) in cols.iter_mut().enumerate() {
        *c = decode_key_col(key, i);
    }
    decode_key_rid(key, cols.len())
}

/// A table of fixed-width `f64` rows with optional indexes.
pub struct Table {
    name: String,
    cols: Vec<String>,
    heap: RwLock<HeapFile>,
    indexes: RwLock<Vec<Arc<Index>>>,
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

    /// Attaches `tree` as an index over `cols`. A tree that holds fewer
    /// entries than the heap holds rows behind its sealed ones was
    /// persisted with the rest in its buffer: those are the heap's last
    /// rows, and the buffer is derived from them again (reading the heap's
    /// tail, not the heap).
    pub(crate) fn attach_index(&self, name: String, cols: Vec<usize>, tree: BTree) -> Result<()> {
        let mut tree = Buffered::new(tree);
        let mut key = [0u8; MAX_KEY_WIDTH];
        let key = &mut key[..cols.len() * 8 + 8];
        let heap = self.heap.read();
        heap.scan(heap.sealed_rows() + tree.tree.len(), |rid, row| {
            encode_key_into(cols.iter().map(|&c| row[c]), rid, key);
            tree.hold(key);
            true
        })?;
        self.indexes.write().push(Arc::new(Index {
            name,
            cols,
            tree: RwLock::new(tree),
        }));
        Ok(())
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

    /// How many leading rows are sealed: written into columnar pages by
    /// [`crate::Database::seal_table`], indexed by no B+tree, read through
    /// [`Table::scan_pages`] over `..sealed_rows`; see
    /// [`HeapFile::sealed_rows`].
    pub fn sealed_rows(&self) -> u64 {
        self.heap.read().sealed_rows()
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
    /// the whole batch. The heap, and each index, receives the rows in
    /// the given order, and an index applies its buffer at the same rows
    /// wherever a batch ends, so every file ends byte for byte as
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
        for (ordinal, idx) in indexes.iter().enumerate() {
            let key = &mut key[..idx.cols.len() * 8 + 8];
            let phase = apply_phase(ordinal, indexes.len());
            let mut tree = idx.tree.write();
            for (row, &rid) in rows.chunks_exact(ncols).zip(rids.iter()) {
                encode_key_into(idx.cols.iter().map(|&c| row[c]), rid, key);
                tree.insert(key, phase)?;
            }
        }
        Ok(())
    }

    /// Full scan in storage order; return `false` to stop early.
    pub fn seq_scan(&self, visit: impl FnMut(RowId, &[f64]) -> bool) -> Result<()> {
        // HeapFile::scan copies pages out of the pool, so holding the heap
        // lock during the visitor cannot deadlock against the pool. The
        // lock is a read lock: any number of scans proceed in parallel,
        // and only inserts take the heap exclusively.
        self.heap.read().scan(0, visit)
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Result<Arc<Index>> {
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
    /// column values decoded from the key; fetch the full rows with
    /// [`Table::fetch_many`] only when needed. An index has no entry for a
    /// sealed row ([`Table::sealed_rows`]), and an empty one is not read.
    ///
    /// Entries arrive as two key-ordered runs, tree first: what the
    /// B+tree holds of the range, then what the write buffer holds of it.
    pub fn index_scan(
        &self,
        index_name: &str,
        lo: &[f64],
        hi: &[f64],
        mut visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        let idx = self.index(index_name)?;
        let guard = idx.tree.read();
        if guard.is_empty() {
            return Ok(());
        }
        let (lo, hi) = idx.bounds(lo, hi);
        let mut cols = vec![0.0f64; idx.cols.len()];
        let mut emit = |key: &[u8]| visit(decode_entry(key, &mut cols), &cols);
        let mut more = true;
        guard.tree.range(&lo, &hi, |key| {
            more = emit(key);
            more
        })?;
        if more {
            guard.scan(&lo, &hi, emit);
        }
        Ok(())
    }

    /// Fetches many rows with one page read per distinct page. `rids`
    /// must be sorted ascending (page-major order); see
    /// [`HeapFile::fetch_many_cols`].
    pub fn fetch_many(
        &self,
        rids: &[RowId],
        visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        self.fetch_many_cols(rids, 0..self.cols.len(), visit)
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

    /// Page-at-a-time scan of the rows `rows`, skipped whole when the
    /// table's zone summary fails `filter`, the visitor choosing which columns of each surviving page to decode,
    /// and when; see [`HeapFile::scan_pages`].
    pub fn scan_pages(
        &self,
        rows: impl std::ops::RangeBounds<u64>,
        filter: impl FnMut(&[f64], &[f64]) -> bool,
        visit: impl FnMut(&ScanPage<'_>) -> Result<bool>,
    ) -> Result<crate::heap::ZoneScanStats> {
        self.heap.read().scan_pages(rows, filter, visit)
    }

    /// [`Table::scan_pages`] with every column decoded into the caller's
    /// column buffers; see [`HeapFile::scan_columns`].
    pub fn scan_columns(
        &self,
        filter: impl FnMut(&[f64], &[f64]) -> bool,
        cols: &mut Vec<Vec<f64>>,
        visit: impl FnMut(&[Vec<f64>], usize) -> bool,
    ) -> Result<crate::heap::ZoneScanStats> {
        self.heap.read().scan_columns(filter, cols, visit)
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

    pub(crate) fn indexes(&self) -> Vec<Arc<Index>> {
        self.indexes.read().clone()
    }

    /// Persists heap and index metadata (called by `Database::flush`). A
    /// tree's meta page records the entries applied to it; the ones still
    /// buffered are rows of the heap, and persisted as such.
    pub(crate) fn sync_meta(&self) -> Result<()> {
        self.heap.read().sync_meta()?;
        for idx in self.indexes.read().iter() {
            idx.tree.read().tree.sync_meta()?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl Table {
    /// See [`HeapFile::assert_one_layout`].
    pub(crate) fn assert_one_layout(&self) {
        self.heap.read().assert_one_layout()
    }

    /// Every row as bit patterns, in bit order, read two ways: by a full
    /// scan, and by the sealed pages plus every entry of the tree `tree` —
    /// which must agree, each row once.
    pub(crate) fn rows_by_scan_and_by_seal_and_tree(&self, tree: &str) -> [Vec<Vec<u64>>; 2] {
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut scanned = Vec::new();
        self.seq_scan(|_, row| {
            scanned.push(bits(row));
            true
        })
        .unwrap();
        let mut cols = vec![Vec::new(); self.cols.len()];
        let mut found = Vec::new();
        self.scan_pages(
            ..self.sealed_rows(),
            |_, _| true,
            |page| {
                page.columns(0..cols.len(), &mut cols)?;
                found.extend(
                    (0..page.rows()).map(|r| cols.iter().map(|c| c[r].to_bits()).collect()),
                );
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(found.len() as u64, self.sealed_rows(), "sealed pages");
        let width = self.index(tree).unwrap().cols().len();
        let (lo, hi) = (vec![f64::NEG_INFINITY; width], vec![f64::INFINITY; width]);
        let mut rids = Vec::new();
        self.index_scan(tree, &lo, &hi, |rid, _| {
            rids.push(rid);
            true
        })
        .unwrap();
        rids.sort_unstable();
        self.fetch_many(&rids, |_, row| {
            found.push(bits(row));
            true
        })
        .unwrap();
        scanned.sort_unstable();
        found.sort_unstable();
        [scanned, found]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::pagefile::PageFile;
    use crate::vfs::OsVfs;
    use std::path::PathBuf;

    fn setup(name: &str, cols: &[&str]) -> (Arc<BufferPool>, Table, Vec<PathBuf>) {
        let base =
            std::env::temp_dir().join(format!("pagestore-tbl-{}-{name}", std::process::id()));
        let pool = Arc::new(BufferPool::new(256));
        let heap_path = base.with_extension("tbl");
        let fid = pool.register_file(PageFile::create(&OsVfs, &heap_path).unwrap());
        let heap = HeapFile::open(pool.clone(), fid, cols.len()).unwrap();
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
        let fid = pool.register_file(PageFile::create(&OsVfs, &p).unwrap());
        let tree = BTree::open(pool.clone(), fid, cols.len() * 8 + 8).unwrap();
        table.attach_index(name.to_string(), cols, tree).unwrap();
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
        let r1 = table.insert(&[60.0, 1.0, 300.0]).unwrap();
        let mut rows = Vec::new();
        table
            .fetch_many(&[r0, r1], |_, row| {
                rows.push(row.to_vec());
                true
            })
            .unwrap();
        assert_eq!(rows, [[30.0, -3.0, 0.0], [60.0, 1.0, 300.0]]);
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
        // the trees; batches of uneven size, one of them empty, many of
        // them straddling a point where a tree applies its buffer.
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
                let mut straddled = 0;
                for size in (0..).map(|i| (i * 7) % 40) {
                    let (batch, tail) = rest.split_at(size.min(rest.len()));
                    // Two trees: they apply at every multiple of half a
                    // buffer between them.
                    let stored = rows.len() - rest.len();
                    let next = (stored / (BUFFER_ENTRIES / 2) + 1) * (BUFFER_ENTRIES / 2);
                    straddled += usize::from(stored + batch.len() > next);
                    table.insert_many(batch.concat().as_slice()).unwrap();
                    rest = tail;
                    if rest.is_empty() {
                        break;
                    }
                }
                assert!(straddled > 10, "{straddled} batches straddled an apply");
            } else {
                for row in &rows {
                    table.insert(row).unwrap();
                }
            }
            for tree in ["by_dt_dv", "by_t"] {
                let tree = table.index(tree).unwrap();
                assert_eq!(tree.len(), 6000);
                assert!(tree.buffered() > 0 && tree.buffered() < BUFFER_ENTRIES);
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
        // The heap, `by_dt_dv` and `by_t` as a buffer kept in key order
        // (one binary-search insert a key) built them: sorting once per
        // apply changes no byte.
        let fnv = |file: &[u8]| {
            (file.iter()).fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
        };
        let digests: Vec<(usize, u64)> = (one_by_one.1.iter())
            .map(|file| (file.len(), fnv(file)))
            .collect();
        assert_eq!(
            digests,
            [
                (151_552, 0xC58C_3714_067F_CC54),
                (225_280, 0xE7C5_2DF4_2EDD_6A51),
                (188_416, 0xC609_6E50_B3E4_89BE),
            ]
        );
    }

    #[test]
    fn an_apply_sorts_keys_as_key_cmp_orders_them() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        // Few distinct values, so runs of keys share their leading words
        // and the order is decided in a later word or in the row id.
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(46);
        for case in 0..400 {
            // Records of two, three and five words, and the wide path.
            let cols = [1, 2, 4, 6][case % 4];
            let kw = cols * 8 + 8;
            let n = rng.random_range(0..2 * BUFFER_ENTRIES);
            let mut keys = vec![0u8; n * kw];
            for key in keys.chunks_exact_mut(kw) {
                let row: Vec<f64> = (0..cols)
                    .map(|_| values[rng.random_range(0..values.len())])
                    .collect();
                encode_key_into(row, rng.random_range(0..64u64), key);
            }
            let mut want: Vec<&[u8]> = keys.chunks_exact(kw).collect();
            want.sort_by(|a, b| key_cmp(a, b));
            let want = want.concat();
            sort_keys(&mut keys, kw);
            assert!(keys == want, "case {case}: {n} keys of {kw} bytes");
        }
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
        table
            .index_scan(
                "by_dt_dv",
                &[f64::NEG_INFINITY, f64::NEG_INFINITY],
                &[10.0, f64::INFINITY],
                |rid, cols| {
                    assert!(cols[0] <= 10.0);
                    if cols[1] <= -5.0 {
                        hits += 1;
                        table
                            .fetch_many(&[rid], |_, row| {
                                assert_eq!(&row[..2], cols);
                                true
                            })
                            .unwrap();
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
    fn index_scans_read_through_the_write_buffer_after_every_insert() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let (pool, table, mut paths) = setup("readthrough", &["dt", "dv", "t"]);
        add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
        add_index(&pool, &table, "by_t_dt", vec![2, 0], &mut paths);
        let mut rng = StdRng::seed_from_u64(3000);
        // What each tree should hold: (its key columns, row id).
        let mut stored: [Vec<(Vec<f64>, RowId)>; 2] = Default::default();
        let mut buffered_scans = 0;
        for _ in 0..3000 {
            let row = [
                rng.random_range(0..40u32) as f64,
                -(rng.random_range(0..500u32) as f64) / 7.0,
                rng.random_range(0..200u32) as f64,
            ];
            let rid = table.insert(&row).unwrap();
            stored[0].push((vec![row[0], row[1]], rid));
            stored[1].push((vec![row[2], row[0]], rid));
            for (tree, stored) in ["by_dt_dv", "by_t_dt"].into_iter().zip(&stored) {
                let lead = if tree == "by_dt_dv" { 40u32 } else { 200 };
                let a = rng.random_range(0..lead) as f64;
                let b = a + rng.random_range(0..lead / 4) as f64;
                let (lo, hi) = ([a, f64::NEG_INFINITY], [b, f64::INFINITY]);
                let mut got: Vec<(Vec<f64>, RowId)> = Vec::new();
                table
                    .index_scan(tree, &lo, &hi, |rid, cols| {
                        got.push((cols.to_vec(), rid));
                        true
                    })
                    .unwrap();
                // Two key-ordered runs at most: the tree's, the buffer's.
                let before = |x: &(Vec<f64>, RowId), y: &(Vec<f64>, RowId)| {
                    x.partial_cmp(y) == Some(std::cmp::Ordering::Less)
                };
                let descents = got.windows(2).filter(|w| !before(&w[0], &w[1])).count();
                assert!(descents <= 1, "{tree}: {descents} breaks of key order");
                let mut want: Vec<_> = stored
                    .iter()
                    .filter(|(cols, _)| a <= cols[0] && cols[0] <= b)
                    .cloned()
                    .collect();
                got.sort_by(|x, y| x.partial_cmp(y).unwrap());
                want.sort_by(|x, y| x.partial_cmp(y).unwrap());
                assert_eq!(got, want, "{tree} over [{a}, {b}]");
                buffered_scans += usize::from(table.index(tree).unwrap().buffered() > 0);
            }
        }
        assert!(buffered_scans > 5000, "{buffered_scans} scans met a buffer");
        cleanup(&paths);
    }

    #[test]
    fn probing_an_empty_index_asks_nothing_of_the_pool() {
        let (pool, table, mut paths) = setup("emptyprobe", &["dt", "dv"]);
        add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
        pool.clear_cache().unwrap();
        let before = pool.stats();
        let (lo, hi) = ([f64::NEG_INFINITY; 2], [f64::INFINITY; 2]);
        let mut seen = 0;
        table
            .index_scan("by_dt_dv", &lo, &hi, |_, _| {
                seen += 1;
                true
            })
            .unwrap();
        let io = pool.stats().since(&before);
        assert_eq!((seen, io.hits + io.misses), (0, 0), "{io:?}");
        // One buffered entry is an entry: still no tree page, but found.
        table.insert(&[1.0, 2.0]).unwrap();
        table
            .index_scan("by_dt_dv", &lo, &hi, |_, cols| {
                assert_eq!(cols, [1.0, 2.0]);
                seen += 1;
                true
            })
            .unwrap();
        assert_eq!(seen, 1);
        cleanup(&paths);
    }

    #[test]
    fn scans_through_tree_and_buffer_deliver_and_count_exactly() {
        let (pool, table, mut paths) = setup("runs", &["dt", "dv", "t"]);
        add_index(&pool, &table, "by_dt_dv", vec![0, 1], &mut paths);
        let mut rows: Vec<(f64, f64, RowId)> = Vec::new();
        for i in 0..3000u64 {
            let row = [(i * 37 % 120) as f64, -((i % 11) as f64) - 1.0, i as f64];
            rows.push((row[0], row[1], table.insert(&row).unwrap()));
        }
        let idx = table.index("by_dt_dv").unwrap();
        let in_tree = idx.len() as usize - idx.buffered();
        assert!(idx.buffered() > 100 && in_tree > 2000);
        let scanned = idx.tree.write().tree.count_scans_apart();
        // What a store holds of `[lo, hi]`, in key order.
        let run = |part: &[(f64, f64, RowId)], lo: f64, hi: f64| {
            let mut run: Vec<_> = part
                .iter()
                .filter(|r| lo <= r.0 && r.0 <= hi)
                .copied()
                .collect();
            run.sort_by(|x, y| x.partial_cmp(y).unwrap());
            run
        };
        let (neg, inf) = (f64::NEG_INFINITY, f64::INFINITY);
        for (lo, hi) in [
            (neg, 10.0),
            (50.0, 60.5),
            (119.0, 500.0),
            (200.0, 300.0),
            (neg, inf),
        ] {
            let mut want = run(&rows[..in_tree], lo, hi);
            let from_tree = want.len();
            want.extend(run(&rows[in_tree..], lo, hi));
            // Never stopped; stopped at the first entry, on the tree run's
            // last entry, on the buffer run's first and on the last of all.
            for stop in [usize::MAX, 1, from_tree, from_tree + 1, want.len()] {
                let stop = stop.max(1);
                let want: Vec<_> = want.iter().copied().take(stop).collect();
                let (lo, hi) = ([lo, neg], [hi, inf]);
                let before = scanned.get();
                let mut got = Vec::new();
                table
                    .index_scan("by_dt_dv", &lo, &hi, |rid, cols| {
                        got.push((cols[0], cols[1], rid));
                        got.len() < stop
                    })
                    .unwrap();
                assert!(got == want, "scan over {lo:?}..{hi:?}, stop {stop}");
                assert_eq!(scanned.get() - before, want.len() as u64, "count");
            }
        }
        cleanup(&paths);
    }

    #[test]
    fn scan_columns_prunes_losslessly() {
        let (_pool, table, paths) = setup("zones", &["dt", "dv"]);
        for i in 0..4000 {
            table.insert(&[i as f64, -((i % 13) as f64)]).unwrap();
        }
        // Count rows with dt <= 100 via the pruned page scan.
        let mut pruned_rows = 0;
        let mut cols = Vec::new();
        let stats = table
            .scan_columns(
                |mins, _maxs| mins[0] <= 100.0,
                &mut cols,
                |cols, n| {
                    pruned_rows += cols[0][..n].iter().filter(|&&dt| dt <= 100.0).count();
                    true
                },
            )
            .unwrap();
        // The whole-table summary admits the region: every page is read.
        assert_eq!(stats.pages_pruned, 0);
        assert!(stats.pages_scanned > 1);
        // A region below every row: the summary skips every page.
        let skipped = table
            .scan_columns(|mins, _maxs| mins[0] <= -1.0, &mut cols, |_, _| true)
            .unwrap();
        assert_eq!(
            (skipped.pages_scanned, skipped.pages_pruned),
            (0, stats.pages_scanned)
        );
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
        cleanup(&paths);
    }

    #[test]
    fn a_raw_page_short_of_its_rows_is_corrupt_on_every_read_path() {
        let (pool, table, paths) = setup("short", &["a", "b"]);
        for i in 0..1000 {
            table.insert(&[i as f64, 0.0]).unwrap();
        }
        let mut last = 0;
        table
            .seq_scan(|rid, _| {
                last = rid;
                true
            })
            .unwrap();
        // The last raw page holds 1000 - 3 * 255 rows by its position; its
        // header is made to say 100.
        let pid = (last >> 16) as u32;
        assert_eq!(last & 0xFFFF, 234);
        pool.with_page_mut(table.heap_fid(), pid, |b| crate::page::put_u16(b, 0, 100))
            .unwrap();
        let corrupt = |r: Result<()>| matches!(r, Err(StoreError::Corrupt(_)));
        let pages = table.scan_pages(.., |_, _| true, |_| Ok(true));
        assert!(corrupt(pages.map(|_| ())), "scan_pages");
        assert!(corrupt(table.seq_scan(|_, _| true)), "seq_scan");
        let cols = table.scan_columns(|_, _| true, &mut Vec::new(), |_, _| true);
        assert!(corrupt(cols.map(|_| ())), "scan_columns");
        // Even a row the header still counts: the page is short.
        let first = (pid as u64) << 16;
        assert!(
            corrupt(table.fetch_many_cols(&[first], 0..2, |_, _| true)),
            "fetch"
        );
        cleanup(&paths);
    }

    #[test]
    fn sizes_and_names() {
        let (pool, table, mut paths) = setup("meta", &["x"]);
        add_index(&pool, &table, "by_x", vec![0], &mut paths);
        assert_eq!((table.heap_bytes(), table.index_bytes()), (0, 0));
        // Past the buffer's first apply, so the tree holds entries.
        for i in 0..BUFFER_ENTRIES {
            table.insert(&[i as f64]).unwrap();
        }
        assert_eq!(table.payload_bytes(), 8 * BUFFER_ENTRIES as u64);
        assert!(table.heap_bytes() > 0);
        assert!(table.index_bytes() > 0);
        assert_eq!(table.index_names(), vec!["by_x".to_string()]);
        assert_eq!(table.column_index("x").unwrap(), 0);
        assert!(table.column_index("nope").is_err());
        assert!(table.index("nope").is_err());
        cleanup(&paths);
    }
}
