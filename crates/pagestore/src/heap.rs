//! Append-only heap files of `f64` rows: sealed columnar pages, then a raw
//! tail.

use crate::buffer::BufferPool;
use crate::colpage::{self, ColPageBuilder};
use crate::error::Result;
use crate::page::{self, PageBuf};
use crate::pagefile::{FileId, PageFile};
use crate::vfs::Vfs;
use crate::zonemap::ZoneMap;
use crate::{StoreError, PAGE_SIZE};
use std::ops::{Bound, Range, RangeBounds};
use std::path::Path;
use std::sync::Arc;

/// Identifies a row: the data page number in the high bits, the slot within
/// the page in the low 16 bits.
pub type RowId = u64;

pub(crate) const MAGIC: u32 = 0x5344_4850; // "SDHP"
pub(crate) const PAGE_HDR: usize = 8; // u16 row count + format tag + padding
/// Byte offset on the meta page of a u16 that reads 1 when columnar pages
/// lead the file (and open walks their headers), 0 when every page is raw.
pub(crate) const META_COLUMNAR: usize = 16;
/// Byte offset of the sealed row count (a u64) on the meta page; heaps
/// written before it existed hold zeros there.
pub(crate) const META_SEALED_ROWS: usize = 24;
const META_PAGE: u32 = 0;
/// Why a row count that falls inside a columnar page is corruption: this
/// release appends to raw pages alone, so only an earlier one, killed while
/// it ingested behind a compaction, leaves such a heap.
pub(crate) const RELEASE_RULE: &str =
    "a store killed while ingesting behind a compaction is recovered by the release that wrote it";

/// How many rows of `ncols` columns a raw page holds; a count no heap can
/// have (`file` names the heap in the error) is corruption.
pub(crate) fn raw_rows_per_page(ncols: usize, file: &Path) -> Result<usize> {
    if ncols == 0 || ncols * 8 > PAGE_SIZE - PAGE_HDR {
        return Err(StoreError::Corrupt(format!(
            "{}: impossible column count {ncols}",
            file.display()
        )));
    }
    Ok((PAGE_SIZE - PAGE_HDR) / (ncols * 8))
}

/// Fills in a heap's meta page.
fn put_meta(b: &mut [u8; PAGE_SIZE], ncols: usize, nrows: u64, sealed_rows: u64) {
    page::put_u32(b, 0, MAGIC);
    page::put_u16(b, 4, ncols as u16);
    page::put_u64(b, 8, nrows);
    page::put_u16(b, META_COLUMNAR, u16::from(sealed_rows > 0));
    page::put_u64(b, META_SEALED_ROWS, sealed_rows);
}

#[inline]
fn rid(page: u32, slot: u16) -> RowId {
    ((page as u64) << 16) | slot as u64
}

#[inline]
fn rid_parts(r: RowId) -> (u32, u16) {
    ((r >> 16) as u32, (r & 0xFFFF) as u16)
}

/// An append-only table file of rows with a fixed number of `f64` columns.
///
/// A heap with no row owns no page: its file is empty, and its column
/// count is the catalogue's. The first row takes page 0, which holds
/// metadata (magic, column count, row count, sealed row count); data
/// pages follow, in one layout: pages `1..=sealed_pages` are
/// compressed [`crate::colpage`] pages holding exactly the `sealed_rows`
/// rows the last seal wrote, and every page behind them is a raw page of
/// fixed-width little-endian rows, so row `k >= sealed_rows` lives at page
/// `sealed_pages + 1 + (k - sealed_rows) / rows_per_page`. Rows arrive on
/// the raw tail and move into columnar pages only by being sealed. All
/// I/O goes through the shared [`BufferPool`].
///
/// Every page holds the rows its position says: a sealed page the rows
/// its header said when the heap was opened, a raw page its share of the
/// row count. A page whose header holds fewer is corrupt; one that holds
/// more carries a crash's leftovers, which no reader sees.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    fid: FileId,
    ncols: usize,
    /// Rows a raw page holds.
    rows_per_page: usize,
    nrows: u64,
    /// Where the sealed rows ([`HeapFile::sealed_rows`]) start each page
    /// and, last, how many they are: sealed page `p` holds rows
    /// `sealed_bounds[p - 1]..sealed_bounds[p]`. `[0]` when none is sealed.
    sealed_bounds: Vec<u64>,
    /// The whole-heap min/max column summary of every stored row: built
    /// by the open's scan, or installed by the rewrite that wrote the
    /// file, and folded into on insert.
    zones: ZoneMap,
}

/// Page-skip accounting returned by the page scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneScanStats {
    /// Data pages whose rows were decoded and visited.
    pub pages_scanned: u64,
    /// Data pages skipped because the whole-heap summary failed the
    /// filter.
    pub pages_pruned: u64,
}

/// Compression accounting for one heap (see
/// [`HeapFile::compression_stats`]). `raw_bytes` is what the rows would
/// occupy as fixed-width f64 payload; `stored_bytes` is the encoded
/// payload actually stored (directory overhead included for columnar
/// pages).
#[derive(Debug, Clone, Default)]
pub struct CompressionStats {
    /// Data pages inspected.
    pub pages: u64,
    /// Fixed-width payload bytes the stored rows represent.
    pub raw_bytes: u64,
    /// Encoded payload bytes actually stored.
    pub stored_bytes: u64,
    /// Per-column encoded payload bytes.
    pub col_stored: Vec<u64>,
    /// Per-column fixed-width payload bytes.
    pub col_raw: Vec<u64>,
    /// Column payloads that fell back to the raw encoding.
    pub raw_fallback_cols: u64,
}

impl CompressionStats {
    /// Overall compression ratio (≥ 1.0 means the encoding paid off).
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// One data page of a [`HeapFile::scan_pages`] scan, copied out of the
/// pool and not yet decoded: the rows of the scanned range it holds.
pub struct ScanPage<'a> {
    heap: &'a HeapFile,
    buf: &'a PageBuf,
    pid: u32,
    /// The page's slots that hold rows of the range.
    slots: Range<usize>,
    /// Columnar decodes so far: `colpage.pages_decoded` counts the page
    /// once, however many projections read it.
    decoded: std::cell::Cell<u64>,
}

impl ScanPage<'_> {
    /// Rows of the range on the page.
    pub fn rows(&self) -> usize {
        self.slots.len()
    }

    /// The id of the page's `r`-th row of the range.
    pub fn row_id(&self, r: usize) -> RowId {
        rid(self.pid, (self.slots.start + r) as u16)
    }

    /// Decodes (a columnar page) or transposes (a raw one) the contiguous
    /// columns `range` into `cols`, one buffer per column of `range`, each
    /// cleared first and left holding the range's values in slot order.
    ///
    /// # Panics
    ///
    /// Panics unless `range` lies within the heap's columns and `cols`
    /// has one buffer per column of it.
    pub fn columns(&self, range: Range<usize>, cols: &mut [Vec<f64>]) -> Result<()> {
        assert!(
            range.end <= self.heap.ncols && cols.len() == range.len(),
            "column range {range:?} of {} into {} buffers",
            self.heap.ncols,
            cols.len()
        );
        let mut decoded = self.decoded.get();
        let read = self
            .heap
            .decode_page_columns(self.buf, range, cols, &mut decoded);
        self.decoded.set(decoded);
        for col in cols.iter_mut() {
            col.truncate(self.slots.end);
            col.drain(..self.slots.start);
        }
        read
    }
}

impl HeapFile {
    /// Opens the heap in file `fid`, whose rows have `ncols` columns (the
    /// catalogue's count; a meta page that says otherwise is corrupt). A
    /// file of no page — a new heap, or one every row was cut from — is an
    /// empty heap.
    ///
    /// The columnar pages that lead the file are the sealed rows, whatever
    /// wrote them: a heap an earlier release compacted and then appended
    /// to in columnar pages has every such row sealed where it stands
    /// (its meta count, which ends on one of those pages, is brought up to
    /// date by the next flush), and the next row opens a raw page.
    ///
    /// The zone map is built here, with one scan of the rows.
    pub fn open(pool: Arc<BufferPool>, fid: FileId, ncols: usize) -> Result<Self> {
        let mut heap = Self::open_meta(pool, fid, ncols)?;
        let mut zones = ZoneMap::new(ncols);
        heap.scan(0, |_, row| {
            zones.observe(row);
            true
        })?;
        heap.zones = zones;
        Ok(heap)
    }

    /// [`HeapFile::open`] of a file [`HeapFile::write`] just wrote, with
    /// the zone map that write returned instead of a second scan.
    pub(crate) fn open_written(
        pool: Arc<BufferPool>,
        fid: FileId,
        ncols: usize,
        zones: ZoneMap,
    ) -> Result<Self> {
        let heap = Self::open_meta(pool, fid, ncols)?;
        debug_assert_eq!(zones.num_rows(), heap.nrows);
        Ok(Self { zones, ..heap })
    }

    /// The heap in file `fid` as its meta page and page headers say, with
    /// an empty zone map.
    fn open_meta(pool: Arc<BufferPool>, fid: FileId, ncols: usize) -> Result<Self> {
        let path = pool.file_path(fid);
        let npages = pool.file_pages(fid);
        let (magic, on_file, nrows, columnar, meta_sealed) = match npages {
            0 => (MAGIC, ncols, 0, 0, 0),
            _ => pool.with_page(fid, META_PAGE, |b| {
                (
                    page::get_u32(b, 0),
                    page::get_u16(b, 4) as usize,
                    page::get_u64(b, 8),
                    page::get_u16(b, META_COLUMNAR),
                    page::get_u64(b, META_SEALED_ROWS),
                )
            })?,
        };
        let corrupt =
            |what: String| Err(StoreError::Corrupt(format!("{}: {what}", path.display())));
        if magic != MAGIC {
            return corrupt("heap file has bad magic".into());
        }
        let rows_per_page = raw_rows_per_page(on_file, &path)?;
        if on_file != ncols {
            return corrupt(format!("{on_file} columns, the catalogue says {ncols}"));
        }
        let walk_end = match columnar {
            0 => META_PAGE + 1,
            1 => npages,
            tag => return corrupt(format!("unknown heap page format tag {tag}")),
        };
        // Variable rows per columnar page: walk their headers, up to the
        // logical row count (pages past it are crash leftovers).
        let mut sealed_bounds = vec![0u64];
        let mut sealed_rows = 0;
        let mut meta_ends_a_page = meta_sealed == 0;
        for pid in META_PAGE + 1..walk_end {
            if sealed_rows >= nrows {
                break;
            }
            let (n, is_columnar) = pool.with_page(fid, pid, |b| {
                (page::get_u16(b, 0) as u64, colpage::is_colpage(b))
            })?;
            if !is_columnar {
                break;
            }
            sealed_rows += n;
            sealed_bounds.push(sealed_rows);
            meta_ends_a_page |= sealed_rows == meta_sealed;
        }
        let sealed_pages = sealed_bounds.len() - 1;
        if sealed_rows > nrows {
            return corrupt(format!(
                "columnar page {sealed_pages} holds rows past the heap's {nrows}: {RELEASE_RULE}"
            ));
        }
        if !meta_ends_a_page {
            return corrupt(format!(
                "{meta_sealed} of {nrows} rows claimed sealed, which end on no columnar page"
            ));
        }
        // The meta page comes with the first row.
        let data_pages = (nrows - sealed_rows)
            .div_ceil(rows_per_page as u64)
            .saturating_add(sealed_pages as u64);
        if (npages as u64) < data_pages.saturating_add(u64::from(nrows > 0)) {
            return corrupt(format!(
                "{npages} pages hold fewer rows than the meta count {nrows}"
            ));
        }
        Ok(Self {
            pool,
            fid,
            ncols,
            rows_per_page,
            nrows,
            sealed_bounds,
            zones: ZoneMap::new(ncols),
        })
    }

    /// Writes `rows`, in the order given, as a whole heap file at `path`
    /// of `vfs` — meta page, then data pages filled front to back: every
    /// row sealed in columnar pages when `sealed`, every row on raw pages
    /// otherwise; no page at all for no row — synced when `sync`, and
    /// returns the zone map of the rows under the pages they landed on.
    /// The one place a columnar page is built: rows reach one by being
    /// sealed, never by being appended.
    pub(crate) fn write(
        vfs: &dyn Vfs,
        path: &Path,
        ncols: usize,
        rows: &[&[f64]],
        sealed: bool,
        sync: bool,
    ) -> Result<ZoneMap> {
        let rows_per_page = raw_rows_per_page(ncols, path)?;
        let out = PageFile::create(vfs, path)?;
        let mut zones = ZoneMap::new(ncols);
        if rows.is_empty() {
            if sync {
                out.sync()?;
            }
            return Ok(zones);
        }
        out.allocate()?; // meta page 0, filled in below
        let mut page = PageBuf::zeroed();
        let write = |page: &PageBuf| {
            let pid = out.allocate()?;
            out.write_page(pid, page.bytes())
        };
        if sealed {
            let mut builder = ColPageBuilder::new(ncols);
            let mut seal = |builder: &ColPageBuilder| {
                builder.seal_into(page.bytes_mut());
                obs::global().counter("colpage.pages_written").inc();
                write(&page)
            };
            for row in rows {
                if !builder.try_push(row) {
                    seal(&builder)?;
                    builder.clear();
                    assert!(builder.try_push(row), "a row must fit an empty page");
                }
                zones.observe(row);
            }
            if !builder.is_empty() {
                seal(&builder)?;
            }
        } else {
            for chunk in rows.chunks(rows_per_page) {
                let b = page.bytes_mut();
                b.fill(0);
                page::put_u16(b, 0, chunk.len() as u16);
                for (slot, row) in chunk.iter().enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        page::put_f64(b, PAGE_HDR + (slot * ncols + c) * 8, v);
                    }
                    zones.observe(row);
                }
                write(&page)?;
            }
        }
        let mut meta = PageBuf::zeroed();
        let n = rows.len() as u64;
        put_meta(meta.bytes_mut(), ncols, n, if sealed { n } else { 0 });
        out.write_page(META_PAGE, meta.bytes())?;
        if sync {
            out.sync()?;
        }
        Ok(zones)
    }

    fn write_meta(&self) -> Result<()> {
        self.pool.with_page_mut(self.fid, META_PAGE, |b| {
            put_meta(b, self.ncols, self.nrows, self.sealed_rows())
        })
    }

    /// Persists the row count to the meta page. A heap with no row has no
    /// meta page to write.
    pub fn sync_meta(&self) -> Result<()> {
        if self.nrows == 0 {
            return Ok(());
        }
        self.write_meta()
    }

    /// Number of columns per row.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        self.nrows
    }

    /// How many leading rows the last seal wrote
    /// ([`crate::Database::seal_table`]; 0 for a heap never sealed). Those
    /// rows are *sealed*: they live in columnar pages that hold no other
    /// row and are never written again — the first append behind them
    /// opens a raw page — and no B+tree holds an entry for them; readers
    /// reach them through [`HeapFile::scan_pages`] over `..sealed_rows`.
    pub fn sealed_rows(&self) -> u64 {
        self.sealed_bounds[self.sealed_bounds.len() - 1]
    }

    /// The data pages `1..=sealed_pages` that hold the sealed rows.
    fn sealed_pages(&self) -> u32 {
        (self.sealed_bounds.len() - 1) as u32
    }

    /// The pool file id backing this heap (for in-place rewrites).
    pub(crate) fn fid(&self) -> FileId {
        self.fid
    }

    /// Bytes used on disk (meta page included).
    pub fn size_bytes(&self) -> u64 {
        self.pool.file_size_bytes(self.fid)
    }

    /// Bytes of raw row payload (rows x columns x 8).
    pub fn payload_bytes(&self) -> u64 {
        self.nrows * self.ncols as u64 * 8
    }

    /// The page and slot of row `k` (`num_rows()` itself is the row an
    /// append writes next).
    fn position(&self, k: u64) -> (u32, usize) {
        let sealed = self.sealed_rows();
        if k < sealed {
            let pid = self.sealed_bounds.partition_point(|&b| b <= k);
            return (pid as u32, (k - self.sealed_bounds[pid - 1]) as usize);
        }
        let (behind, rpp) = (k - sealed, self.rows_per_page as u64);
        (
            self.sealed_pages() + 1 + (behind / rpp) as u32,
            (behind % rpp) as usize,
        )
    }

    /// The rows data page `pid` holds by its position (none for the meta
    /// page or a page behind the last row).
    fn page_rows(&self, pid: u32) -> Range<u64> {
        let sealed = self.sealed_pages();
        if pid <= sealed {
            let at = pid as usize;
            return self.sealed_bounds[at.max(1) - 1]..self.sealed_bounds[at];
        }
        let rpp = self.rows_per_page as u64;
        let start = self.sealed_rows() + u64::from(pid - sealed - 1) * rpp;
        start.min(self.nrows)..(start + rpp).min(self.nrows)
    }

    /// Reads data page `pid` into `buf` and returns the rows it holds by
    /// position; a page whose header holds fewer is corrupt. A page that
    /// holds no row is not read.
    fn read_page(&self, pid: u32, buf: &mut PageBuf) -> Result<Range<u64>> {
        let rows = self.page_rows(pid);
        if rows.is_empty() {
            return Ok(rows);
        }
        self.pool.read_page_into(self.fid, pid, buf)?;
        let (held, n) = (colpage::page_nrows(buf.bytes()), rows.end - rows.start);
        if (held as u64) < n {
            return Err(StoreError::Corrupt(format!(
                "heap page {pid} holds {held} rows of {n}"
            )));
        }
        Ok(rows)
    }

    /// Appends a row on the raw tail; returns its [`RowId`].
    ///
    /// Rows are kept physically contiguous: a new page is always the one
    /// right after the logical tail, even when a crash left the file
    /// extended further (pages allocated whose rows never became durable).
    /// WAL recovery's logical truncation and the scan order both rely on
    /// data pages holding rows contiguously in page order.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != ncols`.
    pub fn insert(&mut self, row: &[f64]) -> Result<RowId> {
        assert_eq!(row.len(), self.ncols, "row arity mismatch");
        if self.nrows == 0 && self.pool.file_pages(self.fid) == 0 {
            // The first row of a heap that owns no page takes the meta
            // page, filled in at once: the commit that covers the row
            // logs it, and recovery needs its magic and column count.
            let meta = self.pool.allocate_page(self.fid)?;
            debug_assert_eq!(meta, META_PAGE);
            self.write_meta()?;
        }
        let (pid, slot) = self.position(self.nrows);
        // A leftover page from an interrupted extension is reused.
        if slot == 0 && pid >= self.pool.file_pages(self.fid) {
            let allocated = self.pool.allocate_page(self.fid)?;
            debug_assert_eq!(allocated, pid);
        }
        let off = self.raw_offset(slot, 0);
        self.pool.with_page_mut(self.fid, pid, |b| {
            if slot == 0 {
                // First row of the page: clear any stale bytes a reused
                // leftover page may carry.
                *b = [0u8; PAGE_SIZE];
            }
            for (i, &v) in row.iter().enumerate() {
                page::put_f64(b, off + i * 8, v);
            }
            page::put_u16(b, 0, slot as u16 + 1);
        })?;
        self.nrows += 1;
        self.zones.observe(row);
        Ok(rid(pid, slot as u16))
    }

    /// Decodes columns `range` of the data page in `buf` into `cols` (one
    /// buffer per column of `range`, each cleared first), columnar or raw
    /// as the page itself says, and counts a decoded columnar page into
    /// `decoded`.
    fn decode_page_columns(
        &self,
        buf: &PageBuf,
        range: Range<usize>,
        cols: &mut [Vec<f64>],
        decoded: &mut u64,
    ) -> Result<()> {
        let b = buf.bytes();
        for c in cols.iter_mut() {
            c.clear();
        }
        if colpage::is_colpage(b) {
            *decoded += 1;
            return colpage::decode_into(b, self.ncols, range, cols).map(|_| ());
        }
        // Raw page: transpose into the column buffers.
        let n = (page::get_u16(b, 0) as usize).min(self.rows_per_page);
        for (c, col) in range.zip(cols.iter_mut()) {
            col.extend((0..n).map(|slot| page::get_f64(b, self.raw_offset(slot, c))));
        }
        Ok(())
    }

    /// Byte offset of column `c` of row `slot` in a raw page.
    #[inline]
    fn raw_offset(&self, slot: usize, c: usize) -> usize {
        PAGE_HDR + (slot * self.ncols + c) * 8
    }

    /// Adds the columnar pages one scan or fetch decoded to
    /// `colpage.pages_decoded`: one registry lookup per call, not per page.
    fn flush_decoded(pages: u64) {
        if pages > 0 {
            obs::global().counter("colpage.pages_decoded").add(pages);
        }
    }

    /// Visits the rows after the first `skip` in storage order, reading
    /// only the pages that hold them (this is how an index re-derives its
    /// write buffer, so the cost follows the buffer, not the table): the
    /// row-at-a-time view of [`HeapFile::scan_pages`]. The visitor
    /// receives the row id and the decoded columns; returning `false`
    /// stops the scan early.
    ///
    /// Pages are copied out of the pool before decoding, so the visitor may
    /// freely access other tables.
    pub fn scan(&self, skip: u64, mut visit: impl FnMut(RowId, &[f64]) -> bool) -> Result<()> {
        let (mut cols, mut row) = (vec![Vec::new(); self.ncols], vec![0.0f64; self.ncols]);
        self.scan_pages(
            skip..,
            |_, _| true,
            |page| {
                page.columns(0..self.ncols, &mut cols)?;
                Ok((0..page.rows()).all(|r| {
                    colpage::gather_row(&cols, r, &mut row);
                    visit(page.row_id(r), &row)
                }))
            },
        )?;
        Ok(())
    }

    /// Whether the whole-heap summary rejects every stored row under
    /// `filter`: `false` when the heap is empty or the summary passes.
    /// The summary is empty only while the open's scan builds it.
    fn summary_rejects(&self, filter: &mut impl FnMut(&[f64], &[f64]) -> bool) -> bool {
        let Some((mins, maxs)) = self.zones.segment_bounds() else {
            return false;
        };
        debug_assert_eq!(self.zones.num_rows(), self.nrows, "a summary of every row");
        !filter(mins, maxs)
    }

    /// Whole-heap pre-probe pruning for non-scan plans: applies `filter`
    /// (the same conservative may-match predicate the scan paths use) to
    /// the whole-heap zone summary alone and reports whether the heap as
    /// a whole can be skipped. A rejection counts every data page into
    /// `zonemap.pages_pruned` and one heap into `zonemap.extents_pruned`,
    /// as a scan's rejection does.
    ///
    /// Returns `false` — no pruning — when the heap is empty.
    pub fn prune_whole_segment(&self, mut filter: impl FnMut(&[f64], &[f64]) -> bool) -> bool {
        if !self.summary_rejects(&mut filter) {
            return false;
        }
        Self::count_skip(self.position(self.nrows - 1).0 as u64);
        true
    }

    /// Counts one skip of a heap, or of a row range of one: its `pages`
    /// into `zonemap.pages_pruned`, and one into `zonemap.extents_pruned`.
    fn count_skip(pages: u64) {
        let registry = obs::global();
        registry.counter("zonemap.pages_pruned").add(pages);
        registry.counter("zonemap.extents_pruned").inc();
    }

    /// The one page walk under every scan: visits the data pages that
    /// hold the rows `rows` (clamped to the heap's), all of them unless
    /// the whole-heap zone summary fails `filter`, in which case it visits
    /// none. The visitor is handed
    /// each page undecoded, as a [`ScanPage`] of the range's rows on it:
    /// it asks for the columns it needs, and may ask again once those
    /// have told it whether the rest is worth reading. Compressed columnar pages decode the asked
    /// columns straight into the visitor's buffers with no row-at-a-time
    /// materialization; raw pages are transposed. Returning `Ok(false)`
    /// stops the scan, an error aborts it. `..sealed_rows` reads the
    /// sealed rows alone — with a B+tree scan of the rows behind them,
    /// every row once — and `sealed_rows..` the rows the trees index.
    ///
    /// A skipped range counts its pages into `zonemap.pages_pruned` and
    /// the returned [`ZoneScanStats`], and one heap into
    /// `zonemap.extents_pruned`. The filter must be *conservative* —
    /// return `true` whenever any row in the bounds could match — for
    /// pruning to be lossless.
    pub fn scan_pages(
        &self,
        rows: impl RangeBounds<u64>,
        mut filter: impl FnMut(&[f64], &[f64]) -> bool,
        mut visit: impl FnMut(&ScanPage<'_>) -> Result<bool>,
    ) -> Result<ZoneScanStats> {
        let start = match rows.start_bound() {
            Bound::Included(&k) => k,
            Bound::Excluded(&k) => k.saturating_add(1),
            Bound::Unbounded => 0,
        };
        let end = match rows.end_bound() {
            Bound::Included(&k) => k.saturating_add(1),
            Bound::Excluded(&k) => k,
            Bound::Unbounded => self.nrows,
        }
        .min(self.nrows);
        let mut stats = ZoneScanStats::default();
        if start >= end {
            return Ok(stats);
        }
        let pages = self.position(start).0..self.position(end - 1).0 + 1;
        if self.summary_rejects(&mut filter) {
            stats.pages_pruned = pages.len() as u64;
            Self::count_skip(stats.pages_pruned);
            return Ok(stats);
        }
        let mut buf = PageBuf::zeroed();
        let mut decoded = 0;
        let mut outcome = Ok(true);
        for pid in pages {
            stats.pages_scanned += 1;
            let on_page = self.read_page(pid, &mut buf)?;
            let slot = |k: u64| (k.clamp(on_page.start, on_page.end) - on_page.start) as usize;
            let page = ScanPage {
                heap: self,
                buf: &buf,
                pid,
                slots: slot(start)..slot(end),
                decoded: std::cell::Cell::new(0),
            };
            outcome = visit(&page);
            decoded += page.decoded.get().min(1);
            if !matches!(outcome, Ok(true)) {
                break;
            }
        }
        Self::flush_decoded(decoded);
        outcome.map(|_| stats)
    }

    /// [`HeapFile::scan_pages`] over every row, with every column of every
    /// surviving page decoded into `cols` (resized to the column count;
    /// each column holds the page's values in slot order) before the
    /// visitor sees it. Returning `false` stops the scan.
    pub fn scan_columns(
        &self,
        filter: impl FnMut(&[f64], &[f64]) -> bool,
        cols: &mut Vec<Vec<f64>>,
        mut visit: impl FnMut(&[Vec<f64>], usize) -> bool,
    ) -> Result<ZoneScanStats> {
        cols.resize(self.ncols, Vec::new());
        self.scan_pages(.., filter, |page| {
            page.columns(0..self.ncols, cols)?;
            Ok(visit(cols, page.rows()))
        })
    }

    /// Fetches the contiguous columns `cols` of many rows with one page
    /// read (and, for columnar pages, one decode) per distinct page. `rids`
    /// must be sorted (ascending row id — which is page-major order). The
    /// visitor receives each row id with the `cols.len()` values asked
    /// for: a columnar page decodes only those columns; a raw page's values
    /// are read from the requested slots in place. A page holds the rows
    /// its position says, as under [`HeapFile::scan_pages`]: an id past
    /// them is an error.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` lies within the heap's columns; debug-asserts
    /// the ids are sorted.
    pub fn fetch_many_cols(
        &self,
        rids: &[RowId],
        cols: Range<usize>,
        mut visit: impl FnMut(RowId, &[f64]) -> bool,
    ) -> Result<()> {
        assert!(cols.end <= self.ncols, "column range {cols:?} out of range");
        debug_assert!(rids.windows(2).all(|w| w[0] <= w[1]), "rids must be sorted");
        let mut buf = PageBuf::zeroed();
        let mut decoded: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
        let mut row = vec![0.0f64; cols.len()];
        let (mut loaded, mut n, mut columnar) = (None, 0, false);
        let mut pages_decoded = 0;
        for &r in rids {
            let (pid, slot) = rid_parts(r);
            if loaded != Some(pid) {
                let on_page = self.read_page(pid, &mut buf)?;
                n = (on_page.end - on_page.start) as usize;
                columnar = n > 0 && colpage::is_colpage(buf.bytes());
                if columnar {
                    self.decode_page_columns(&buf, cols.clone(), &mut decoded, &mut pages_decoded)?;
                }
                loaded = Some(pid);
            }
            let slot = slot as usize;
            if slot >= n {
                return Err(StoreError::Corrupt(format!(
                    "row {r:#x}: slot {slot} >= page rows {n}"
                )));
            }
            if columnar {
                colpage::gather_row(&decoded, slot, &mut row);
            } else {
                let off = self.raw_offset(slot, cols.start);
                for (i, o) in row.iter_mut().enumerate() {
                    *o = page::get_f64(buf.bytes(), off + i * 8);
                }
            }
            if !visit(r, &row) {
                break;
            }
        }
        Self::flush_decoded(pages_decoded);
        Ok(())
    }

    /// Accounts encoded vs fixed-width payload sizes over the pages that
    /// hold rows (raw pages count as fixed-width on both sides).
    pub fn compression_stats(&self) -> Result<CompressionStats> {
        let mut s = CompressionStats {
            col_stored: vec![0; self.ncols],
            col_raw: vec![0; self.ncols],
            ..CompressionStats::default()
        };
        self.scan_pages(
            ..,
            |_, _| true,
            |page| {
                let (b, n) = (page.buf.bytes(), page.rows() as u64);
                s.pages += 1;
                if !colpage::is_colpage(b) {
                    s.col_stored.iter_mut().for_each(|c| *c += n * 8);
                    s.col_raw.iter_mut().for_each(|c| *c += n * 8);
                    return Ok(true);
                }
                let layout = colpage::column_layout(b, self.ncols)?;
                for (c, (enc, bytes)) in layout.into_iter().enumerate() {
                    s.col_stored[c] += bytes as u64;
                    s.col_raw[c] += n * 8;
                    s.raw_fallback_cols += u64::from(enc == colpage::ColEncoding::Raw);
                }
                s.stored_bytes += 16 * self.ncols as u64; // directory overhead
                Ok(true)
            },
        )?;
        s.raw_bytes = s.col_raw.iter().sum();
        s.stored_bytes += s.col_stored.iter().sum::<u64>();
        Ok(s)
    }
}

#[cfg(test)]
impl HeapFile {
    /// Asserts the one layout: pages `1..=sealed_pages` are columnar and
    /// hold the sealed rows, every page behind them is raw and holds the
    /// rows its position says.
    pub(crate) fn assert_one_layout(&self) {
        let (last, last_rows) = self.position(self.nrows);
        let mut sealed = 0;
        for pid in 1..self.pool.file_pages(self.fid).min(last + 1) {
            let (n, columnar) = self
                .pool
                .with_page(self.fid, pid, |b| {
                    (colpage::page_nrows(b), colpage::is_colpage(b))
                })
                .unwrap();
            assert_eq!(columnar, pid <= self.sealed_pages(), "page {pid}");
            match pid {
                _ if columnar => sealed += n as u64,
                _ if pid < last => assert_eq!(n, self.rows_per_page, "page {pid}"),
                _ if last_rows > 0 => assert_eq!(n, last_rows, "page {pid}"),
                _ => {}
            }
        }
        assert_eq!(sealed, self.sealed_rows(), "rows on columnar pages");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use std::path::PathBuf;

    /// A heap of `rows` whose first `sealed` rows a seal wrote and whose
    /// others were appended behind them, with every row's id in storage
    /// order.
    fn heap_of(
        name: &str,
        ncols: usize,
        rows: &[Vec<f64>],
        sealed: usize,
    ) -> (Arc<BufferPool>, HeapFile, PathBuf, Vec<RowId>) {
        let p = std::env::temp_dir().join(format!("pagestore-heap-{}-{name}", std::process::id()));
        std::fs::remove_file(&p).ok();
        let pool = Arc::new(BufferPool::new(64));
        let mut heap = if sealed == 0 {
            let fid = pool.register_file(PageFile::create(&OsVfs, &p).unwrap());
            HeapFile::open(pool.clone(), fid, ncols).unwrap()
        } else {
            let lead: Vec<&[f64]> = rows[..sealed].iter().map(|r| &r[..]).collect();
            let zones = HeapFile::write(&OsVfs, &p, ncols, &lead, true, false).unwrap();
            let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
            HeapFile::open_written(pool.clone(), fid, ncols, zones).unwrap()
        };
        for row in &rows[sealed..] {
            heap.insert(row).unwrap();
        }
        assert_eq!(
            (heap.num_rows(), heap.sealed_rows()),
            (rows.len() as u64, sealed as u64)
        );
        let mut rids = Vec::new();
        heap.scan(0, |rid, _| {
            rids.push(rid);
            true
        })
        .unwrap();
        (pool, heap, p, rids)
    }

    fn setup(name: &str, ncols: usize) -> (Arc<BufferPool>, HeapFile, PathBuf) {
        let (pool, heap, p, _) = heap_of(name, ncols, &[], 0);
        (pool, heap, p)
    }

    /// Row `i` of a five-column load: two columns that compress, one that
    /// does not, a constant and the row's own number.
    fn mixed_row(i: u64) -> Vec<f64> {
        let h64 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let dv = f64::from_bits(0xBFF0_0000_0000_0000 | (h64 >> 12));
        vec![
            300.0 * (i % 90) as f64,
            dv,
            i as f64,
            -0.0,
            300.0 * i as f64,
        ]
    }

    /// The layouts a heap of `n` rows is tested in: how many are sealed.
    fn layouts(n: usize) -> [usize; 3] {
        [0, n, n * 2 / 3]
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Row `r`, every column, through the one fetch.
    fn fetch(h: &HeapFile, r: RowId) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        h.fetch_many_cols(&[r], 0..h.ncols(), |_, row| {
            out = row.to_vec();
            true
        })?;
        Ok(out)
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let (_pool, mut h, p) = setup("roundtrip", 3);
        let r1 = h.insert(&[1.0, 2.0, 3.0]).unwrap();
        let r2 = h.insert(&[-4.0, 5.5, 0.0]).unwrap();
        assert_eq!(fetch(&h, r1).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(fetch(&h, r2).unwrap(), vec![-4.0, 5.5, 0.0]);
        assert_eq!(h.num_rows(), 2);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn scan_visits_all_rows_in_order() {
        let (_pool, mut h, p) = setup("scan", 2);
        let n = 5000; // spans many pages
        for i in 0..n {
            h.insert(&[i as f64, -(i as f64)]).unwrap();
        }
        let mut count = 0usize;
        h.scan(0, |_rid, row| {
            assert_eq!(row[0], count as f64);
            assert_eq!(row[1], -(count as f64));
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, n);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn scan_early_exit() {
        let (_pool, mut h, p) = setup("early", 1);
        for i in 0..100 {
            h.insert(&[i as f64]).unwrap();
        }
        let mut seen = 0;
        h.scan(0, |_, _| {
            seen += 1;
            seen < 10
        })
        .unwrap();
        assert_eq!(seen, 10);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn scans_read_every_layout_and_a_skip_reads_only_its_pages() {
        let rows: Vec<Vec<f64>> = (0..3000).map(mixed_row).collect();
        for sealed in layouts(rows.len()) {
            let (pool, h, p, rids) = heap_of(&format!("skip-{sealed}"), 5, &rows, sealed);
            h.assert_one_layout();
            // Page at a time, every column: the same rows in the same order.
            let (mut via_cols, mut bufs) = (Vec::new(), Vec::new());
            h.scan_columns(
                |_, _| true,
                &mut bufs,
                |cols, n| {
                    via_cols.extend((0..n).flat_map(|r| cols.iter().map(move |c| c[r].to_bits())));
                    true
                },
            )
            .unwrap();
            assert!(via_cols == bits(&rows.concat()), "{sealed}: scan_columns");
            // The sealed range, then the tail: each its own rows, ids and
            // pages.
            let s = sealed as u64;
            for (range, want) in [(0..s, 0..sealed), (s..u64::MAX, sealed..rows.len())] {
                let (mut got, mut bufs) = (Vec::new(), vec![Vec::new(); 5]);
                h.scan_pages(
                    range.clone(),
                    |_, _| true,
                    |page| {
                        page.columns(0..5, &mut bufs)?;
                        for r in 0..page.rows() {
                            got.push((
                                page.row_id(r),
                                bufs.iter().map(|c| c[r].to_bits()).collect(),
                            ));
                        }
                        Ok(true)
                    },
                )
                .unwrap();
                let want: Vec<(RowId, Vec<u64>)> =
                    want.map(|k| (rids[k], bits(&rows[k]))).collect();
                assert!(got == want, "{sealed}: {range:?}");
            }
            for skip in [0, 1, 1999, 2000, 2001, 2102, 2999, 3000, 5000] {
                let before = pool.stats();
                let mut at = skip as usize;
                h.scan(skip, |rid, row| {
                    assert_eq!(
                        (rid, bits(row)),
                        (rids[at], bits(&rows[at])),
                        "{sealed}/{skip}"
                    );
                    at += 1;
                    true
                })
                .unwrap();
                assert_eq!(at, rows.len().max(skip as usize), "{sealed}/{skip}");
                // Only the pages that hold the rows asked for are read,
                // each once.
                let io = pool.stats().since(&before);
                if skip < 3000 {
                    let pages = (rids[2999] >> 16) - (rids[skip as usize] >> 16) + 1;
                    assert_eq!(io.hits + io.misses, pages, "{sealed}/{skip}");
                } else {
                    assert_eq!(io.hits + io.misses, 0, "{sealed}/{skip}");
                }
            }
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn reopen_preserves_rows() {
        let p = std::env::temp_dir().join(format!("pagestore-heap-{}-reopen", std::process::id()));
        {
            let pool = Arc::new(BufferPool::new(64));
            let fid = pool.register_file(PageFile::create(&OsVfs, &p).unwrap());
            let mut h = HeapFile::open(pool.clone(), fid, 2).unwrap();
            for i in 0..1000 {
                h.insert(&[i as f64, 2.0 * i as f64]).unwrap();
            }
            h.sync_meta().unwrap();
            pool.flush_all().unwrap();
        }
        let pool = Arc::new(BufferPool::new(64));
        let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
        let mut h = HeapFile::open(pool, fid, 2).unwrap();
        assert_eq!((h.num_rows(), h.sealed_rows()), (1000, 0));
        // Appends continue where the tail left off.
        h.insert(&[1000.0, 2000.0]).unwrap();
        let mut count = 0;
        h.scan(0, |_, row| {
            assert_eq!(row[1], 2.0 * row[0]);
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, 1001);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn a_heap_with_no_row_owns_no_page() {
        let p = std::env::temp_dir().join(format!("pagestore-heap-{}-nopage", std::process::id()));
        let open = |ncols: usize| {
            let pool = Arc::new(BufferPool::new(64));
            let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
            (HeapFile::open(pool.clone(), fid, ncols), pool, fid)
        };
        let len = || std::fs::metadata(&p).unwrap().len();
        // Created, synced and flushed with no row: nothing written, and
        // every read answers nothing.
        PageFile::create(&OsVfs, &p).unwrap();
        let (h, pool, fid) = open(3);
        let mut h = h.unwrap();
        h.sync_meta().unwrap();
        pool.flush_all().unwrap();
        assert_eq!((len(), h.size_bytes()), (0, 0));
        assert!(!h.prune_whole_segment(|_, _| false));
        h.scan(0, |_, _| panic!("a row of no page")).unwrap();
        h.fetch_many_cols(&[], 0..3, |_, _| panic!("a row of no page"))
            .unwrap();
        assert_eq!(h.compression_stats().unwrap().pages, 0);
        // The first row takes the meta page and the first data page.
        assert_eq!(h.insert(&[1.0, 2.0, 3.0]).unwrap(), rid(1, 0));
        assert_eq!(pool.file_pages(fid), 2);
        h.sync_meta().unwrap();
        pool.flush_all().unwrap();
        drop((h, pool));
        let (h, _, _) = open(3);
        assert_eq!(h.unwrap().num_rows(), 1);
        // A heap of rows says its own column count: another is corrupt.
        assert!(matches!(open(2).0, Err(StoreError::Corrupt(_))));
        // Written with no row, a heap is a file of no page again.
        let zones = HeapFile::write(&OsVfs, &p, 3, &[], false, false).unwrap();
        assert_eq!((len(), zones.num_rows()), (0, 0));
        let (h, _, _) = open(3);
        assert_eq!(h.unwrap().num_rows(), 0);
        // With no page the catalogue's count is the only one, and it must
        // be one a heap can have.
        assert!(matches!(open(0).0, Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sealed_rows_scan_fetch_roundtrip() {
        // A mix of integer-like and full-precision columns.
        let n = 4000usize; // several columnar pages
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![300.0 * i as f64, -(i as f64) * 0.001, (i % 7) as f64])
            .collect();
        let (_pool, h, p, rids) = heap_of("col-roundtrip", 3, &rows, n);
        h.assert_one_layout();
        assert!(rids[n - 1] >> 16 > 2, "several sealed pages");
        let mut count = 0usize;
        h.scan(0, |r, row| {
            assert_eq!(r, rids[count]);
            assert_eq!(row[0], 300.0 * count as f64);
            assert_eq!(row[1].to_bits(), (-(count as f64) * 0.001).to_bits());
            count += 1;
            true
        })
        .unwrap();
        assert_eq!(count, n);
        assert_eq!(fetch(&h, rids[1234]).unwrap()[0], 300.0 * 1234.0);
        // Columnar pages hold far more of these compressible rows than a
        // raw page's fixed capacity would.
        let stats = h.compression_stats().unwrap();
        assert!(stats.ratio() > 2.0, "ratio {}", stats.ratio());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn reopen_behind_a_seal_appends_on_a_fresh_raw_page() {
        let n = 1000usize;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 0.5]).collect();
        let (pool, h, p, _) = heap_of("colre", 2, &rows, n);
        h.sync_meta().unwrap();
        pool.flush_all().unwrap();
        drop((h, pool));
        let pool = Arc::new(BufferPool::new(64));
        let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
        let mut h = HeapFile::open(pool.clone(), fid, 2).unwrap();
        assert_eq!((h.num_rows(), h.sealed_rows()), (n as u64, n as u64));
        let pages_before = pool.file_pages(fid);
        let last_sealed = pool.with_page(fid, pages_before - 1, |b| *b).unwrap();
        // The append opens a raw page — the last sealed one had room — and
        // writes nothing on a sealed one.
        let r = h.insert(&[n as f64, 0.5]).unwrap();
        assert_eq!(r, rid(pages_before, 0));
        assert_eq!(pool.file_pages(fid), pages_before + 1);
        assert!(pool.with_page(fid, pages_before - 1, |b| *b).unwrap() == last_sealed);
        h.assert_one_layout();
        let mut seen = 0usize;
        h.scan(0, |_, row| {
            assert_eq!(row[0], seen as f64);
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, n + 1);
        // And so it reopens: one row behind the seal, on its raw page.
        h.sync_meta().unwrap();
        pool.flush_all().unwrap();
        drop((h, pool));
        let pool = Arc::new(BufferPool::new(64));
        let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
        let mut h = HeapFile::open(pool.clone(), fid, 2).unwrap();
        assert_eq!((h.num_rows(), h.sealed_rows()), (n as u64 + 1, n as u64));
        assert_eq!(h.insert(&[0.0, 0.0]).unwrap(), rid(pages_before, 1));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn projected_scan_matches_scan_columns_on_every_layout() {
        let rows: Vec<Vec<f64>> = (0..3000).map(mixed_row).collect();
        for sealed in layouts(rows.len()) {
            let (_pool, h, p, _) = heap_of(&format!("scanproj-{sealed}"), 5, &rows, sealed);
            // The reference: every page whole, through `scan_columns`,
            // under a filter the whole-heap summary passes.
            let filter = |_: &[f64], maxs: &[f64]| maxs[2] >= 700.0;
            let mut full: Vec<Vec<Vec<u64>>> = Vec::new();
            let mut bufs = Vec::new();
            let want = h
                .scan_columns(filter, &mut bufs, |cols, n| {
                    assert!(cols.iter().all(|c| c.len() == n));
                    full.push(cols.iter().map(|c| bits(c)).collect());
                    true
                })
                .unwrap();
            assert!(want.pages_pruned == 0 && full.len() > 3, "{sealed}");
            // Two projections of each page, the second one only on every
            // other page, into buffers that still hold the last page.
            let (mut lead, mut rest) = (vec![Vec::new(); 2], vec![Vec::new(); 3]);
            let mut at = 0;
            let got = h
                .scan_pages(.., filter, |page| {
                    assert_eq!(page.rows(), full[at][0].len(), "{sealed} page {at}");
                    page.columns(0..2, &mut lead)?;
                    let lead: Vec<_> = lead.iter().map(|c| bits(c)).collect();
                    assert!(lead == full[at][0..2], "{sealed} page {at}, 0..2");
                    if at % 2 == 0 {
                        page.columns(2..5, &mut rest)?;
                        let rest: Vec<_> = rest.iter().map(|c| bits(c)).collect();
                        assert!(rest == full[at][2..5], "{sealed} page {at}, 2..5");
                        page.columns(4..4, &mut [])?;
                    }
                    at += 1;
                    Ok(true)
                })
                .unwrap();
            assert_eq!((got, at), (want, full.len()), "{sealed}");
            // A visitor's `Ok(false)` stops the scan, its error aborts it.
            let mut seen = 0;
            h.scan_pages(
                ..,
                |_, _| true,
                |_| {
                    seen += 1;
                    Ok(seen < 2)
                },
            )
            .unwrap();
            assert_eq!(seen, 2, "{sealed}");
            let failed = h.scan_pages(.., |_, _| true, |_| Err(StoreError::Corrupt("stop".into())));
            assert!(matches!(failed, Err(StoreError::Corrupt(_))), "{sealed}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn projected_fetch_returns_the_rows_stored_on_every_layout() {
        let rows: Vec<Vec<f64>> = (0..3000).map(mixed_row).collect();
        for sealed in layouts(rows.len()) {
            let (_pool, h, p, rids) = heap_of(&format!("fetchcols-{sealed}"), 5, &rows, sealed);
            // The last page is part-filled, and it is read as it stands.
            let on_page = |pid| rids.iter().filter(|r| **r >> 16 == pid).count();
            let last = rids[2999] >> 16;
            assert!(last > 2 && on_page(last) < on_page(last - 1), "{sealed}");
            let picked: Vec<usize> = (0..3000).filter(|i| rids[*i] % 3 != 1).collect();
            let picked_rids: Vec<RowId> = picked.iter().map(|&i| rids[i]).collect();
            for cols in [0..5, 1..4, 4..5, 2..2] {
                let mut seen = 0;
                h.fetch_many_cols(&picked_rids, cols.clone(), |rid, got| {
                    let want = &rows[picked[seen]];
                    assert_eq!(rid, picked_rids[seen]);
                    assert_eq!(
                        bits(got),
                        bits(&want[cols.clone()]),
                        "{sealed} {rid:#x} {cols:?}"
                    );
                    let row = fetch(&h, rid).unwrap();
                    assert_eq!(bits(&row), bits(want), "{sealed} row {rid:#x}");
                    seen += 1;
                    true
                })
                .unwrap();
                assert_eq!(seen, picked.len());
            }
            // A slot past the page's rows is an error, not stale data.
            let beyond = *rids.last().unwrap() + 1;
            assert!(h.fetch_many_cols(&[beyond], 0..2, |_, _| true).is_err());
            assert!(fetch(&h, beyond).is_err());
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn the_whole_heap_summary_prunes_all_pages_or_none() {
        let (_pool, mut h, p) = setup("summary", 1);
        // 511 rows per page at 1 column: 130 pages.
        let rows = 511 * 130;
        for i in 0..rows {
            h.insert(&[i as f64]).unwrap();
        }
        let pages_before = obs::global().counter("zonemap.pages_pruned").get();
        let heaps_before = obs::global().counter("zonemap.extents_pruned").get();
        // A filter matching only the very first page's range: the summary
        // admits it, so every page is read.
        let stats = h
            .scan_pages(.., |mins, _maxs| mins[0] < 511.0, |_| Ok(true))
            .unwrap();
        assert_eq!((stats.pages_scanned, stats.pages_pruned), (130, 0));
        // A filter matching nothing skips every page of the range.
        let stats = h.scan_pages(.., |_m, _x| false, |_| Ok(true)).unwrap();
        assert_eq!((stats.pages_scanned, stats.pages_pruned), (0, 130));
        let stats = h
            .scan_pages(511 * 10..511 * 12, |_m, _x| false, |_| Ok(true))
            .unwrap();
        assert_eq!((stats.pages_scanned, stats.pages_pruned), (0, 2));
        // The counters are process-global (other tests may bump them too),
        // so only a lower bound is exact here.
        let pages = obs::global().counter("zonemap.pages_pruned").get() - pages_before;
        let heaps = obs::global().counter("zonemap.extents_pruned").get() - heaps_before;
        assert!(pages >= 132 && heaps >= 2, "pages {pages}, heaps {heaps}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn whole_segment_prune_respects_bounds_and_counts() {
        let (_pool, mut h, p) = setup("segprune", 1);
        for i in 0..511 * 70 {
            h.insert(&[i as f64]).unwrap();
        }
        let before = obs::global().counter("zonemap.pages_pruned").get();
        // The stored range is [0, 511*70): a filter demanding values
        // below -1 rejects the whole segment; one overlapping the range
        // must not prune.
        assert!(h.prune_whole_segment(|_m, maxs| maxs[0] < -1.0));
        assert!(!h.prune_whole_segment(|mins, _x| mins[0] < 1.0));
        // The counter is process-global (other tests may bump it too),
        // so only a lower bound is exact here: all 70 pages.
        let after = obs::global().counter("zonemap.pages_pruned").get();
        assert!(after - before >= 70, "before {before}, after {after}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn reopen_with_leftover_pages_appends_contiguously() {
        // A crash can leave the file extended past the logical tail:
        // pages were allocated (and one even dirtied) but the rows they
        // held never became durable. Reopening must append into those
        // leftover pages — zeroed — so rows stay physically contiguous;
        // WAL recovery's logical truncation would otherwise chop off
        // rows that ended up past a gap of empty pages.
        let p = std::env::temp_dir().join(format!("pagestore-heap-{}-gap", std::process::id()));
        std::fs::remove_file(&p).ok();
        {
            let pool = Arc::new(BufferPool::new(64));
            let fid = pool.register_file(PageFile::create(&OsVfs, &p).unwrap());
            let mut h = HeapFile::open(pool.clone(), fid, 1).unwrap();
            for i in 0..511 {
                h.insert(&[i as f64]).unwrap(); // fills data page 1 exactly
            }
            h.sync_meta().unwrap();
            // Crash remnant: two more pages allocated, one full of stale
            // bytes, with no surviving rows (meta still says 511).
            let g1 = pool.allocate_page(fid).unwrap();
            pool.allocate_page(fid).unwrap();
            pool.with_page_mut(fid, g1, |b| b.fill(0xAB)).unwrap();
            pool.flush_all().unwrap();
        }
        let pool = Arc::new(BufferPool::new(64));
        let fid = pool.register_file(PageFile::open(&OsVfs, &p).unwrap());
        let mut h = HeapFile::open(pool.clone(), fid, 1).unwrap();
        assert_eq!(h.num_rows(), 511);
        // The leftovers hold no row, whatever their headers say.
        let mut seen = 0u64;
        h.scan(0, |_, _| {
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 511);
        let r = h.insert(&[511.0]).unwrap();
        assert_eq!(r >> 16, 2, "insert must reuse the first leftover page");
        assert_eq!(pool.file_pages(fid), 4, "no page appended past the gap");
        let stale = pool
            .with_page(fid, 2, |b| b[PAGE_HDR + 8..].iter().any(|&x| x != 0))
            .unwrap();
        assert!(!stale, "reused page must be zeroed beyond its rows");
        let mut seen = 0u64;
        h.scan(0, |_, row| {
            assert_eq!(row[0], seen as f64);
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 512);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn payload_and_disk_sizes() {
        let (_pool, mut h, p) = setup("sizes", 4);
        for _ in 0..100 {
            h.insert(&[0.0; 4]).unwrap();
        }
        assert_eq!(h.payload_bytes(), 100 * 4 * 8);
        assert!(h.size_bytes() >= h.payload_bytes());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let (_pool, mut h, _p) = setup("arity", 2);
        let _ = h.insert(&[1.0]);
    }

    #[test]
    fn rid_packing_roundtrip() {
        for &(p, s) in &[(0u32, 0u16), (1, 0), (77, 511), (u32::MAX, u16::MAX)] {
            assert_eq!(rid_parts(rid(p, s)), (p, s));
        }
    }
}
