//! The shared buffer pool: one clock over one frame table, plus I/O
//! accounting.
//!
//! One mutex guards the whole frame table — its frames, the map from
//! `(FileId, PageId)` to a frame, the clock hand and the counters — so a
//! pool of `C` pages holds any `C` pages, and its hits, misses and
//! evictions are those of a single clock (the paper's §6 I/O cost model).
//! Physical I/O is positional and takes no lock of its own — the frame
//! lock serializes every transfer of a page — so the lock order is
//! `files` registry → WAL handle → frame table.
//!
//! A page *hit* takes the frame lock and nothing else. Only a miss needs
//! the registry (to read the page) and the WAL handle (to log a dirty
//! victim first); it lets go of the frame lock, takes both in the
//! declared order and looks the page up again.

use crate::error::Result;
use crate::page::PageBuf;
use crate::pagefile::{FileId, PageFile, PageId};
use crate::vfs::{OsVfs, Vfs};
use crate::wal::Wal;
use crate::PAGE_SIZE;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cumulative buffer-pool counters.
///
/// `hits`/`misses` count logical page requests; `physical_reads`/
/// `physical_writes` count pages actually moved to or from the backing
/// files. The experiment harness uses *deltas* of these counters around a
/// query as its I/O cost model (the substitute for the paper's cold-cache
/// wall-clock numbers, which depended on MySQL and the OS page cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Logical requests served from the pool.
    pub hits: u64,
    /// Logical requests that had to read from the file.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Pages read from backing files.
    pub physical_reads: u64,
    /// Pages written to backing files.
    pub physical_writes: u64,
}

impl PoolStats {
    /// Component-wise difference `self - earlier` (for per-query deltas).
    ///
    /// Saturates at zero: if a counter went backwards between the two
    /// snapshots (a [`BufferPool::reset_stats`] in between), the delta is
    /// clamped to 0 instead of wrapping to ~`u64::MAX`.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
        }
    }

    /// Component-wise sum (for merging per-thread or per-phase deltas).
    pub fn merged(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            physical_reads: self.physical_reads + other.physical_reads,
            physical_writes: self.physical_writes + other.physical_writes,
        }
    }
}

/// Global-registry handles mirroring [`PoolStats`]. Every increment of
/// the per-pool counters also lands here, so `segdiff metrics` and the
/// bench harness see pool activity without holding a pool reference.
struct PoolMetrics {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
    physical_reads: Arc<obs::Counter>,
    physical_writes: Arc<obs::Counter>,
}

impl PoolMetrics {
    fn global() -> Self {
        let r = obs::global();
        PoolMetrics {
            hits: r.counter("pool.hits"),
            misses: r.counter("pool.misses"),
            evictions: r.counter("pool.evictions"),
            physical_reads: r.counter("pool.physical_reads"),
            physical_writes: r.counter("pool.physical_writes"),
        }
    }
}

struct Frame {
    key: (FileId, PageId),
    buf: PageBuf,
    dirty: bool,
    /// Whether the current dirty contents have been appended to the WAL.
    /// Cleared on every mutation, set by the WAL-before-data append.
    logged: bool,
    referenced: bool,
}

/// A registered file plus its durability identity. Files registered with
/// a `wal_name` have their dirty pages logged (WAL-before-data) before
/// any writeback, and their first page allocated after
/// [`Wal::mark_unclean`]; files without one (B+tree indexes, plain-pool
/// users) are written back directly (after [`Wal::mark_unclean`]).
struct FileEntry {
    file: PageFile,
    wal_name: Option<String>,
}

/// Hasher of the frame map. The keys are two `u32`s this program hands
/// out itself, so one multiply per word replaces SipHash; the rotation
/// brings the product's well-mixed high bits down to where the table
/// takes its bucket index from.
#[derive(Default)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page keys hash as two u32 words");
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0 ^ u64::from(word)).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Everything the frame lock guards: the resident pages, where each one
/// is, the clock hand and the counters.
#[derive(Default)]
struct FrameTable {
    map: HashMap<(FileId, PageId), usize, BuildHasherDefault<PageKeyHasher>>,
    frames: Vec<Frame>,
    hand: usize,
    stats: PoolStats,
}

/// A shared buffer pool over a set of registered page files.
///
/// All page access goes through the pool so that cache behaviour — and the
/// cold/warm distinction the paper's §6.4 experiments rely on — is fully
/// under the caller's control via [`BufferPool::clear_cache`]. The pool is
/// safe for concurrent use from many threads; see the module docs for its
/// locks.
pub struct BufferPool {
    /// The file system every registered file lives in.
    vfs: Arc<dyn Vfs>,
    files: RwLock<Vec<FileEntry>>,
    /// Most pages resident at once.
    capacity: usize,
    frames: Mutex<FrameTable>,
    /// When attached, dirty pages of WAL-named files are appended to the
    /// log before every writeback (flush and eviction alike).
    wal: RwLock<Option<Arc<Wal>>>,
    /// Whether flushes end in `fsync` (true) or only drain userspace
    /// buffers (false, the test/bench escape hatch).
    sync: AtomicBool,
    metrics: PoolMetrics,
    /// Pages currently resident (the `pool.resident_pages` gauge). Grows
    /// when a fresh frame is populated, shrinks on
    /// [`BufferPool::clear_cache`] and pool drop; eviction reuses a frame,
    /// so residency is unchanged there.
    resident_pages: Arc<obs::Gauge>,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages (min 8).
    pub fn new(capacity: usize) -> Self {
        Self {
            vfs: Arc::new(OsVfs),
            files: RwLock::new(Vec::new()),
            capacity: capacity.max(8),
            frames: Mutex::new(FrameTable::default()),
            wal: RwLock::new(None),
            sync: AtomicBool::new(true),
            metrics: PoolMetrics::global(),
            resident_pages: obs::global().gauge("pool.resident_pages"),
        }
    }

    /// This pool with its files in `vfs` rather than the operating system's.
    pub fn in_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// The file system the pool's files live in.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Pages currently resident. This is the per-pool view of the global
    /// `pool.resident_pages` gauge (which sums every live pool).
    pub fn resident_pages(&self) -> usize {
        self.frames.lock().frames.len()
    }

    /// Registers a file; all subsequent access uses the returned id.
    /// The file's pages are *not* WAL-logged; see
    /// [`BufferPool::register_file_named`].
    pub fn register_file(&self, file: PageFile) -> FileId {
        self.register_file_named(file, None)
    }

    /// Registers a file with a durability identity: when `wal_name` is
    /// `Some` and a WAL is attached, every dirty page of this file is
    /// appended to the log (under that name) before it is written back.
    pub fn register_file_named(&self, file: PageFile, wal_name: Option<String>) -> FileId {
        let mut files = self.files.write();
        files.push(FileEntry { file, wal_name });
        (files.len() - 1) as FileId
    }

    /// Attaches the write-ahead log enforcing WAL-before-data on
    /// writeback of WAL-named files.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.write() = Some(wal);
    }

    /// Sets whether flushes fsync the files (default) or stop at
    /// draining userspace buffers.
    pub fn set_sync(&self, sync: bool) {
        self.sync.store(sync, Ordering::Release);
    }

    /// Whether flushes end in a sync (see [`BufferPool::set_sync`]).
    pub(crate) fn syncs(&self) -> bool {
        self.sync.load(Ordering::Acquire)
    }

    /// Number of pages currently allocated in file `fid`.
    pub fn file_pages(&self, fid: FileId) -> u32 {
        self.files.read()[fid as usize].file.num_pages()
    }

    /// On-disk size of file `fid` in bytes.
    pub fn file_size_bytes(&self, fid: FileId) -> u64 {
        self.files.read()[fid as usize].file.size_bytes()
    }

    /// Filesystem path of file `fid` (used for derived sidecar files,
    /// e.g. zone maps).
    pub fn file_path(&self, fid: FileId) -> std::path::PathBuf {
        self.files.read()[fid as usize].file.path().to_path_buf()
    }

    /// Appends a page of zeros to file `fid` and returns its id. Nothing
    /// is written: the page is installed in the pool as a *dirty* frame
    /// of zeros, so its first write-back — a flush, a checkpoint or an
    /// eviction, whether or not the caller wrote it first — puts it in
    /// the file, and no page below the file's count is ever read past the
    /// file's end. The frame is found (a dirty victim written back) before
    /// the count advances, so an eviction that fails allocates nothing.
    ///
    /// The first page of a logged file is its meta page, and a meta page of
    /// zeros does not open: before a logged file that owns no page takes
    /// one, the log is marked unclean, so a crash from here on is met by
    /// recovery, which cuts the file back to what the last commit holds.
    /// (A file's allocations are serialized by its owner.)
    pub fn allocate_page(&self, fid: FileId) -> Result<PageId> {
        let first_logged = {
            let entry = &self.files.read()[fid as usize];
            entry.wal_name.is_some() && entry.file.num_pages() == 0
        };
        let wal = self.wal.read().clone();
        if let (true, Some(wal)) = (first_logged, &wal) {
            wal.mark_unclean()?;
        }
        let files = self.files.read();
        let file = &files[fid as usize].file;
        let mut table = self.frames.lock();
        let next = file.num_pages();
        let i = self.frame_for(&mut table, &files, wal.as_ref(), fid, next, false)?;
        let pid = file.allocate()?;
        let frame = &mut table.frames[i];
        *frame.buf.bytes_mut() = [0u8; PAGE_SIZE];
        (frame.dirty, frame.logged) = (true, false);
        Ok(pid)
    }

    /// Runs `f` on the frame holding the page, under the frame lock.
    fn with_frame<R>(
        &self,
        fid: FileId,
        pid: PageId,
        f: impl FnOnce(&mut Frame) -> R,
    ) -> Result<R> {
        {
            let mut table = self.frames.lock();
            if let Some(i) = self.lookup(&mut table, (fid, pid)) {
                return Ok(f(&mut table.frames[i]));
            }
        }
        let files = self.files.read();
        let wal = self.wal.read().clone();
        let mut table = self.frames.lock();
        let i = self.frame_for(&mut table, &files, wal.as_ref(), fid, pid, true)?;
        Ok(f(&mut table.frames[i]))
    }

    /// Runs `f` over a read-only view of the page. The closure executes
    /// under the frame lock, so it must not re-enter the pool.
    pub fn with_page<R>(
        &self,
        fid: FileId,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.with_frame(fid, pid, |frame| f(frame.buf.bytes()))
    }

    /// Runs `f` over a mutable view of the page and marks it dirty.
    pub fn with_page_mut<R>(
        &self,
        fid: FileId,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.with_frame(fid, pid, |frame| {
            frame.dirty = true;
            frame.logged = false;
            f(frame.buf.bytes_mut())
        })
    }

    /// Copies the page into `out`. Use this when the caller needs to run
    /// user code over the contents (scans), so no lock is held meanwhile.
    pub fn read_page_into(&self, fid: FileId, pid: PageId, out: &mut PageBuf) -> Result<()> {
        self.with_frame(fid, pid, |frame| {
            out.bytes_mut().copy_from_slice(frame.buf.bytes())
        })
    }

    /// Writes every dirty frame back to its file, then syncs the files
    /// (a real `fsync` unless [`BufferPool::set_sync`] opted out).
    pub fn flush_all(&self) -> Result<()> {
        self.log_before_flush()?;
        let files = self.files.read();
        let wal = self.wal.read().clone();
        self.flush_frames(&mut self.frames.lock(), &files, wal.as_ref(), None)?;
        self.sync_files(&files)
    }

    /// Writes the dirty frames of one file back and syncs just that
    /// file. Used where something else must not reach disk before the
    /// file's contents do (e.g. the catalog line naming a freshly built
    /// B+tree).
    pub fn flush_file(&self, fid: FileId) -> Result<()> {
        let files = self.files.read();
        let wal = self.wal.read().clone();
        self.flush_frames(&mut self.frames.lock(), &files, wal.as_ref(), Some(fid))?;
        self.sync_files(&files[fid as usize..=fid as usize])
    }

    /// Flushes and then drops every cached frame: the next access to any
    /// page is a miss ("cold cache").
    pub fn clear_cache(&self) -> Result<()> {
        self.log_before_flush()?;
        let files = self.files.read();
        let wal = self.wal.read().clone();
        let mut table = self.frames.lock();
        self.flush_frames(&mut table, &files, wal.as_ref(), None)?;
        self.resident_pages.sub(table.frames.len() as i64);
        table.map.clear();
        table.frames.clear();
        table.hand = 0;
        drop(table);
        self.sync_files(&files)
    }

    /// Replaces the [`PageFile`] backing `fid` with `file`, keeping the
    /// id. The heap-rewrite path streams a new file and renames it over
    /// the old path, which leaves the registered handle pinned to the
    /// dead inode; this installs the fresh handle. Every cached frame of
    /// `fid` is discarded *without* writeback — the old contents are
    /// obsolete by construction, and flushing them would corrupt the new
    /// file. Callers must checkpoint first so no WAL image of the old
    /// contents can replay onto the new file.
    pub fn swap_file(&self, fid: FileId, file: PageFile) {
        let mut files = self.files.write();
        let mut table = self.frames.lock();
        let mut i = 0;
        while i < table.frames.len() {
            if table.frames[i].key.0 == fid {
                let key = table.frames[i].key;
                table.map.remove(&key);
                table.frames.swap_remove(i);
                if i < table.frames.len() {
                    let moved = table.frames[i].key;
                    table.map.insert(moved, i);
                }
                self.resident_pages.sub(1);
            } else {
                i += 1;
            }
        }
        table.hand = 0;
        files[fid as usize].file = file;
    }

    /// Appends the image of every dirty-but-unlogged page of every
    /// WAL-named file to the attached log (commit preparation), in one
    /// write; the frames count as logged only once it succeeded, so a
    /// failed write leaves every one of them to the next commit. Returns
    /// the number of images appended. A no-op without an attached WAL.
    pub fn log_dirty_pages(&self) -> Result<u64> {
        let files = self.files.read();
        let Some(wal) = self.wal.read().clone() else {
            return Ok(0);
        };
        let mut table = self.frames.lock();
        let name = |frame: &Frame| files[frame.key.0 as usize].wal_name.as_deref();
        let images: Vec<_> = (table.frames.iter())
            .filter(|frame| frame.dirty && !frame.logged)
            .filter_map(|frame| Some((name(frame)?, frame.key.1, frame.buf.bytes())))
            .collect();
        wal.append_images(&images)?;
        let logged = images.len() as u64;
        for frame in table.frames.iter_mut() {
            frame.logged |= frame.dirty && name(frame).is_some();
        }
        Ok(logged)
    }

    /// Logs the images of every dirty logged page, durably, before a flush
    /// writes any page back, so no unlogged page it writes indexes a row
    /// missing from both the log and the heap.
    fn log_before_flush(&self) -> Result<()> {
        self.log_dirty_pages()?;
        let wal = self.wal.read().clone();
        wal.map_or(Ok(()), |wal| wal.sync())
    }

    fn sync_files(&self, files: &[FileEntry]) -> Result<()> {
        if self.syncs() {
            for f in files {
                f.file.sync()?;
            }
        }
        Ok(())
    }

    /// Writes dirty frame `i` back to its file. WAL-before-data: if the
    /// file is WAL-named and the current contents are not yet logged,
    /// their image is appended to the log first. The WAL handle is read by
    /// the caller *before* the frame lock is taken (the declared order is
    /// `pool.walref` before `pool.frames`) and threaded in here.
    fn write_back(
        &self,
        table: &mut FrameTable,
        i: usize,
        files: &[FileEntry],
        wal: Option<&Arc<Wal>>,
    ) -> Result<()> {
        let frame = &mut table.frames[i];
        let (fid, pid) = frame.key;
        let entry = &files[fid as usize];
        if let (false, Some(name), Some(wal)) = (frame.logged, &entry.wal_name, wal) {
            wal.append_images(&[(name, pid, frame.buf.bytes())])?;
            frame.logged = true;
        }
        entry.file.write_page(pid, frame.buf.bytes())?;
        frame.dirty = false;
        table.stats.physical_writes += 1;
        self.metrics.physical_writes.inc();
        Ok(())
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.frames.lock().stats
    }

    /// Resets the cumulative counters to zero.
    pub fn reset_stats(&self) {
        self.frames.lock().stats = PoolStats::default();
    }

    /// Writes back the dirty frames (of file `only`, if given).
    fn flush_frames(
        &self,
        table: &mut FrameTable,
        files: &[FileEntry],
        wal: Option<&Arc<Wal>>,
        only: Option<FileId>,
    ) -> Result<()> {
        for i in 0..table.frames.len() {
            let frame = &table.frames[i];
            if frame.dirty && frame.key.0 == only.unwrap_or(frame.key.0) {
                self.write_back(table, i, files, wal)?;
            }
        }
        Ok(())
    }

    /// The frame index of a resident page, counted as a hit.
    fn lookup(&self, table: &mut FrameTable, key: (FileId, PageId)) -> Option<usize> {
        let i = *table.map.get(&key)?;
        table.stats.hits += 1;
        self.metrics.hits.inc();
        table.frames[i].referenced = true;
        Some(i)
    }

    /// Returns the frame index holding `(fid, pid)`, loading (and possibly
    /// evicting) as needed. `load` controls whether a miss reads the page
    /// from disk (true) or leaves the frame contents unspecified for the
    /// caller to overwrite (false, used by `allocate_page`, whose page the
    /// file does not hold yet).
    fn frame_for(
        &self,
        table: &mut FrameTable,
        files: &[FileEntry],
        wal: Option<&Arc<Wal>>,
        fid: FileId,
        pid: PageId,
        load: bool,
    ) -> Result<usize> {
        if let Some(i) = self.lookup(table, (fid, pid)) {
            return Ok(i);
        }
        table.stats.misses += 1;
        self.metrics.misses.inc();
        let i = if table.frames.len() < self.capacity {
            table.frames.push(Frame {
                key: (fid, pid),
                buf: PageBuf::zeroed(),
                dirty: false,
                logged: false,
                referenced: true,
            });
            self.resident_pages.add(1);
            table.frames.len() - 1
        } else {
            let victim = clock_victim(table);
            let old = table.frames[victim].key;
            if table.frames[victim].dirty {
                // A tree page evicted before its heap's rows are logged.
                if let (None, Some(wal)) = (&files[old.0 as usize].wal_name, wal) {
                    wal.mark_unclean()?;
                }
                self.write_back(table, victim, files, wal)?;
            }
            table.map.remove(&old);
            table.stats.evictions += 1;
            self.metrics.evictions.inc();
            table.frames[victim].key = (fid, pid);
            table.frames[victim].logged = false;
            table.frames[victim].referenced = true;
            victim
        };
        if load {
            let buf = table.frames[i].buf.bytes_mut();
            files[fid as usize].file.read_page(pid, buf)?;
            table.stats.physical_reads += 1;
            self.metrics.physical_reads.inc();
        }
        table.map.insert((fid, pid), i);
        Ok(i)
    }
}

impl Drop for BufferPool {
    /// Returns the pool's remaining residency to the global gauge, so a
    /// test or bench run that builds many pools doesn't ratchet
    /// `pool.resident_pages` upward forever.
    fn drop(&mut self) {
        let resident = self.frames.get_mut().frames.len();
        self.resident_pages.sub(resident as i64);
    }
}

/// Second-chance clock: clear referenced bits until an unreferenced frame
/// is found.
fn clock_victim(table: &mut FrameTable) -> usize {
    loop {
        let i = table.hand;
        table.hand = (table.hand + 1) % table.frames.len();
        if table.frames[i].referenced {
            table.frames[i].referenced = false;
        } else {
            return i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pagestore-bp-{}-{name}", std::process::id()))
    }

    fn pool_with_file(name: &str, cap: usize) -> (BufferPool, FileId, PathBuf) {
        let p = tmpfile(name);
        let pool = BufferPool::new(cap);
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        (pool, fid, p)
    }

    #[test]
    fn write_read_through_pool() {
        let (pool, fid, p) = pool_with_file("wr", 16);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |b| b[100] = 42).unwrap();
        let v = pool.with_page(fid, pid, |b| b[100]).unwrap();
        assert_eq!(v, 42);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let (pool, fid, p) = pool_with_file("evict", 8);
        // Allocate and dirty more pages than fit in the pool.
        let mut pids = Vec::new();
        for i in 0..32u32 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |b| b[0] = i as u8).unwrap();
            pids.push(pid);
        }
        // Every page must read back its own value (through evictions).
        for (i, &pid) in pids.iter().enumerate() {
            let v = pool.with_page(fid, pid, |b| b[0]).unwrap();
            assert_eq!(v, i as u8, "page {pid}");
        }
        let s = pool.stats();
        assert!(s.evictions > 0, "pool capacity was never exceeded");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn evicted_dirty_victim_is_logged_before_it_is_written() {
        use crate::wal::{records, CommitState, Record, WAL_FILE};
        let dir = tmpfile("walevict");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let state = CommitState::default();
        let wal = Arc::new(Wal::create(Arc::new(crate::OsVfs), &dir, &state, false).unwrap());
        let pool = BufferPool::new(8);
        pool.attach_wal(Arc::clone(&wal));
        let path = dir.join("t.tbl");
        let file = PageFile::create(&crate::OsVfs, &path).unwrap();
        let fid = pool.register_file_named(file, Some("t.tbl".to_string()));
        // Four times the pool: allocation and the read-back below both
        // evict dirty pages, and nothing else ever writes one back.
        for i in 0..32u8 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |b| b[..2].copy_from_slice(&[i + 1, 0xEE]))
                .unwrap();
        }
        for pid in 0..32u32 {
            let first = pool.with_page(fid, pid, |b| b[0]).unwrap();
            assert_eq!(u32::from(first), pid + 1);
        }
        assert!(pool.stats().evictions >= 24);
        let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let logged: Vec<(u32, &[u8])> = (records(&log).0.into_iter())
            .filter_map(|(_, record)| match record {
                Record::PageImage {
                    file: "t.tbl",
                    pid,
                    used,
                } => Some((pid, used)),
                _ => None,
            })
            .collect();
        // Whatever reached the data file is in the log already.
        let on_disk = std::fs::read(&path).unwrap();
        let written: Vec<(u32, &[u8])> = on_disk
            .chunks_exact(PAGE_SIZE)
            .enumerate()
            .filter(|(_, page)| page[1] == 0xEE)
            .map(|(pid, page)| (pid as u32, page))
            .collect();
        assert!(written.len() >= 24, "evictions wrote {}", written.len());
        for (pid, page) in written {
            assert!(
                logged.iter().any(|(p, used)| *p == pid
                    && page.starts_with(used)
                    && page[used.len()..].iter().all(|&b| b == 0)),
                "page {pid} was written back without a log image"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hits_and_misses_counted() {
        let (pool, fid, p) = pool_with_file("stats", 16);
        let pid = pool.allocate_page(fid).unwrap();
        pool.reset_stats();
        pool.with_page(fid, pid, |_| ()).unwrap();
        pool.with_page(fid, pid, |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn clear_cache_forces_misses() {
        let (pool, fid, p) = pool_with_file("cold", 16);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |b| b[1] = 9).unwrap();
        pool.clear_cache().unwrap();
        pool.reset_stats();
        let v = pool.with_page(fid, pid, |b| b[1]).unwrap();
        assert_eq!(v, 9, "data survives the cache drop");
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.physical_reads, 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn resident_pages_tracks_fill_eviction_and_clear() {
        let (pool, fid, p) = pool_with_file("resident", 8);
        assert_eq!(pool.resident_pages(), 0);
        // Fill past capacity: residency saturates at capacity because
        // eviction reuses frames instead of growing the table.
        for _ in 0..32 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |b| b[0] = 1).unwrap();
        }
        let resident = pool.resident_pages();
        assert!(resident > 0 && resident <= 8, "resident={resident}");
        assert!(pool.stats().evictions > 0);
        pool.clear_cache().unwrap();
        assert_eq!(pool.resident_pages(), 0, "clear_cache empties the pool");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn stats_since_computes_delta() {
        let a = PoolStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            physical_reads: 4,
            physical_writes: 2,
        };
        let b = PoolStats {
            hits: 25,
            misses: 9,
            evictions: 1,
            physical_reads: 9,
            physical_writes: 2,
        };
        let d = b.since(&a);
        assert_eq!(d.hits, 15);
        assert_eq!(d.misses, 5);
        assert_eq!(d.evictions, 0);
    }

    #[test]
    fn stats_since_saturates_on_counter_reset() {
        // If reset_stats() ran between the snapshots, "later" counters can
        // be smaller than "earlier". The delta must clamp to 0 per field,
        // never wrap.
        let earlier = PoolStats {
            hits: 100,
            misses: 50,
            evictions: 10,
            physical_reads: 50,
            physical_writes: 20,
        };
        let later = PoolStats {
            hits: 3,
            misses: 60,
            evictions: 0,
            physical_reads: 1,
            physical_writes: 25,
        };
        let d = later.since(&earlier);
        assert_eq!(
            d,
            PoolStats {
                hits: 0,
                misses: 10,
                evictions: 0,
                physical_reads: 0,
                physical_writes: 5,
            }
        );
    }

    #[test]
    fn stats_since_of_self_is_zero() {
        let s = PoolStats {
            hits: 7,
            misses: 7,
            evictions: 7,
            physical_reads: 7,
            physical_writes: 7,
        };
        assert_eq!(s.since(&s), PoolStats::default());
    }

    #[test]
    fn stats_merged_adds_componentwise() {
        let a = PoolStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            physical_reads: 4,
            physical_writes: 5,
        };
        let b = PoolStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            physical_reads: 40,
            physical_writes: 50,
        };
        let m = a.merged(&b);
        assert_eq!(m.hits, 11);
        assert_eq!(m.misses, 22);
        assert_eq!(m.evictions, 33);
        assert_eq!(m.physical_reads, 44);
        assert_eq!(m.physical_writes, 55);
        // since() inverts merged(): (a+b) - b == a.
        assert_eq!(m.since(&b), a);
    }

    #[test]
    fn pool_publishes_global_counters() {
        let before = obs::global().snapshot();
        let (pool, fid, p) = pool_with_file("obs", 16);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page(fid, pid, |_| ()).unwrap();
        pool.clear_cache().unwrap();
        pool.with_page(fid, pid, |_| ()).unwrap();
        let d = obs::global().snapshot().delta(&before);
        // One hit (first access after allocate), one miss + physical read
        // (after the cache drop). Other tests may run concurrently, so
        // assert lower bounds only.
        assert!(d.counters.get("pool.hits").copied().unwrap_or(0) >= 1);
        assert!(d.counters.get("pool.misses").copied().unwrap_or(0) >= 1);
        assert!(d.counters.get("pool.physical_reads").copied().unwrap_or(0) >= 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn read_page_into_copies() {
        let (pool, fid, p) = pool_with_file("copy", 16);
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |b| b[7] = 3).unwrap();
        let mut out = PageBuf::zeroed();
        pool.read_page_into(fid, pid, &mut out).unwrap();
        assert_eq!(out.bytes()[7], 3);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn multiple_files_are_isolated() {
        let p1 = tmpfile("multi1");
        let p2 = tmpfile("multi2");
        let pool = BufferPool::new(16);
        let f1 = pool.register_file(PageFile::create(&crate::OsVfs, &p1).unwrap());
        let f2 = pool.register_file(PageFile::create(&crate::OsVfs, &p2).unwrap());
        let a = pool.allocate_page(f1).unwrap();
        let b = pool.allocate_page(f2).unwrap();
        pool.with_page_mut(f1, a, |x| x[0] = 1).unwrap();
        pool.with_page_mut(f2, b, |x| x[0] = 2).unwrap();
        assert_eq!(pool.with_page(f1, a, |x| x[0]).unwrap(), 1);
        assert_eq!(pool.with_page(f2, b, |x| x[0]).unwrap(), 2);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn concurrent_readers_and_stats_are_consistent() {
        let (pool, fid, p) = pool_with_file("conc", 64);
        let mut pids = Vec::new();
        for i in 0..128u32 {
            let pid = pool.allocate_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |b| b[3] = (i % 251) as u8)
                .unwrap();
            pids.push(pid);
        }
        pool.flush_all().unwrap();
        pool.reset_stats();
        let pool = std::sync::Arc::new(pool);
        let threads = 8;
        let rounds = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let pool = std::sync::Arc::clone(&pool);
                let pids = pids.clone();
                s.spawn(move || {
                    for r in 0..rounds {
                        for (i, &pid) in pids.iter().enumerate() {
                            if (i + t + r) % 3 == 0 {
                                let v = pool.with_page(fid, pid, |b| b[3]).unwrap();
                                assert_eq!(v, (i % 251) as u8);
                            }
                        }
                    }
                });
            }
        });
        let s = pool.stats();
        // Every logical request is either a hit or a miss; every miss did
        // one physical read (no allocations or writes here).
        let requests: usize = (0..threads)
            .flat_map(|t| (0..rounds).map(move |r| t + r))
            .map(|tr| (0..pids.len()).filter(|i| (i + tr) % 3 == 0).count())
            .sum();
        assert_eq!(s.hits + s.misses, requests as u64);
        assert_eq!(s.physical_reads, s.misses);
        assert_eq!(s.physical_writes, 0);
        std::fs::remove_file(&p).ok();
    }
}
