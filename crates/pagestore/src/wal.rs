//! The redo-only write-ahead log.
//!
//! One `wal.log` file per database directory, a flat sequence of
//! checksummed, LSN-stamped records:
//!
//! ```text
//! [magic u32][len u32][crc32 u32][payload]
//! payload = kind u8, lsn u64, body
//! ```
//!
//! Three record kinds exist. `PageImage` carries the after-image of one
//! page of a named file, with the page's trailing zeros elided (heap
//! tail pages are mostly empty, so this roughly halves log volume);
//! replay zero-fills the rest, reconstructing the full 4 KiB image.
//! Redo is idempotent, so recovery can replay every valid image
//! unconditionally. `Commit` marks
//! an application-consistent point: the committed row count of every
//! table plus an opaque application blob (the `core` crate stores its
//! `segdiff.meta` text there). `Checkpoint` is a `Commit` whose preceding
//! images are already durable in the data files; the log always *starts*
//! with one, so "any record after the first" is exactly the unclean-
//! shutdown predicate [`crate::recovery`] keys off.
//!
//! The byte path: every payload is checksummed by a slicing-by-8
//! [`crc32`] (eight table lookups per eight bytes), an image's zero tail
//! is found a word at a time, and a group commit's images go to the log
//! in one write ([`Wal::append_images`]); the commit record follows in a
//! write of its own.
//!
//! Durability discipline: in sync mode, [`Wal::append_commit`] fsyncs
//! the log, and checkpointing rewrites it atomically (temp file + fsync +
//! rename + directory fsync), which both truncates the log and bounds
//! replay. Without sync mode no call fsyncs: the log then survives a
//! killed process, not a power loss. A log that is its checkpoint alone
//! promises that no data file changed since; `Wal::mark_unclean` breaks
//! the promise, durably, before a page the log does not cover is written.

use crate::error::Result;
use crate::page::arr;
use crate::pagefile::PageId;
use crate::vfs::{write_atomic, Vfs, VfsFile};
use crate::PAGE_SIZE;
use parking_lot::Mutex;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic word opening every frame ("SDWL").
pub const WAL_MAGIC: u32 = 0x5344_574C;
const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
/// Frame header size: magic + len + crc.
pub const FRAME_HDR: usize = 12;

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by 8:
/// `CRC_TABLES[0]` is the byte-at-a-time table, and `CRC_TABLES[k]` takes
/// a byte's remainder through `k` more zero bytes, so eight lookups fold
/// eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[t - 1][i];
            tables[t][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Checksum of `data` (used for every WAL record payload): eight bytes a
/// step, the last `len % 8` a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let b = (u64::from_le_bytes(arr(word, 0)) ^ u64::from(c)).to_le_bytes();
        c = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------- records

/// The application-consistent state a `Commit`/`Checkpoint` pins down:
/// per-table durable row counts plus an opaque application blob.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitState {
    /// `(table name, committed row count)` pairs.
    pub tables: Vec<(String, u64)>,
    /// Opaque application payload (e.g. serialized index metadata).
    pub blob: Vec<u8>,
}

/// A decoded WAL record (crate-internal: recovery consumes these), over
/// the bytes of its frame.
#[derive(Debug)]
pub(crate) enum Record<'a> {
    /// After-image of page `pid` of the file named `file`: its first
    /// `used.len()` bytes, the rest of the page zeros.
    PageImage {
        file: &'a str,
        pid: PageId,
        used: &'a [u8],
    },
    /// An application-consistent commit point.
    Commit(CommitState),
    /// A commit point whose images are already durable (log start).
    Checkpoint(CommitState),
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_state(buf: &mut Vec<u8>, state: &CommitState) {
    buf.extend_from_slice(&(state.blob.len() as u32).to_le_bytes());
    buf.extend_from_slice(&state.blob);
    buf.extend_from_slice(&(state.tables.len() as u16).to_le_bytes());
    for (name, rows) in &state.tables {
        put_str(buf, name);
        buf.extend_from_slice(&rows.to_le_bytes());
    }
}

/// A cursor over a byte slice that fails with `None` instead of panicking
/// on truncated input (decode errors surface as torn records).
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(head)
    }
    /// The next `N` bytes, for a little-endian number.
    fn le<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|b| arr(b, 0))
    }
    /// A table's or file's name: one name inside the store's directory.
    fn name(&mut self) -> Option<&'a str> {
        let n = u16::from_le_bytes(self.le()?) as usize;
        let name = std::str::from_utf8(self.take(n)?).ok()?;
        (!name.contains(['/', '\0'])).then_some(name)
    }
}

fn decode_state(c: &mut Cursor<'_>) -> Option<CommitState> {
    let blob_len = u32::from_le_bytes(c.le()?) as usize;
    let blob = c.take(blob_len)?.to_vec();
    let ntables = u16::from_le_bytes(c.le()?);
    let tables = (0..ntables).map(|_| Some((c.name()?.to_owned(), u64::from_le_bytes(c.le()?))));
    Some(CommitState {
        tables: tables.collect::<Option<_>>()?,
        blob,
    })
}

/// Decodes one payload; `None` means the record is torn/garbled and the
/// scan must stop there.
fn decode_payload(payload: &[u8]) -> Option<(u64, Record<'_>)> {
    let mut c = Cursor(payload);
    let [kind] = c.le()?;
    let lsn = u64::from_le_bytes(c.le()?);
    let rec = match kind {
        KIND_PAGE_IMAGE => {
            let file = c.name().filter(|f| f.ends_with(".tbl"))?;
            let pid = u32::from_le_bytes(c.le()?);
            let len = u32::from_le_bytes(c.le()?) as usize;
            let used = c.take(len).filter(|_| len <= PAGE_SIZE)?;
            Record::PageImage { file, pid, used }
        }
        KIND_COMMIT => Record::Commit(decode_state(&mut c)?),
        KIND_CHECKPOINT => Record::Checkpoint(decode_state(&mut c)?),
        _ => return None,
    };
    Some((lsn, rec))
}

/// Where one walk found the valid prefix of a log to end: its length, the
/// torn tail behind it, its records, the LSNs of its last record and of
/// its last checkpoint (0 for none), and the checkpoint's state when the
/// prefix is that checkpoint alone. [`Wal::open_at`] continues from it.
#[derive(Debug, Default)]
pub(crate) struct LogEnd {
    pub valid_bytes: u64,
    pub torn_bytes: u64,
    pub records: u64,
    pub last_lsn: u64,
    pub checkpoint_lsn: u64,
    pub clean: Option<CommitState>,
}

/// Walks the frames of `data` up to the first torn or garbled one (bad
/// magic, bad CRC, short frame, undecodable payload), handing `visit`
/// each frame's bytes, LSN and record; returns where the valid prefix
/// ends. The first error `visit` returns stops the walk and is returned.
pub(crate) fn walk<'a>(
    data: &'a [u8],
    mut visit: impl FnMut(&'a [u8], u64, Record<'a>) -> Result<()>,
) -> Result<LogEnd> {
    let (mut end, mut pos) = (LogEnd::default(), 0);
    while let Some(hdr) = data.get(pos..pos + FRAME_HDR) {
        if u32::from_le_bytes(arr(hdr, 0)) != WAL_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(arr(hdr, 4)) as usize;
        let Some(frame) = data.get(pos..pos + FRAME_HDR + len) else {
            break;
        };
        let payload = &frame[FRAME_HDR..];
        if crc32(payload) != u32::from_le_bytes(arr(hdr, 8)) {
            break;
        }
        let Some((lsn, rec)) = decode_payload(payload) else {
            break;
        };
        end.clean = match (&rec, end.records) {
            (Record::Checkpoint(state), 0) => Some(state.clone()),
            _ => None,
        };
        if let Record::Checkpoint(_) = rec {
            end.checkpoint_lsn = lsn;
        }
        (end.records, end.last_lsn) = (end.records + 1, lsn);
        visit(frame, lsn, rec)?;
        pos += frame.len();
    }
    (end.valid_bytes, end.torn_bytes) = (pos as u64, (data.len() - pos) as u64);
    Ok(end)
}

/// The records of the valid prefix of `data`, each with its LSN, and
/// where the prefix ends: what tests inspect of a log.
#[cfg(test)]
pub(crate) fn records(data: &[u8]) -> (Vec<(u64, Record<'_>)>, LogEnd) {
    let mut records = Vec::new();
    let end = walk(data, |_, lsn, rec| {
        records.push((lsn, rec));
        Ok(())
    });
    (records, end.unwrap_or_default())
}

/// The bytes of the log at `path`; a missing log reads as empty.
pub(crate) fn read_log(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>> {
    match vfs.read(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(Vec::new()),
        read => Ok(read?),
    }
}

// ----------------------------------------------------------------- Wal

/// Global-registry counters for the log (`wal.*`).
struct WalMetrics {
    appends: Arc<obs::Counter>,
    bytes: Arc<obs::Counter>,
    fsyncs: Arc<obs::Counter>,
    commits: Arc<obs::Counter>,
    checkpoints: Arc<obs::Counter>,
}

impl WalMetrics {
    fn new(r: &obs::MetricsRegistry) -> Self {
        WalMetrics {
            appends: r.counter("wal.appends"),
            bytes: r.counter("wal.bytes"),
            fsyncs: r.counter("wal.fsyncs"),
            commits: r.counter("wal.commits"),
            checkpoints: r.counter("wal.checkpoints"),
        }
    }
}

struct WalInner {
    file: Box<dyn VfsFile>,
    next_lsn: u64,
    bytes: u64,
    scratch: Vec<u8>,
    /// The checkpoint's state while the log holds nothing else.
    clean: Option<CommitState>,
    /// Whether appended frames await a sync (never in a log that does
    /// not sync).
    unsynced: bool,
}

/// An open write-ahead log.
///
/// Thread-safe: a single mutex serializes appends, which sits *below*
/// the buffer pool's frame lock in the lock order (the pool appends
/// page images while holding its frame lock; the WAL never re-enters the
/// pool).
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    inner: Mutex<WalInner>,
    sync: bool,
    last_checkpoint_lsn: AtomicU64,
    metrics: WalMetrics,
}

impl Wal {
    /// Creates a fresh log in `dir` whose first record is a checkpoint of
    /// `state` (an empty log is never valid).
    pub fn create(vfs: Arc<dyn Vfs>, dir: &Path, state: &CommitState, sync: bool) -> Result<Wal> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, KIND_CHECKPOINT, 1, |b| encode_state(b, state));
        write_atomic(&*vfs, &dir.join(WAL_FILE), &frame, sync)?;
        let end = walk(&frame, |_, _, _| Ok(()))?;
        let wal = Self::open_at(vfs, dir, end, sync)?;
        wal.count_checkpoint(frame.len());
        Ok(wal)
    }

    /// Opens an existing log for appending, after one walk of it.
    pub fn open(vfs: Arc<dyn Vfs>, dir: &Path, sync: bool) -> Result<Wal> {
        let end = walk(&read_log(&*vfs, &dir.join(WAL_FILE))?, |_, _, _| Ok(()))?;
        Self::open_at(vfs, dir, end, sync)
    }

    /// Opens the log in `dir`, whose valid prefix a walk found to end at
    /// `end`, for appending: `next_lsn` continues after the last valid
    /// record. A torn tail is cut off (and the cut synced, in sync mode).
    pub(crate) fn open_at(vfs: Arc<dyn Vfs>, dir: &Path, end: LogEnd, sync: bool) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let file = vfs.open(&path)?;
        if end.torn_bytes > 0 {
            file.set_len(end.valid_bytes)?;
            if sync {
                file.sync()?;
            }
        }
        Ok(Wal {
            vfs,
            path,
            inner: Mutex::new(WalInner {
                file,
                next_lsn: end.last_lsn.saturating_add(1),
                bytes: end.valid_bytes,
                scratch: Vec::new(),
                clean: end.clean,
                unsynced: false,
            }),
            sync,
            last_checkpoint_lsn: AtomicU64::new(end.checkpoint_lsn),
            metrics: WalMetrics::new(obs::global()),
        })
    }

    /// Current log size in bytes (valid prefix only).
    pub fn size_bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// LSN of the most recent checkpoint record.
    pub fn last_checkpoint_lsn(&self) -> u64 {
        self.last_checkpoint_lsn.load(Ordering::Acquire)
    }

    /// LSN the next record will get.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Appends the after-images of `images` — `(logged file name, page,
    /// bytes)` — one record each, with trailing zeros elided (replay
    /// zero-fills), in one write. The frames are encoded into a buffer of
    /// this call's own, dropped after the write. Not fsynced by itself:
    /// images only need to be durable before the data pages are
    /// overwritten, and the commit/checkpoint that follows syncs them. On
    /// an error no record is appended: the next append writes over
    /// whatever part of this write landed.
    pub fn append_images(&self, images: &[(&str, PageId, &[u8; PAGE_SIZE])]) -> Result<()> {
        if images.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let mut frames = Vec::new();
        for (lsn, &(file, pid, image)) in (inner.next_lsn..).zip(images) {
            let used = used_len(image);
            frames.reserve(image_frame_len(file, used));
            encode_frame(&mut frames, KIND_PAGE_IMAGE, lsn, |b| {
                put_str(b, file);
                b.extend_from_slice(&pid.to_le_bytes());
                b.extend_from_slice(&(used as u32).to_le_bytes());
                b.extend_from_slice(&image[..used]);
            });
        }
        self.write_frames(&mut inner, &frames, images.len() as u64)
    }

    /// Appends a commit record and syncs the log (in sync mode): group
    /// commit batches above, in [`crate::Database::commit`].
    pub fn append_commit(&self, state: &CommitState) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = self.append(&mut inner, KIND_COMMIT, |b| encode_state(b, state))?;
        self.metrics.commits.inc();
        self.sync_locked(&mut inner)?;
        Ok(lsn)
    }

    /// Syncs what was appended since the last sync (in sync mode).
    pub fn sync(&self) -> Result<()> {
        self.sync_locked(&mut self.inner.lock())
    }

    fn sync_locked(&self, inner: &mut WalInner) -> Result<()> {
        if inner.unsynced {
            inner.file.sync()?;
            self.metrics.fsyncs.inc();
            inner.unsynced = false;
        }
        Ok(())
    }

    /// Makes the log say, durably, that a file changed since its
    /// checkpoint, before a page the log does not cover (a B+tree, or the
    /// zeros a heap's first page is allocated as) reaches a file: a log
    /// that is its checkpoint alone gets a commit
    /// restating the checkpoint's state (recovery lands where it would
    /// have, and rebuilds the trees), and the log is synced.
    pub(crate) fn mark_unclean(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(state) = inner.clean.clone() {
            self.append(&mut inner, KIND_COMMIT, |b| encode_state(b, &state))?;
        }
        self.sync_locked(&mut inner)
    }

    /// Atomically truncates the log to a single checkpoint record of
    /// `state`. The caller must have made all earlier page images
    /// durable in the data files first (that is what makes the record a
    /// checkpoint). Temp file + fsync + rename + directory fsync, so a
    /// crash leaves either the old or the new log, never a mix.
    pub fn checkpoint(&self, state: &CommitState) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let mut frame = std::mem::take(&mut inner.scratch);
        frame.clear();
        encode_frame(&mut frame, KIND_CHECKPOINT, lsn, |b| encode_state(b, state));
        write_atomic(&*self.vfs, &self.path, &frame, self.sync)?;
        inner.file = self.vfs.open(&self.path)?;
        inner.next_lsn = lsn + 1;
        inner.bytes = frame.len() as u64;
        inner.clean = Some(state.clone());
        inner.unsynced = false;
        self.last_checkpoint_lsn.store(lsn, Ordering::Release);
        self.count_checkpoint(frame.len());
        inner.scratch = frame;
        Ok(lsn)
    }

    fn count_checkpoint(&self, len: usize) {
        if self.sync {
            self.metrics.fsyncs.inc();
        }
        self.metrics.appends.inc();
        self.metrics.bytes.add(len as u64);
        self.metrics.checkpoints.inc();
    }

    /// Appends one record of `kind`, whose body `body` writes, at the end
    /// of the log's valid prefix; returns its LSN.
    fn append(
        &self,
        inner: &mut WalInner,
        kind: u8,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        let lsn = inner.next_lsn;
        let mut frame = std::mem::take(&mut inner.scratch);
        frame.clear();
        encode_frame(&mut frame, kind, lsn, body);
        let written = self.write_frames(inner, &frame, 1);
        inner.scratch = frame;
        written.map(|()| lsn)
    }

    /// Writes `frames`, `records` whole records from `inner.next_lsn` on,
    /// at the end of the log's valid prefix, and counts them appended once
    /// the write succeeded.
    fn write_frames(&self, inner: &mut WalInner, frames: &[u8], records: u64) -> Result<()> {
        inner.file.write_at(frames, inner.bytes)?;
        inner.next_lsn += records;
        inner.bytes += frames.len() as u64;
        inner.clean = None;
        inner.unsynced = self.sync;
        self.metrics.appends.add(records);
        self.metrics.bytes.add(frames.len() as u64);
        Ok(())
    }
}

/// The length of the frame of an image of a page of `file` that keeps
/// `used` bytes: header, kind and LSN, name, page and length, bytes.
pub(crate) fn image_frame_len(file: &str, used: usize) -> usize {
    FRAME_HDR + 9 + 2 + file.len() + 8 + used
}

/// Appends to `buf` the frame of a record of `kind` and `lsn` whose body
/// `body` writes.
fn encode_frame(buf: &mut Vec<u8>, kind: u8, lsn: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HDR]);
    buf.push(kind);
    buf.extend_from_slice(&lsn.to_le_bytes());
    body(buf);
    let payload = &buf[start + FRAME_HDR..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    let hdr = &mut buf[start..start + FRAME_HDR];
    hdr[..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    hdr[4..8].copy_from_slice(&len.to_le_bytes());
    hdr[8..].copy_from_slice(&crc.to_le_bytes());
}

/// How many bytes of `image` a page-image record keeps: one past its last
/// non-zero byte, 0 for a page of zeros. Steps back over the zero tail a
/// word at a time, then a byte at a time inside the last non-zero word.
fn used_len(image: &[u8; PAGE_SIZE]) -> usize {
    let mut end = PAGE_SIZE;
    while end >= 8 && u64::from_ne_bytes(arr(image, end - 8)) == 0 {
        end -= 8;
    }
    image[..end]
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn os() -> Arc<dyn Vfs> {
        Arc::new(OsVfs)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pagestore-wal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn state(n: u64) -> CommitState {
        CommitState {
            tables: vec![("t".into(), n)],
            blob: format!("blob{n}").into_bytes(),
        }
    }

    /// The byte-at-a-time CRC: the oracle the sliced loop must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.random::<u8>()).collect()
    }

    #[test]
    fn codec_crc32_check_vectors() {
        let vectors: [(&[u8], u32); 7] = [
            (b"123456789", 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
        ];
        for (data, crc) in vectors {
            assert_eq!(crc32(data), crc, "{data:?}");
            assert_eq!(crc32_bytewise(data), crc, "{data:?}");
        }
    }

    #[test]
    fn codec_crc32_equals_the_byte_loop() {
        let mut rng = StdRng::seed_from_u64(0xC4C3);
        // Every length up to eight words past every alignment: the word
        // loop's every tail, from every start.
        let buf = random_bytes(&mut rng, 8 + 64);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
        let (rounds, len) = if cfg!(miri) {
            (1, 4 << 10)
        } else {
            (16, 64 << 10)
        };
        for _ in 0..rounds {
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    #[test]
    fn codec_used_len_equals_rposition() {
        let rposition =
            |page: &[u8; PAGE_SIZE]| page.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let zeros = [0u8; PAGE_SIZE];
        assert_eq!(used_len(&zeros), 0);
        assert_eq!(rposition(&zeros), 0);
        let mut rng = StdRng::seed_from_u64(0x2E80);
        let named = [0, 1, 7, 8, 9, 4088, 4095];
        let every: Vec<usize> = match cfg!(miri) {
            true => named.to_vec(),
            false => named.into_iter().chain(0..PAGE_SIZE).collect(),
        };
        for last in every {
            // Zeros but the last byte, then noise (zeros among it) below.
            let mut page = [0u8; PAGE_SIZE];
            page[last] = rng.random_range(1..=255u8);
            assert_eq!(used_len(&page), last + 1, "last non-zero byte {last}");
            for b in &mut page[..last] {
                *b = rng.random::<u8>() & 0x81;
            }
            assert_eq!(
                used_len(&page),
                rposition(&page),
                "last non-zero byte {last}"
            );
            assert_eq!(used_len(&page), last + 1);
        }
    }

    /// Whether `used` is the image of `page`: its bytes, then zeros.
    fn is_image_of(used: &[u8], page: &[u8; PAGE_SIZE]) -> bool {
        let (head, tail) = page.split_at(used.len());
        head == used && tail.iter().all(|&b| b == 0)
    }

    /// One image a record and a write, its zero tail found by
    /// `rposition`: the oracle a batch of images must equal.
    fn append_image_bytewise(wal: &Wal, file: &str, pid: PageId, image: &[u8; PAGE_SIZE]) -> u64 {
        let used = image.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let body = |b: &mut Vec<u8>| {
            put_str(b, file);
            b.extend_from_slice(&pid.to_le_bytes());
            b.extend_from_slice(&(used as u32).to_le_bytes());
            b.extend_from_slice(&image[..used]);
        };
        wal.append(&mut wal.inner.lock(), KIND_PAGE_IMAGE, body)
            .unwrap()
    }

    #[test]
    fn a_batch_of_images_writes_what_single_appends_wrote() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut pages: Vec<Box<[u8; PAGE_SIZE]>> = Vec::new();
        for last in [PAGE_SIZE - 1, 0, 8, 4088, 1000, 7, 2049] {
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page[..last].copy_from_slice(&random_bytes(&mut rng, last));
            page[last] = 0x5A;
            pages.push(page);
        }
        pages.push(Box::new([0u8; PAGE_SIZE]));
        let names = ["t.tbl", "segments.tbl", "a-much-longer-table-name.tbl"];
        let images: Vec<(&str, PageId, &[u8; PAGE_SIZE])> = (pages.iter().enumerate())
            .map(|(i, page)| (names[i % names.len()], 3 * i as PageId, &**page))
            .collect();
        let mut logs = Vec::new();
        for batch in [true, false] {
            let dir = tmpdir(&format!("batch-{batch}"));
            let mut wal = Wal::create(os(), &dir, &state(0), true).unwrap();
            wal.append_commit(&state(1)).unwrap();
            let registry = obs::MetricsRegistry::new();
            wal.metrics = WalMetrics::new(&registry);
            let first = wal.next_lsn();
            if batch {
                wal.append_images(&images).unwrap();
            } else {
                for (lsn, &(file, pid, image)) in (first..).zip(&images) {
                    assert_eq!(append_image_bytewise(&wal, file, pid, image), lsn);
                }
            }
            wal.append_commit(&state(2)).unwrap();
            let counted = |name| registry.counter(name).get();
            let counts = [counted("wal.appends"), counted("wal.bytes")];
            let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
            logs.push((bytes, wal.next_lsn(), counts));
            std::fs::remove_dir_all(&dir).ok();
        }
        let (batched, singles) = (&logs[0], &logs[1]);
        assert_eq!(batched.1, singles.1, "next LSN");
        assert_eq!(batched.2, singles.2, "wal.appends, wal.bytes");
        assert_eq!(batched.2[0], images.len() as u64 + 1);
        assert!(batched.0 == singles.0, "the two logs differ");
        // Every frame's checksum is the byte loop's, and every image
        // replays to its page.
        let mut replayed = Vec::new();
        let end = walk(&batched.0, |frame, lsn, rec| {
            let crc = u32::from_le_bytes(arr(frame, 8));
            assert_eq!(crc, crc32_bytewise(&frame[FRAME_HDR..]), "LSN {lsn}");
            if let Record::PageImage { file, pid, used } = rec {
                replayed.push((file, pid, used));
            }
            Ok(())
        });
        assert_eq!(end.unwrap().valid_bytes, batched.0.len() as u64);
        assert_eq!(replayed.len(), images.len());
        for (&(file, pid, used), &(name, page, bytes)) in replayed.iter().zip(&images) {
            assert_eq!((file, pid), (name, page));
            assert!(is_image_of(used, bytes));
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::create(os(), &dir, &state(0), false).unwrap();
        let img = Box::new([7u8; PAGE_SIZE]);
        wal.append_images(&[("t.tbl", 3, &*img)]).unwrap();
        // A mostly-empty page: its trailing zeros are elided on disk and
        // zero-filled back on replay.
        let mut sparse = Box::new([0u8; PAGE_SIZE]);
        sparse[..3].copy_from_slice(&[9, 8, 7]);
        let before = wal.size_bytes();
        wal.append_images(&[("t.tbl", 4, &*sparse)]).unwrap();
        assert!(
            wal.size_bytes() - before < 100,
            "sparse image must be stored compressed"
        );
        wal.append_commit(&state(5)).unwrap();
        let data = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let (records, end) = super::records(&data);
        assert_eq!(end.torn_bytes, 0);
        assert_eq!(records.len(), 4);
        match &records[2].1 {
            Record::PageImage { used, .. } => assert!(is_image_of(used, &sparse)),
            r => panic!("unexpected record {r:?}"),
        }
        assert!(matches!(records[0].1, Record::Checkpoint(_)));
        match &records[1].1 {
            Record::PageImage { file, pid, used } => {
                assert_eq!(*file, "t.tbl");
                assert_eq!(*pid, 3);
                assert!(is_image_of(used, &img));
            }
            r => panic!("unexpected record {r:?}"),
        }
        match &records[3].1 {
            Record::Commit(s) => assert_eq!(*s, state(5)),
            r => panic!("unexpected record {r:?}"),
        }
        // LSNs are dense and increasing.
        let lsns: Vec<u64> = records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir("torn");
        let wal = Wal::create(os(), &dir, &state(0), false).unwrap();
        wal.append_commit(&state(1)).unwrap();
        wal.append_commit(&state(2)).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Truncate mid-record: the last record is dropped, earlier ones
        // survive.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let end = records(&std::fs::read(&path).unwrap()).1;
        assert_eq!((end.records, end.last_lsn), (2, 2));
        assert!(end.torn_bytes > 0);
        // Garble a byte of the last surviving record: CRC catches it.
        let mut garbled = full.clone();
        let n = garbled.len();
        garbled[n - 3] ^= 0xFF;
        assert_eq!(records(&garbled).0.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_log() {
        let dir = tmpdir("ckpt");
        let wal = Wal::create(os(), &dir, &state(0), false).unwrap();
        let img = Box::new([1u8; PAGE_SIZE]);
        for pid in 0..20 {
            wal.append_images(&[("t.tbl", pid, &*img)]).unwrap();
        }
        wal.append_commit(&state(9)).unwrap();
        let before = wal.size_bytes();
        let lsn = wal.checkpoint(&state(9)).unwrap();
        assert!(wal.size_bytes() < before);
        assert_eq!(wal.last_checkpoint_lsn(), lsn);
        let end = records(&std::fs::read(dir.join(WAL_FILE)).unwrap()).1;
        assert_eq!((end.records, end.checkpoint_lsn), (1, lsn));
        assert_eq!(end.clean, Some(state(9)));
        // Appends continue with increasing LSNs after the rewrite.
        let l2 = wal.append_commit(&state(10)).unwrap();
        assert!(l2 > lsn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_lsns() {
        let dir = tmpdir("reopen");
        let last = {
            let wal = Wal::create(os(), &dir, &state(0), false).unwrap();
            wal.append_commit(&state(1)).unwrap()
        };
        let wal = Wal::open(os(), &dir, false).unwrap();
        assert_eq!(wal.next_lsn(), last + 1);
        assert_eq!(wal.last_checkpoint_lsn(), 1);
        let l = wal.append_commit(&state(2)).unwrap();
        assert_eq!(l, last + 1);
        let end = records(&std::fs::read(dir.join(WAL_FILE)).unwrap()).1;
        assert_eq!(end.records, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_commit_syncs_what_came_before_it() {
        let dir = tmpdir("group");
        let before = obs::global().snapshot();
        let wal = Wal::create(os(), &dir, &state(0), true).unwrap();
        let img = Box::new([1u8; PAGE_SIZE]);
        for i in 0..8 {
            wal.append_images(&[("t.tbl", i, &*img)]).unwrap();
            wal.append_commit(&state(i.into())).unwrap();
        }
        wal.sync().unwrap(); // nothing since the last commit: no sync
        let d = obs::global().snapshot().delta(&before);
        let fsyncs = d.counters.get("wal.fsyncs").copied().unwrap_or(0);
        // The checkpoint's and one a commit; other tests may add more.
        assert!(fsyncs >= 9, "{fsyncs} syncs");
        let end = records(&std::fs::read(dir.join(WAL_FILE)).unwrap()).1;
        assert_eq!(end.records, 17);
        std::fs::remove_dir_all(&dir).ok();
    }
}
