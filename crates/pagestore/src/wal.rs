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
//! Durability discipline: [`Wal::append_commit`] fsyncs the log every
//! `group_commit`-th commit (and [`Wal::sync`] forces it); checkpointing
//! rewrites the log atomically (temp file + fsync + rename + directory
//! fsync), which both truncates the log and bounds replay.

use crate::error::Result;
use crate::pagefile::PageId;
use crate::PAGE_SIZE;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Checksum of `data` (used for every WAL record payload).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

/// A decoded WAL record (crate-internal: recovery consumes these).
#[derive(Debug, Clone)]
pub(crate) enum Record {
    /// Full after-image of page `pid` of the file named `file`.
    PageImage {
        file: String,
        pid: PageId,
        image: Box<[u8; PAGE_SIZE]>,
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
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).ok()
    }
}

fn decode_state(c: &mut Cursor<'_>) -> Option<CommitState> {
    let blob_len = c.u32()? as usize;
    let blob = c.take(blob_len)?.to_vec();
    let ntables = c.u16()? as usize;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = c.str()?;
        let rows = c.u64()?;
        tables.push((name, rows));
    }
    Some(CommitState { tables, blob })
}

/// Decodes one payload; `None` means the record is torn/garbled and the
/// scan must stop there.
fn decode_payload(payload: &[u8]) -> Option<(u64, Record)> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let kind = c.u8()?;
    let lsn = c.u64()?;
    let rec = match kind {
        KIND_PAGE_IMAGE => {
            let file = c.str()?;
            let pid = c.u32()?;
            let used = c.u32()? as usize;
            if used > PAGE_SIZE {
                return None;
            }
            let img = c.take(used)?;
            let mut image = Box::new([0u8; PAGE_SIZE]);
            image[..used].copy_from_slice(img);
            Record::PageImage { file, pid, image }
        }
        KIND_COMMIT => Record::Commit(decode_state(&mut c)?),
        KIND_CHECKPOINT => Record::Checkpoint(decode_state(&mut c)?),
        _ => return None,
    };
    Some((lsn, rec))
}

/// Result of scanning a log file: the valid prefix of records and how
/// many trailing bytes were discarded as torn.
pub(crate) struct WalScan {
    pub records: Vec<(u64, Record)>,
    pub torn_bytes: u64,
    pub valid_bytes: u64,
}

/// Reads `path` and returns every record up to the first torn or
/// garbled one (bad magic, bad CRC, short frame). A missing file scans
/// as empty.
pub(crate) fn scan(path: &Path) -> Result<WalScan> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(hdr) = data.get(pos..pos + FRAME_HDR) {
        if u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) != WAL_MAGIC {
            break;
        }
        let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
        let crc = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
        let Some(payload) = data.get(pos + FRAME_HDR..pos + FRAME_HDR + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        records.push(rec);
        pos += FRAME_HDR + len;
    }
    Ok(WalScan {
        records,
        torn_bytes: (data.len() - pos) as u64,
        valid_bytes: pos as u64,
    })
}

// ------------------------------------------------------------ shipping

/// A contiguous run of raw WAL frames, as served to a tailing replica.
///
/// `frames` is a byte-exact slice of the log: each frame keeps its
/// `[magic][len][crc]` header, so the receiver can append it verbatim
/// to its own `wal.log` and replay it through the ordinary recovery
/// path. The LSN fields let the receiver advance its cursor without
/// decoding payloads.
#[derive(Debug, Clone, Default)]
pub struct WalSegment {
    /// Raw frame bytes (possibly empty), headers included.
    pub frames: Vec<u8>,
    /// LSN of the first shipped frame (0 when `frames` is empty).
    pub first_lsn: u64,
    /// LSN of the last shipped frame (0 when `frames` is empty).
    pub last_lsn: u64,
    /// LSN of the first valid record in the log file. The log always
    /// starts with a checkpoint, so history before this LSN has been
    /// truncated away.
    pub log_start_lsn: u64,
    /// LSN of the last valid record in the log file (the shipping
    /// horizon; `last_lsn < log_end_lsn` means more frames remain).
    pub log_end_lsn: u64,
    /// True when the requested cursor predates `log_start_lsn - 1`: a
    /// checkpoint truncated records the receiver never saw, so tailing
    /// cannot catch up and the receiver must re-bootstrap from the data
    /// files.
    pub restart: bool,
    /// Byte length of the log's valid prefix. A receiver that copied the
    /// whole file truncates its copy to this before appending shipped
    /// frames, so a torn tail never hides later appends from recovery.
    pub valid_bytes: u64,
}

/// Reads raw frames with LSN > `after_lsn` from the log at `path`,
/// stopping after roughly `max_bytes` of frames (at least one frame is
/// always shipped when any qualifies, so progress is guaranteed).
///
/// Concurrent appenders are safe: a mid-write frame fails its length or
/// CRC check and the scan simply stops there, exactly as recovery would.
/// A concurrent checkpoint rename yields either the old or the new log,
/// both of which are internally consistent.
pub fn read_after(path: &Path, after_lsn: u64, max_bytes: usize) -> Result<WalSegment> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut seg = WalSegment::default();
    let mut pos = 0usize;
    while let Some(hdr) = data.get(pos..pos + FRAME_HDR) {
        if u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) != WAL_MAGIC {
            break;
        }
        let len = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]) as usize;
        let crc = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
        let Some(payload) = data.get(pos + FRAME_HDR..pos + FRAME_HDR + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        // payload = [kind u8][lsn u64 le]...
        let Some(lsn_bytes) = payload.get(1..9) else {
            break;
        };
        let mut lsn8 = [0u8; 8];
        lsn8.copy_from_slice(lsn_bytes);
        let lsn = u64::from_le_bytes(lsn8);
        if seg.log_start_lsn == 0 {
            seg.log_start_lsn = lsn;
        }
        seg.log_end_lsn = lsn;
        if lsn > after_lsn && (seg.frames.is_empty() || seg.frames.len() < max_bytes) {
            if seg.frames.is_empty() {
                seg.first_lsn = lsn;
            }
            seg.last_lsn = lsn;
            seg.frames
                .extend_from_slice(&data[pos..pos + FRAME_HDR + len]);
        }
        pos += FRAME_HDR + len;
    }
    seg.valid_bytes = pos as u64;
    // The log opens with a checkpoint; a cursor older than the record
    // just before it points at truncated history. Saturating: the
    // horizon probe passes `after_lsn == u64::MAX`.
    seg.restart = seg.log_start_lsn > 0 && after_lsn.saturating_add(1) < seg.log_start_lsn;
    Ok(seg)
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
    fn new() -> Self {
        let r = obs::global();
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
    file: File,
    next_lsn: u64,
    bytes: u64,
    commits_since_sync: u64,
    scratch: Vec<u8>,
}

/// An open write-ahead log.
///
/// Thread-safe: a single mutex serializes appends, which sits *below*
/// the buffer pool's shard locks in the lock order (the pool appends
/// page images while holding a shard lock; the WAL never re-enters the
/// pool).
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    sync: bool,
    group_commit: u64,
    last_checkpoint_lsn: AtomicU64,
    metrics: WalMetrics,
}

impl Wal {
    /// Creates a fresh log in `dir` whose first record is a checkpoint of
    /// `state` (an empty log is never valid).
    pub fn create(dir: &Path, state: &CommitState, sync: bool, group_commit: u64) -> Result<Wal> {
        let wal = Wal {
            path: dir.join(WAL_FILE),
            inner: Mutex::new(WalInner {
                // Placeholder; checkpoint() replaces the file handle.
                file: OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(WAL_FILE))?,
                next_lsn: 1,
                bytes: 0,
                commits_since_sync: 0,
                scratch: Vec::new(),
            }),
            sync,
            group_commit: group_commit.max(1),
            last_checkpoint_lsn: AtomicU64::new(0),
            metrics: WalMetrics::new(),
        };
        wal.checkpoint(state)?;
        Ok(wal)
    }

    /// Opens an existing log for appending; `next_lsn` continues after
    /// the last valid record (callers run [`crate::recovery`] first).
    pub fn open(dir: &Path, sync: bool, group_commit: u64) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let scanned = scan(&path)?;
        let next_lsn = scanned.records.last().map(|(l, _)| l + 1).unwrap_or(1);
        let checkpoint_lsn = scanned
            .records
            .iter()
            .rev()
            .find(|(_, r)| matches!(r, Record::Checkpoint(_)))
            .map(|(l, _)| *l)
            .unwrap_or(0);
        // Chop any torn tail so appends continue from the valid prefix.
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        if scanned.torn_bytes > 0 {
            file.set_len(scanned.valid_bytes)?;
        }
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            path,
            inner: Mutex::new(WalInner {
                file,
                next_lsn,
                bytes: scanned.valid_bytes,
                commits_since_sync: 0,
                scratch: Vec::new(),
            }),
            sync,
            group_commit: group_commit.max(1),
            last_checkpoint_lsn: AtomicU64::new(checkpoint_lsn),
            metrics: WalMetrics::new(),
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

    /// Appends the after-image of one page, with trailing zeros elided
    /// (replay zero-fills). Not fsynced by itself: images only need to
    /// be durable before the data page overwrite, and the
    /// commit/checkpoint that follows syncs them.
    pub fn append_image(&self, file: &str, pid: PageId, image: &[u8; PAGE_SIZE]) -> Result<u64> {
        let used = image.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let mut payload = std::mem::take(&mut inner.scratch);
        payload.clear();
        payload.push(KIND_PAGE_IMAGE);
        payload.extend_from_slice(&lsn.to_le_bytes());
        put_str(&mut payload, file);
        payload.extend_from_slice(&pid.to_le_bytes());
        payload.extend_from_slice(&(used as u32).to_le_bytes());
        payload.extend_from_slice(&image[..used]);
        let res = self.write_frame(&mut inner, &payload);
        inner.scratch = payload;
        res?;
        Ok(lsn)
    }

    /// Appends a commit record and applies the group-commit fsync
    /// policy: the log is fsynced on every `group_commit`-th commit.
    pub fn append_commit(&self, state: &CommitState) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let mut payload = std::mem::take(&mut inner.scratch);
        payload.clear();
        payload.push(KIND_COMMIT);
        payload.extend_from_slice(&lsn.to_le_bytes());
        encode_state(&mut payload, state);
        let res = self.write_frame(&mut inner, &payload);
        inner.scratch = payload;
        res?;
        self.metrics.commits.inc();
        inner.commits_since_sync += 1;
        if self.sync && inner.commits_since_sync >= self.group_commit {
            inner.file.sync_data()?;
            self.metrics.fsyncs.inc();
            inner.commits_since_sync = 0;
        }
        Ok(lsn)
    }

    /// Forces the log to disk regardless of the group-commit cadence.
    pub fn sync(&self) -> Result<()> {
        if !self.sync {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        inner.file.sync_data()?;
        self.metrics.fsyncs.inc();
        inner.commits_since_sync = 0;
        Ok(())
    }

    /// Atomically truncates the log to a single checkpoint record of
    /// `state`. The caller must have made all earlier page images
    /// durable in the data files first (that is what makes the record a
    /// checkpoint). Temp file + fsync + rename + directory fsync, so a
    /// crash leaves either the old or the new log, never a mix.
    pub fn checkpoint(&self, state: &CommitState) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let mut payload = Vec::new();
        payload.push(KIND_CHECKPOINT);
        payload.extend_from_slice(&lsn.to_le_bytes());
        encode_state(&mut payload, state);
        let frame = frame_bytes(&payload);

        write_atomic(&self.path, &frame, self.sync)?;
        if self.sync {
            self.metrics.fsyncs.inc();
        }
        // Re-open the renamed file for appending.
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.next_lsn = lsn + 1;
        inner.bytes = frame.len() as u64;
        inner.commits_since_sync = 0;
        self.last_checkpoint_lsn.store(lsn, Ordering::Release);
        self.metrics.appends.inc();
        self.metrics.bytes.add(frame.len() as u64);
        self.metrics.checkpoints.inc();
        Ok(lsn)
    }

    /// Ships raw frames with LSN > `after_lsn`; see [`read_after`].
    pub fn read_after(&self, after_lsn: u64, max_bytes: usize) -> Result<WalSegment> {
        read_after(&self.path, after_lsn, max_bytes)
    }

    fn write_frame(&self, inner: &mut WalInner, payload: &[u8]) -> Result<()> {
        let frame = frame_bytes(payload);
        inner.file.write_all(&frame)?;
        inner.next_lsn += 1;
        inner.bytes += frame.len() as u64;
        self.metrics.appends.inc();
        self.metrics.bytes.add(frame.len() as u64);
        Ok(())
    }
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HDR + payload.len());
    frame.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Replaces the small file at `path` with `bytes` atomically: written to
/// `<path>.tmp` through one handle, fsynced through it when `sync`,
/// renamed over `path`, and — again when `sync` — the directory fsynced,
/// so a crash leaves the old file or the new one, never a mix or an
/// empty file. Without `sync` the rename is still atomic against readers
/// and process crashes, which is all derived data needs.
pub fn write_atomic(path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let (true, Some(dir)) = (sync, path.parent()) {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Fsyncs a directory so a just-created or just-renamed entry survives
/// power loss. A no-op on platforms where directories cannot be synced.
pub fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(d) => {
            d.sync_all().ok();
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        let img = Box::new([7u8; PAGE_SIZE]);
        wal.append_image("t.tbl", 3, &img).unwrap();
        // A mostly-empty page: its trailing zeros are elided on disk and
        // zero-filled back on replay.
        let mut sparse = Box::new([0u8; PAGE_SIZE]);
        sparse[..3].copy_from_slice(&[9, 8, 7]);
        let before = wal.size_bytes();
        wal.append_image("t.tbl", 4, &sparse).unwrap();
        assert!(
            wal.size_bytes() - before < 100,
            "sparse image must be stored compressed"
        );
        wal.append_commit(&state(5)).unwrap();
        let scanned = scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scanned.torn_bytes, 0);
        assert_eq!(scanned.records.len(), 4);
        match &scanned.records[2].1 {
            Record::PageImage { image, .. } => assert_eq!(**image, *sparse),
            r => panic!("unexpected record {r:?}"),
        }
        assert!(matches!(scanned.records[0].1, Record::Checkpoint(_)));
        match &scanned.records[1].1 {
            Record::PageImage { file, pid, image } => {
                assert_eq!(file, "t.tbl");
                assert_eq!(*pid, 3);
                assert_eq!(image[0], 7);
            }
            r => panic!("unexpected record {r:?}"),
        }
        match &scanned.records[3].1 {
            Record::Commit(s) => assert_eq!(*s, state(5)),
            r => panic!("unexpected record {r:?}"),
        }
        // LSNs are dense and increasing.
        let lsns: Vec<u64> = scanned.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = tmpdir("torn");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        wal.append_commit(&state(1)).unwrap();
        wal.append_commit(&state(2)).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Truncate mid-record: the last record is dropped, earlier ones
        // survive.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert!(scanned.torn_bytes > 0);
        // Garble a byte of the last surviving record: CRC catches it.
        let mut garbled = full.clone();
        let n = garbled.len();
        garbled[n - 3] ^= 0xFF;
        std::fs::write(&path, &garbled).unwrap();
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_log() {
        let dir = tmpdir("ckpt");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        let img = Box::new([1u8; PAGE_SIZE]);
        for pid in 0..20 {
            wal.append_image("t.tbl", pid, &img).unwrap();
        }
        wal.append_commit(&state(9)).unwrap();
        let before = wal.size_bytes();
        let lsn = wal.checkpoint(&state(9)).unwrap();
        assert!(wal.size_bytes() < before);
        assert_eq!(wal.last_checkpoint_lsn(), lsn);
        let scanned = scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scanned.records.len(), 1);
        match &scanned.records[0].1 {
            Record::Checkpoint(s) => assert_eq!(*s, state(9)),
            r => panic!("unexpected record {r:?}"),
        }
        // Appends continue with increasing LSNs after the rewrite.
        let l2 = wal.append_commit(&state(10)).unwrap();
        assert!(l2 > lsn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_lsns() {
        let dir = tmpdir("reopen");
        let last = {
            let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
            wal.append_commit(&state(1)).unwrap()
        };
        let wal = Wal::open(&dir, false, 8).unwrap();
        assert_eq!(wal.next_lsn(), last + 1);
        assert_eq!(wal.last_checkpoint_lsn(), 1);
        let l = wal.append_commit(&state(2)).unwrap();
        assert_eq!(l, last + 1);
        let scanned = scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scanned.records.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_after_ships_exact_frames() {
        let dir = tmpdir("ship");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        let img = Box::new([5u8; PAGE_SIZE]);
        wal.append_image("t.tbl", 0, &img).unwrap();
        wal.append_image("t.tbl", 1, &img).unwrap();
        wal.append_commit(&state(2)).unwrap();
        // Cursor 0 ships the whole log, byte-identical to the file.
        let seg = wal.read_after(0, usize::MAX).unwrap();
        assert!(!seg.restart);
        assert_eq!(seg.first_lsn, 1);
        assert_eq!(seg.last_lsn, 4);
        assert_eq!(seg.log_start_lsn, 1);
        assert_eq!(seg.log_end_lsn, 4);
        assert_eq!(seg.frames, std::fs::read(dir.join(WAL_FILE)).unwrap());
        // A mid-log cursor ships only the tail; appending the shipped
        // frames to a copy of the already-consumed prefix reproduces the
        // file, which is exactly what a tailing replica does.
        let seg2 = wal.read_after(2, usize::MAX).unwrap();
        assert_eq!(seg2.first_lsn, 3);
        assert_eq!(seg2.last_lsn, 4);
        let consumed = wal.read_after(0, usize::MAX).unwrap().frames
            [..seg.frames.len() - seg2.frames.len()]
            .to_vec();
        let mut rebuilt = consumed;
        rebuilt.extend_from_slice(&seg2.frames);
        assert_eq!(rebuilt, seg.frames);
        // A caught-up cursor ships nothing.
        let seg3 = wal.read_after(4, usize::MAX).unwrap();
        assert!(seg3.frames.is_empty());
        assert_eq!(seg3.first_lsn, 0);
        assert_eq!(seg3.log_end_lsn, 4);
        assert!(!seg3.restart);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_after_respects_max_bytes_with_progress() {
        let dir = tmpdir("ship-max");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        let img = Box::new([1u8; PAGE_SIZE]);
        for pid in 0..8 {
            wal.append_image("t.tbl", pid, &img).unwrap();
        }
        // A cap smaller than one frame still ships one frame (progress),
        // and a multi-frame cap stops once the budget is crossed.
        let one = wal.read_after(0, 1).unwrap();
        assert_eq!(one.first_lsn, one.last_lsn);
        assert_eq!(one.first_lsn, 1);
        let some = wal.read_after(0, PAGE_SIZE * 3).unwrap();
        assert!(some.last_lsn > some.first_lsn);
        assert!(some.last_lsn < some.log_end_lsn);
        // Tailing in bounded steps eventually reaches the horizon.
        let mut cursor = 0;
        let mut shipped = Vec::new();
        loop {
            let seg = wal.read_after(cursor, PAGE_SIZE * 2).unwrap();
            if seg.frames.is_empty() {
                break;
            }
            shipped.extend_from_slice(&seg.frames);
            cursor = seg.last_lsn;
        }
        assert_eq!(shipped, std::fs::read(dir.join(WAL_FILE)).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_after_flags_restart_past_checkpoint() {
        let dir = tmpdir("ship-restart");
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        let img = Box::new([1u8; PAGE_SIZE]);
        for pid in 0..4 {
            wal.append_image("t.tbl", pid, &img).unwrap();
        }
        wal.append_commit(&state(4)).unwrap();
        let ckpt = wal.checkpoint(&state(4)).unwrap();
        // Cursors at or after ckpt-1 can still tail: the next record they
        // need (the checkpoint itself, or later) is in the log.
        let ok = wal.read_after(ckpt - 1, usize::MAX).unwrap();
        assert!(!ok.restart);
        assert_eq!(ok.first_lsn, ckpt);
        // An older cursor points at truncated history: restart.
        let stale = wal.read_after(1, usize::MAX).unwrap();
        assert!(stale.restart);
        assert_eq!(stale.log_start_lsn, ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_after_missing_or_torn_log() {
        let dir = tmpdir("ship-torn");
        // Missing file: empty segment, no restart.
        let seg = read_after(&dir.join(WAL_FILE), 0, usize::MAX).unwrap();
        assert!(seg.frames.is_empty());
        assert_eq!(seg.log_end_lsn, 0);
        assert!(!seg.restart);
        // A torn tail is excluded from shipping, like recovery excludes
        // it from replay.
        let wal = Wal::create(&dir, &state(0), false, 8).unwrap();
        wal.append_commit(&state(1)).unwrap();
        wal.append_commit(&state(2)).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let seg = read_after(&path, 0, usize::MAX).unwrap();
        assert_eq!(seg.last_lsn, 2);
        assert_eq!(seg.log_end_lsn, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tmpdir("group");
        let before = obs::global().snapshot();
        let wal = Wal::create(&dir, &state(0), true, 4).unwrap();
        for i in 0..8 {
            wal.append_commit(&state(i)).unwrap();
        }
        let d = obs::global().snapshot().delta(&before);
        let fsyncs = d.counters.get("wal.fsyncs").copied().unwrap_or(0);
        // 1 for the initial checkpoint + 2 for 8 commits at cadence 4.
        // Other tests may add more; assert the cadence upper bound holds
        // for this wal by checking commits outnumber fsyncs.
        let commits = d.counters.get("wal.commits").copied().unwrap_or(0);
        assert!(commits >= 8);
        assert!(fsyncs >= 3, "group commit must still fsync periodically");
        std::fs::remove_dir_all(&dir).ok();
    }
}
