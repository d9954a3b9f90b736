//! Crash recovery: log replay and logical truncation to the last commit.
//!
//! `recover` runs at raw-file level, inside [`crate::Database::open`]
//! before any of its structure is built, and restores the directory to
//! the state of the last durable commit point:
//!
//! 1. **Walk** `wal.log` once, up to the first torn or garbled record
//!    (bad magic / bad CRC / short frame), replaying each page image into
//!    its file as it is decoded (after-images are idempotent, so images
//!    past the last commit are harmless) and keeping only the last commit
//!    state. The log must begin with a checkpoint, which is checked before
//!    anything is written; a log that is *only* that checkpoint means the
//!    last shutdown was clean and there is nothing to replay. The walk
//!    also finds where the log ends, and [`crate::Wal`] opens there.
//! 2. **Truncate logically** to the last commit's per-table row counts:
//!    chop each heap file to the committed page count, rewrite the
//!    per-page slot counts, zero the uncommitted tail slots, and restore
//!    the meta-page row count; a count of 0 cuts the heap to no page, as a
//!    heap with no row owns none. Only raw pages are touched: a seal begins
//!    and ends with a checkpoint, so a committed count falls on the end of
//!    the sealed rows' columnar pages or among the positional raw pages
//!    behind them. Tables created after the last commit are removed (file
//!    + catalog line) — they never reached a durable state.
//! 3. **Drop B+tree files.** Index pages are not WAL-logged; on an
//!    unclean shutdown every `*.idx` file is deleted and
//!    [`crate::Database::open`] rebuilds it from the (recovered) heap via
//!    the same bulk-load path that created it, which is deterministic.
//!
//! Anything inconsistent with the committed state — a heap shorter than
//! its committed rows (one of no page holding any), a bad heap magic — is
//! a typed [`StoreError::Corrupt`], never a panic.

use crate::colpage;
use crate::db::CATALOG;
use crate::error::Result;
use crate::heap::{raw_rows_per_page, MAGIC as HEAP_MAGIC, PAGE_HDR, RELEASE_RULE};
use crate::vfs::{write_atomic, Vfs, VfsFile};
use crate::wal::{self, CommitState, LogEnd, Record, WAL_FILE};
use crate::{StoreError, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::io::ErrorKind;
use std::path::Path;

/// What recovery did, surfaced through
/// [`crate::Database::recovery_report`] and `segdiff recover`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True when the log held nothing beyond its checkpoint: the last
    /// shutdown was clean and no replay happened.
    pub clean: bool,
    /// Valid WAL records scanned (checkpoint included).
    pub scanned_records: u64,
    /// Page images written back into data files.
    pub replayed_pages: u64,
    /// Bytes of torn/garbled log tail discarded.
    pub torn_bytes: u64,
    /// LSN of the last valid record.
    pub last_lsn: u64,
    /// LSN of the checkpoint the log begins with.
    pub checkpoint_lsn: u64,
    /// Uncommitted rows removed by logical truncation.
    pub truncated_rows: u64,
    /// `*.idx` files deleted (open() rebuilds them from the heaps).
    pub dropped_indexes: u64,
    /// Tables created after the last commit and therefore removed.
    pub pruned_tables: Vec<String>,
    /// The committed state recovery restored: per-table row counts and
    /// the application blob of the last commit.
    pub committed: CommitState,
}

/// Recovers the database directory `dir` of `vfs` to its last commit
/// point; `sync` is the fsync discipline of the catalog rewrite that drops
/// uncommitted tables. Call only when `dir/wal.log` exists; a clean log
/// is a cheap no-op. Returns what it did and where the log ends, which
/// the log opens at. Nothing recovery writes is synced here: the
/// checkpoint [`crate::Database::open`] takes after an unclean recovery
/// syncs the files it repaired and the directory entries it removed.
pub(crate) fn recover(vfs: &dyn Vfs, dir: &Path, sync: bool) -> Result<(RecoveryReport, LogEnd)> {
    let (mut committed, mut checkpoint_lsn, mut replayed_pages) = (None, 0, 0);
    let mut replayed: HashMap<String, Replayed> = HashMap::new();
    // One page buffer for every image: its used bytes, then zeros.
    let mut page = vec![0u8; PAGE_SIZE];
    let log = wal::read_log(vfs, &dir.join(WAL_FILE))?;
    let end = wal::walk(&log, |_, lsn, rec| {
        if committed.is_none() {
            // Checked before anything is written.
            let Record::Checkpoint(_) = rec else {
                return Err(not_a_checkpoint());
            };
            checkpoint_lsn = lsn;
        }
        match rec {
            Record::PageImage { file, pid, used } => {
                let into = match replayed.entry(file.to_owned()) {
                    Entry::Occupied(into) => into.into_mut(),
                    Entry::Vacant(new) => new.insert(Replayed::open(vfs, dir, file, log.len())?),
                };
                let pid = u64::from(pid);
                if pid >= into.bound {
                    return Err(StoreError::Corrupt(format!(
                        "{WAL_FILE}: an image of page {pid} of {file}, which with {} pages \
                         before replay can have no page past {}",
                        into.pages_before,
                        into.bound - 1
                    )));
                }
                if pid >= into.pages_before {
                    into.written_past.insert(pid);
                }
                page[..used.len()].copy_from_slice(used);
                page[used.len()..].fill(0);
                into.file.write_at(&page, pid * PAGE_SIZE as u64)?;
                replayed_pages += 1;
            }
            Record::Commit(state) | Record::Checkpoint(state) => committed = Some(state),
        }
        Ok(())
    })?;
    let committed = committed.ok_or_else(not_a_checkpoint)?;
    let mut report = RecoveryReport {
        clean: end.clean.is_some() && end.torn_bytes == 0,
        scanned_records: end.records,
        replayed_pages,
        torn_bytes: end.torn_bytes,
        last_lsn: end.last_lsn,
        checkpoint_lsn,
        committed,
        ..RecoveryReport::default()
    };
    if report.clean {
        return Ok((report, end));
    }
    obs::global().counter("recovery.runs").inc();
    obs::global()
        .counter("wal.replayed_records")
        .add(end.records);

    // Logical truncation of every committed heap, then removal of
    // anything that never reached a commit.
    for (name, nrows) in &report.committed.tables {
        let file = format!("{name}.tbl");
        let rows = truncate_heap(vfs, &dir.join(&file), *nrows, replayed.get(&file))?;
        report.truncated_rows += rows;
    }
    for fname in vfs.list(dir)? {
        if let Some(stem) = fname.strip_suffix(".tbl") {
            if !report.committed.tables.iter().any(|(name, _)| name == stem) {
                vfs.remove_file(&dir.join(&fname))?;
                report.pruned_tables.push(stem.to_string());
            }
        } else if fname.ends_with(".idx") {
            vfs.remove_file(&dir.join(&fname))?;
            report.dropped_indexes += 1;
        }
    }
    prune_catalog(vfs, dir, &report.pruned_tables, sync)?;
    Ok((report, end))
}

/// A file recovery replays images into: its handle, its length in pages
/// before replay, the first page no image of it can name, and the pages
/// replay wrote at or past that length. A gap between those reads as
/// zeros.
///
/// The bound: a checkpoint writes every allocated page back, so a logged
/// file's pages past its length at open are pages it took since, and a
/// page reaches the log before its file (every dirty page at a commit or
/// a flush, its own at an eviction). An image names a page below that
/// length plus the pages the log holds images of — give or take pages
/// still only in the pool when an eviction logged a later one. The bound
/// counts every image frame the log's bytes could hold at the shortest a
/// frame can be, a few dozen bytes where an image of a page of rows takes
/// up to 4 KiB, which leaves room for those. A page past it is a garbled
/// record: replaying it would make a sparse file as large as its page id
/// says.
struct Replayed {
    file: Box<dyn VfsFile>,
    pages_before: u64,
    bound: u64,
    written_past: BTreeSet<u64>,
}

impl Replayed {
    /// Opens `name` in `dir`, whose log is `log_len` bytes; one whose
    /// creation a crash lost is made again (a write past its end leaves
    /// zeros in the gap of pages that never reached it).
    fn open(vfs: &dyn Vfs, dir: &Path, name: &str, log_len: usize) -> Result<Replayed> {
        let path = dir.join(name);
        let file = match vfs.open(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => vfs.create(&path)?,
            open => open?,
        };
        let pages_before = file.len()?.div_ceil(PAGE_SIZE as u64);
        let most_images = (log_len / wal::image_frame_len(name, 0)) as u64;
        Ok(Replayed {
            file,
            pages_before,
            bound: pages_before + most_images,
            written_past: BTreeSet::new(),
        })
    }
}

fn not_a_checkpoint() -> StoreError {
    StoreError::Corrupt("wal.log does not begin with a valid checkpoint record".into())
}

/// Truncates a heap file to exactly `nrows` committed rows: page count,
/// per-page slot counts, tail-slot contents and the meta row count all
/// restored. A heap with no committed row owns no page, and is cut to
/// none; one of no page (or a meta page of anything but a heap's) with a
/// committed row lost it, and is corrupt, never an empty table. Returns
/// how many uncommitted rows were discarded. Of a file replay wrote past
/// its end, only the pages replay wrote are read there: a gap holds no
/// row, however far an image reached.
fn truncate_heap(vfs: &dyn Vfs, path: &Path, nrows: u64, replay: Option<&Replayed>) -> Result<u64> {
    let f = vfs.open(path).map_err(|e| match e.kind() {
        ErrorKind::NotFound => StoreError::Corrupt(format!("{}: no heap", path.display())),
        _ => e.into(),
    })?;
    let len = f.len()?;
    let mut page = vec![0u8; PAGE_SIZE];
    if len >= PAGE_SIZE as u64 {
        f.read_at(&mut page, 0)?;
    }
    let magic = u32::from_le_bytes([page[0], page[1], page[2], page[3]]);
    if magic != HEAP_MAGIC {
        // No page, a partial one, or the zeros a first row's meta page is
        // allocated as: whatever it held of rows, none was committed.
        if nrows == 0 {
            if len > 0 {
                f.set_len(0)?;
            }
            return Ok(0);
        }
        let what = if len < PAGE_SIZE as u64 {
            "no meta page"
        } else {
            "bad heap magic after replay"
        };
        return Err(StoreError::Corrupt(format!(
            "{}: {nrows} committed rows, {what}",
            path.display()
        )));
    }
    let ncols = u16::from_le_bytes([page[4], page[5]]) as usize;
    let rpp = raw_rows_per_page(ncols, path)? as u64;
    let old_pages = len / PAGE_SIZE as u64;

    // Walk the page headers: the columnar pages that lead the file hold
    // the sealed rows, whole; the rest count rows visible before
    // truncation (for the report).
    let (mut sealed, mut sealed_pages, mut observed) = (0u64, 0u64, 0u64);
    let (mut leading, mut next) = (true, 1);
    let (before, past) = replay.map_or((old_pages, None), |r| {
        (r.pages_before, Some(r.written_past.range(1..)))
    });
    for pid in (1..before.min(old_pages)).chain(past.into_iter().flatten().copied()) {
        let mut hdr = [0u8; 4];
        f.read_at(&mut hdr, pid * PAGE_SIZE as u64)?;
        let n = u16::from_le_bytes([hdr[0], hdr[1]]) as u64;
        // A gap's zero page would have ended the columnar run.
        leading &= pid == next && colpage::is_colpage(&hdr);
        next = pid + 1;
        observed += if leading { n } else { n.min(rpp) };
        if leading && sealed < nrows {
            if sealed + n > nrows {
                return Err(StoreError::Corrupt(format!(
                    "{}: {nrows} committed rows end inside columnar page {pid}: {RELEASE_RULE}",
                    path.display()
                )));
            }
            (sealed, sealed_pages) = (sealed + n, pid);
        }
    }
    // The meta page comes with the first row.
    let need_pages = u64::from(nrows > 0) + sealed_pages + (nrows - sealed).div_ceil(rpp);
    if old_pages < need_pages {
        return Err(StoreError::Corrupt(format!(
            "{}: {nrows} committed rows need {need_pages} pages, file has {old_pages}",
            path.display()
        )));
    }

    f.set_len(need_pages * PAGE_SIZE as u64)?;
    for pid in sealed_pages + 1..need_pages {
        let before = sealed + (pid - sealed_pages - 1) * rpp;
        let expect = (nrows - before).min(rpp) as u16;
        f.read_at(&mut page, pid * PAGE_SIZE as u64)?;
        page[0..2].copy_from_slice(&expect.to_le_bytes());
        // Zero the uncommitted tail slots so stale row bytes cannot leak.
        let used = PAGE_HDR + expect as usize * ncols * 8;
        page[used..].fill(0);
        f.write_at(&page, pid * PAGE_SIZE as u64)?;
    }

    // Restore the committed row count on the meta page.
    if need_pages > 0 {
        f.write_at(&nrows.to_le_bytes(), 8)?;
    }
    Ok(observed.saturating_sub(nrows))
}

/// Drops catalog lines referring to pruned (uncommitted) tables, leaving
/// the committed prefix intact, in one atomic rewrite.
fn prune_catalog(vfs: &dyn Vfs, dir: &Path, pruned: &[String], sync: bool) -> Result<()> {
    if pruned.is_empty() {
        return Ok(());
    }
    let text = match vfs.read(&dir.join(CATALOG)) {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
        read => String::from_utf8_lossy(&read?).into_owned(),
    };
    let kept: Vec<&str> = text
        .lines()
        .filter(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                ["table" | "index", table, ..] => !pruned.iter().any(|p| p == table),
                _ => true,
            },
        )
        .collect();
    write_atomic(vfs, &dir.join(CATALOG), kept.join("\n").as_bytes(), sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsVfs;
    use crate::wal::Wal;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pagestore-rec-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Builds a raw heap file: meta page + data pages with `counts`
    /// rows each, every cell set to the row's global ordinal.
    fn write_heap(path: &Path, ncols: usize, counts: &[u16]) {
        let mut data = vec![0u8; (1 + counts.len()) * PAGE_SIZE];
        data[0..4].copy_from_slice(&HEAP_MAGIC.to_le_bytes());
        data[4..6].copy_from_slice(&(ncols as u16).to_le_bytes());
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        data[8..16].copy_from_slice(&total.to_le_bytes());
        let mut ordinal = 0f64;
        for (i, &c) in counts.iter().enumerate() {
            let base = (i + 1) * PAGE_SIZE;
            data[base..base + 2].copy_from_slice(&c.to_le_bytes());
            for slot in 0..c as usize {
                let off = base + PAGE_HDR + slot * ncols * 8;
                for col in 0..ncols {
                    data[off + col * 8..off + col * 8 + 8].copy_from_slice(&ordinal.to_le_bytes());
                }
                ordinal += 1.0;
            }
        }
        std::fs::write(path, data).unwrap();
    }

    #[test]
    fn clean_log_is_a_noop() {
        let dir = tmpdir("clean");
        let state = CommitState {
            tables: vec![("t".into(), 7)],
            blob: b"meta".to_vec(),
        };
        Wal::create(Arc::new(OsVfs), &dir, &state, false).unwrap();
        let (report, _) = recover(&OsVfs, &dir, false).unwrap();
        assert!(report.clean);
        assert_eq!(report.committed, state);
        assert_eq!(report.replayed_pages, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncates_uncommitted_tail_rows() {
        let dir = tmpdir("trunc");
        // Heap with 2 cols -> 255 rows/page; 255 + 40 rows on disk, but
        // only 264 committed.
        let heap = dir.join("t.tbl");
        write_heap(&heap, 2, &[255, 40]);
        let state = CommitState {
            tables: vec![("t".into(), 264)],
            blob: Vec::new(),
        };
        let wal = Wal::create(Arc::new(OsVfs), &dir, &state, false).unwrap();
        // A post-checkpoint commit makes the log unclean with the same
        // counts (models a crash right after a commit).
        wal.append_commit(&state).unwrap();
        drop(wal);
        let (report, _) = recover(&OsVfs, &dir, false).unwrap();
        assert!(!report.clean);
        assert_eq!(report.truncated_rows, 31);
        let data = std::fs::read(&heap).unwrap();
        assert_eq!(data.len(), 3 * PAGE_SIZE);
        assert_eq!(
            u64::from_le_bytes(data[8..16].try_into().unwrap()),
            264,
            "meta row count restored"
        );
        let p2 = 2 * PAGE_SIZE;
        assert_eq!(u16::from_le_bytes(data[p2..p2 + 2].try_into().unwrap()), 9);
        // Slot 9 (first uncommitted) is zeroed.
        let off = p2 + PAGE_HDR + 9 * 16;
        assert!(data[off..off + 16].iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replays_images_and_drops_indexes() {
        let dir = tmpdir("replay");
        let heap = dir.join("t.tbl");
        write_heap(&heap, 1, &[3]);
        std::fs::write(dir.join("t.i.idx"), vec![0u8; PAGE_SIZE]).unwrap();
        let state = CommitState {
            tables: vec![("t".into(), 3)],
            blob: Vec::new(),
        };
        let wal = Wal::create(Arc::new(OsVfs), &dir, &state, false).unwrap();
        // Clobber the data page on "disk", but log the good image.
        let mut good = [0u8; PAGE_SIZE];
        good[0..2].copy_from_slice(&3u16.to_le_bytes());
        good[PAGE_HDR] = 0xAB;
        wal.append_images(&[("t.tbl", 1, &good)]).unwrap();
        wal.append_commit(&state).unwrap();
        drop(wal);
        let mut bad = std::fs::read(&heap).unwrap();
        for b in &mut bad[PAGE_SIZE..] {
            *b = 0xFF;
        }
        std::fs::write(&heap, &bad).unwrap();

        let (report, _) = recover(&OsVfs, &dir, false).unwrap();
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(report.dropped_indexes, 1);
        assert!(!dir.join("t.i.idx").exists());
        let data = std::fs::read(&heap).unwrap();
        assert_eq!(data[PAGE_SIZE + PAGE_HDR], 0xAB, "image replayed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prunes_uncommitted_tables_and_catalog() {
        let dir = tmpdir("prune");
        write_heap(&dir.join("old.tbl"), 1, &[2]);
        write_heap(&dir.join("new.tbl"), 1, &[5]);
        std::fs::write(
            dir.join("catalog.txt"),
            "table old c\nindex old i 0\ntable new c",
        )
        .unwrap();
        let state = CommitState {
            tables: vec![("old".into(), 2)],
            blob: Vec::new(),
        };
        let wal = Wal::create(Arc::new(OsVfs), &dir, &state, false).unwrap();
        wal.append_commit(&state).unwrap();
        drop(wal);
        let (report, _) = recover(&OsVfs, &dir, false).unwrap();
        assert_eq!(report.pruned_tables, vec!["new".to_string()]);
        assert!(!dir.join("new.tbl").exists());
        let cat = std::fs::read_to_string(dir.join("catalog.txt")).unwrap();
        assert_eq!(cat, "table old c\nindex old i 0");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_log_head_is_typed_error() {
        let dir = tmpdir("badhead");
        std::fs::write(dir.join(WAL_FILE), b"not a wal").unwrap();
        assert!(matches!(
            recover(&OsVfs, &dir, false),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_heap_is_typed_error() {
        let dir = tmpdir("short");
        // Commit claims 5000 rows but the heap has one data page.
        write_heap(&dir.join("t.tbl"), 1, &[10]);
        let state = CommitState {
            tables: vec![("t".into(), 5000)],
            blob: Vec::new(),
        };
        let wal = Wal::create(Arc::new(OsVfs), &dir, &state, false).unwrap();
        wal.append_commit(&state).unwrap();
        drop(wal);
        assert!(matches!(
            recover(&OsVfs, &dir, false),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
