//! Opening a store reads its log once, clean or not: recovery's walk of
//! `wal.log` also finds where the log opens for appending. A log just
//! created is never read back.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::{Database, DurabilityOptions, OsVfs, TableSpec, Vfs, VfsFile, WAL_FILE};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The operating system's files, counting the reads of every `wal.log`:
/// whole-file reads and positional reads through its handles.
#[derive(Debug, Default)]
struct CountingVfs {
    log_reads: Arc<AtomicU64>,
}

#[derive(Debug)]
struct CountedFile {
    inner: Box<dyn VfsFile>,
    reads: Arc<AtomicU64>,
}

fn is_log(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == WAL_FILE)
}

impl CountingVfs {
    /// Log reads since the last call.
    fn take(&self) -> u64 {
        self.log_reads.swap(0, Ordering::SeqCst)
    }

    fn counted(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        match is_log(path) {
            true => Box::new(CountedFile {
                inner: file,
                reads: Arc::clone(&self.log_reads),
            }),
            false => file,
        }
    }
}

impl Vfs for CountingVfs {
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, OsVfs.open(path)?))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, OsVfs.create(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        OsVfs.remove_file(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        OsVfs.list(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        OsVfs.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        OsVfs.sync_dir(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if is_log(path) {
            self.log_reads.fetch_add(1, Ordering::SeqCst);
        }
        OsVfs.read(path)
    }
}

impl VfsFile for CountedFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.inner.write_at(buf, offset)
    }
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-logreads-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        wal: true,
        sync: false,
        group_commit: 1,
        ..DurabilityOptions::default()
    }
}

#[test]
fn every_open_reads_the_log_once() {
    let vfs = Arc::new(CountingVfs::default());
    let dir = tmpdir("once");
    let open = || Database::open_in(vfs.clone(), &dir, 16, opts()).unwrap();

    // A new store's log is written, never read.
    let db = Database::create_in(vfs.clone(), &dir, 16, opts()).unwrap();
    assert_eq!(vfs.take(), 0, "create");
    let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
    for i in 0..3000 {
        t.insert(&[i as f64, 0.5]).unwrap();
    }
    db.commit(b"one").unwrap();
    db.checkpoint().unwrap();
    drop((t, db));
    assert_eq!(vfs.take(), 0, "checkpoint");

    // Clean: the log is its checkpoint.
    let db = open();
    assert_eq!(vfs.take(), 1, "clean open");
    assert!(db.recovery_report().unwrap().clean);

    // Unclean: images and commits past the checkpoint, none flushed.
    let t = db.table("t").unwrap();
    for i in 0..3000 {
        t.insert(&[i as f64, 1.5]).unwrap();
    }
    db.commit(b"two").unwrap();
    drop((t, db));
    let db = open();
    assert_eq!(vfs.take(), 1, "unclean open");
    let report = db.recovery_report().unwrap().clone();
    assert!(!report.clean && report.replayed_pages > 0, "{report:?}");
    assert_eq!(db.table("t").unwrap().num_rows(), 6000);
    drop(db);

    // Unclean by a torn tail alone: the log cut inside a frame.
    let log = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&bytes.clone()[..20]);
    std::fs::write(&log, &bytes).unwrap();
    let db = open();
    assert_eq!(vfs.take(), 1, "open of a torn log");
    let report = db.recovery_report().unwrap();
    assert!(!report.clean && report.torn_bytes == 20, "{report:?}");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
