//! Aimed faults on a `Database`: a failing directory sync surfaces as an
//! error and loses nothing committed; so does a failing group-commit
//! write, whose images the next commit logs again, and a failing first
//! write-back of a fresh page, which the next write-back writes; a
//! flipped bit in the log is a shorter recovery or a typed error, never a
//! panic.

use pagestore::{Database, DurabilityOptions, StoreError, TableSpec, Vfs};
use sim::{CrashModel, Fault, Op, SimVfs};
use std::path::Path;
use std::sync::Arc;

const DIR: &str = "/sim/db";

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        wal: true,
        sync: true,
        group_commit: 1,
        checkpoint_wal_bytes: u64::MAX,
    }
}

/// A store of one table and its tree, `rows` rows committed in commits of
/// 100, nothing behind the last.
fn store(fs: &SimVfs, rows: u64) -> Arc<Database> {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let db = Database::create_in(vfs, Path::new(DIR), 64, opts()).unwrap();
    let t = db.create_table(TableSpec::new("ev", &["a", "b"])).unwrap();
    db.create_index("ev", "by_a", &["a"]).unwrap();
    for i in 0..rows {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        t.insert(&[(h % 977) as f64, i as f64]).unwrap();
        if i % 100 == 99 {
            db.commit(format!("{}", i + 1).as_bytes()).unwrap();
        }
    }
    db.commit(format!("{rows}").as_bytes()).unwrap();
    db
}

fn reopen(fs: &SimVfs) -> Result<Arc<Database>, StoreError> {
    Database::open_in(Arc::new(fs.clone()), Path::new(DIR), 64, opts())
}

/// The rows of `ev`, bit for bit, sorted.
fn rows(db: &Database) -> Vec<[u64; 2]> {
    let mut rows = Vec::new();
    let t = db.table("ev").unwrap();
    t.seq_scan(|_, row| {
        rows.push([row[0].to_bits(), row[1].to_bits()]);
        true
    })
    .unwrap();
    rows.sort_unstable();
    rows
}

type Call = fn(&Database) -> pagestore::Result<()>;

#[test]
fn a_failed_directory_sync_is_an_error_and_loses_nothing_committed() {
    let calls: [(&str, Call); 3] = [
        ("create_table", |db| {
            db.create_table(TableSpec::new("more", &["x"])).map(|_| ())
        }),
        ("seal_table", |db| db.seal_table("ev")),
        ("checkpoint", |db| db.checkpoint()),
    ];
    for (name, call) in calls {
        // Every directory sync the call makes, one at a time.
        let syncs = {
            let fs = SimVfs::new(1);
            let db = store(&fs, 700);
            let before = fs.count(Op::SyncDir, "");
            call(&db).unwrap();
            fs.count(Op::SyncDir, "") - before
        };
        assert!(syncs > 0, "{name} syncs no directory");
        for nth in 0..syncs {
            for model in [CrashModel::PowerLoss, CrashModel::ProcessKill] {
                let fs = SimVfs::new(nth);
                let db = store(&fs, 700);
                let committed = rows(&db);
                fs.fail_nth(Op::SyncDir, nth, Fault::Eio);
                match call(&db) {
                    Err(StoreError::Io(e)) if e.raw_os_error() == Some(5) => {}
                    other => panic!("{name}, sync {nth}: {other:?}"),
                }
                drop(db);
                fs.crash(nth, model);
                let db = reopen(&fs).unwrap_or_else(|e| panic!("{name}, sync {nth}: {e}"));
                assert!(rows(&db) == committed, "{name}, sync {nth}, {model:?}");
                // The table a failed create was making is gone or empty.
                if let Ok(more) = db.table("more") {
                    assert_eq!(more.num_rows(), 0, "{name}, sync {nth}");
                }
            }
        }
    }
}

#[test]
fn a_flipped_bit_in_the_log_recovers_a_prefix_or_fails_typed() {
    let (mut recovered, mut refused) = (0, 0);
    for seed in 0..24 {
        let fs = SimVfs::new(seed);
        let db = store(&fs, 400 + 20 * seed);
        let committed = rows(&db);
        drop(db);
        fs.crash(seed, CrashModel::ProcessKill);
        // Recovery's first read is the log's.
        fs.fail_nth(Op::ReadAt, 0, Fault::FlipBit);
        match reopen(&fs) {
            Ok(db) => {
                // Some commit's rows: every committed row up to a point —
                // none, and no table, when the flip lands ahead of the
                // first commit that names it.
                let kept = match db.table("ev") {
                    Ok(_) => rows(&db),
                    Err(_) => Vec::new(),
                };
                assert!(kept.iter().all(|r| committed.binary_search(r).is_ok()));
                assert_eq!(kept.len() % 100, 0, "seed {seed}: {} rows", kept.len());
                recovered += 1;
            }
            Err(StoreError::Corrupt(_)) => refused += 1,
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(recovered > 0, "{refused} refused, none recovered");
}

/// The image frames of the log at `fs`'s store behind LSN `after`, split
/// from the log's bytes as `wal.rs` lays them out (`[magic][len][crc]`,
/// then the payload) up to the first frame that is not whole.
fn images_after(fs: &SimVfs, after: u64) -> Vec<Vec<u8>> {
    use pagestore::wal::{crc32, FRAME_HDR as HDR, WAL_MAGIC};
    let word = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let log = fs.read(&Path::new(DIR).join(pagestore::WAL_FILE)).unwrap();
    let (mut frames, mut rest) = (Vec::new(), &log[..]);
    while rest.len() >= HDR && word(rest, 0) == WAL_MAGIC {
        let Some(frame) = rest.get(..HDR + word(rest, 4) as usize) else {
            break;
        };
        if crc32(&frame[HDR..]) != word(frame, 8) {
            break;
        }
        // A payload opens with its kind (1 is a page image), then its LSN.
        let lsn = u64::from_le_bytes(frame[HDR + 1..HDR + 9].try_into().unwrap());
        if frame[HDR] == 1 && lsn > after {
            frames.push(frame.to_vec());
        }
        rest = &rest[frame.len()..];
    }
    frames
}

#[test]
fn a_failed_group_commit_write_is_an_error_and_every_image_is_logged_again() {
    let opts = DurabilityOptions {
        group_commit: 4,
        ..opts()
    };
    let insert = |db: &Database, rows: std::ops::Range<u64>| {
        let t = db.table("ev").unwrap();
        for i in rows {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            t.insert(&[(h % 977) as f64, i as f64]).unwrap();
        }
    };
    // Twin stores: three groups of four commits (300 rows) go through,
    // then 900 rows, a few pages of them, and the four commits of a fourth
    // group, whose write of its images `fault`, if any, fails.
    let run = |fault: Option<Fault>| {
        let fs = SimVfs::new(9);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let db = Database::create_in(vfs, Path::new(DIR), 64, opts.clone()).unwrap();
        db.create_table(TableSpec::new("ev", &["a", "b"])).unwrap();
        db.create_index("ev", "by_a", &["a"]).unwrap();
        for n in (25..=300).step_by(25) {
            insert(&db, n - 25..n);
            db.commit(format!("{n}").as_bytes()).unwrap();
        }
        let good = db.wal().unwrap().next_lsn() - 1;
        let committed = rows(&db);
        insert(&db, 300..1200);
        for _ in 0..3 {
            db.commit(b"1200").unwrap();
        }
        let writes = || [fs.count(Op::WriteAt, ""), fs.count(Op::WriteAt, "wal.log")];
        let before = writes();
        if let Some(fault) = fault {
            fs.fail_nth(Op::WriteAt, 0, fault);
        }
        let done = db.commit(b"1200");
        let after = writes();
        let made = [after[0] - before[0], after[1] - before[1]];
        (fs, db, good, committed, done, made)
    };
    let (reference, db, good, _, done, _) = run(None);
    done.unwrap();
    let logged = images_after(&reference, good);
    assert!(logged.len() > 1, "the group logs {} images", logged.len());
    drop(db);
    for fault in [Fault::Eio, Fault::Short] {
        let (fs, db, lsn, committed, done, writes) = run(Some(fault));
        assert_eq!(lsn, good);
        match done {
            Err(StoreError::Io(_)) => {}
            other => panic!("{fault:?}: the commit returned {other:?}"),
        }
        // The failed write was the group's one write, of its images.
        assert_eq!(writes, [1, 1], "{fault:?}");
        // A crash now keeps the last successful commit.
        let recovers_to = |fs: &SimVfs, rows_then: &[[u64; 2]], at: &str| {
            for seed in 0..6 {
                let fork = fs.fork();
                fork.crash(seed, CrashModel::PowerLoss);
                let db = reopen(&fork).unwrap_or_else(|e| panic!("{fault:?}, {at}: {e}"));
                assert!(rows(&db) == rows_then, "{fault:?}, {at}, crash seed {seed}");
            }
        };
        recovers_to(&fs, &committed, "after the failed commit");
        // The next group commit logs every image of the failed group
        // again, byte for byte as the twin logged them.
        for _ in 0..4 {
            db.commit(b"1200").unwrap();
        }
        assert!(
            images_after(&fs, good) == logged,
            "{fault:?}: the next group commit logged {} of the {} images",
            images_after(&fs, good).len(),
            logged.len()
        );
        let committed = rows(&db);
        assert_eq!(committed.len(), 1200);
        recovers_to(&fs, &committed, "after the next commit");
    }
}

/// A store of `ev` whose heap ends in a page no write has reached: three
/// full pages (765 rows) behind a checkpoint, then ten rows on a fourth,
/// committed, which logs its image. Allocation writes nothing, so the
/// file ends before that page until a write-back puts it there.
fn with_a_fresh_page(fs: &SimVfs, pool: usize) -> Arc<Database> {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let db = Database::create_in(vfs, Path::new(DIR), pool, opts()).unwrap();
    let t = db.create_table(TableSpec::new("ev", &["a", "b"])).unwrap();
    db.create_index("ev", "by_a", &["a"]).unwrap();
    let row = |i: u64| {
        [
            ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 977) as f64,
            i as f64,
        ]
    };
    for i in 0..765 {
        t.insert(&row(i)).unwrap();
    }
    db.commit(b"765").and_then(|()| db.checkpoint()).unwrap();
    for i in 765..775 {
        t.insert(&row(i)).unwrap();
    }
    db.commit(b"775").unwrap();
    db
}

/// How long `ev`'s heap file is, and how long its page count says.
fn heap_lengths(fs: &SimVfs, db: &Database) -> (u64, u64) {
    let file = fs.open(&Path::new(DIR).join("ev.tbl")).unwrap();
    (file.len().unwrap(), db.table("ev").unwrap().heap_bytes())
}

#[test]
fn a_fresh_pages_failed_first_write_back_is_an_error_and_a_retry_writes_it() {
    let calls: [(&str, Call); 2] = [
        ("flush", |db| db.checkpoint()),
        ("eviction", |db| {
            // Eight pages besides the fresh one, read in turn through a
            // pool of eight: the clock evicts the fresh page.
            let t = db.table("ev")?;
            let (lo, hi) = ([f64::NEG_INFINITY], [f64::INFINITY]);
            for _ in 0..2 {
                t.scan_pages(..765, |_, _| true, |_| Ok(true))?;
                t.index_scan("by_a", &lo, &hi, |_, _| true)?;
            }
            Ok(())
        }),
    ];
    let page = pagestore::PAGE_SIZE as u64;
    // Read from a store of its own: a read through a pool of eight evicts.
    let committed = rows(&with_a_fresh_page(&SimVfs::new(46), 8));
    for (name, call) in calls {
        let fs = SimVfs::new(46);
        let db = with_a_fresh_page(&fs, 8);
        let (len, pages) = heap_lengths(&fs, &db);
        assert_eq!(len + page, pages, "{name}: the fourth page is in its file");
        let before = fs.count(Op::WriteAt, "");
        call(&db).unwrap();
        let writes = fs.count(Op::WriteAt, "") - before;
        assert_eq!(
            heap_lengths(&fs, &db),
            (pages, pages),
            "{name} wrote no fresh page"
        );
        // The write that puts the page in its file: the one whose short
        // write leaves the file ending inside a page.
        let nth = (0..writes).find(|&nth| {
            let fs = SimVfs::new(46);
            let db = with_a_fresh_page(&fs, 8);
            fs.fail_nth(Op::WriteAt, nth, Fault::Short);
            assert!(call(&db).is_err(), "{name}, write {nth}");
            heap_lengths(&fs, &db).0 % page != 0
        });
        let nth = nth.unwrap_or_else(|| panic!("{name}: no write of the fresh page"));
        for fault in [Fault::Enospc, Fault::Eio, Fault::Short] {
            let fs = SimVfs::new(46);
            let db = with_a_fresh_page(&fs, 8);
            fs.fail_nth(Op::WriteAt, nth, fault);
            match call(&db) {
                Err(StoreError::Io(_)) => {}
                other => panic!("{name}, {fault:?}: {other:?}"),
            }
            let (len, pages) = heap_lengths(&fs, &db);
            assert!(len < pages, "{name}, {fault:?}: the failed write landed");
            // The frame stayed dirty: the retry writes it.
            call(&db).unwrap_or_else(|e| panic!("{name}, {fault:?}, retried: {e}"));
            assert_eq!(heap_lengths(&fs, &db), (pages, pages), "{name}, {fault:?}");
            assert!(rows(&db) == committed, "{name}, {fault:?}");
            drop(db);
            fs.crash(46, CrashModel::PowerLoss);
            let db = reopen(&fs).unwrap_or_else(|e| panic!("{name}, {fault:?}: {e}"));
            assert!(rows(&db) == committed, "{name}, {fault:?}: reopened");
        }
    }
}

/// Schedules the seeds found bugs with, kept as they were found.
#[test]
fn the_schedules_that_found_bugs_pass() {
    use sim::{run, Schedule};
    let found = [
        // A raw page written behind the committed rows, its log image
        // lost with the power: the log read clean and the page scan
        // returned the page's rows, which no tree held.
        (5005, 0.002),
        (5044, 0.005),
        (5107, 0.005),
        (5299, 0.005),
    ];
    for (seed, fault_rate) in found {
        let schedule = Schedule {
            fault_rate,
            ..Schedule::new(seed, CrashModel::PowerLoss, 10)
        };
        run(&schedule).unwrap_or_else(|failure| panic!("{failure}"));
    }
}

/// Trees `open` finds torn are rebuilt in place, with the log attached
/// so that a tree page evicted on the way marks it; a crash in the middle
/// must not leave a half-built tree that the next open trusts.
#[test]
fn a_crash_inside_a_tree_rebuilt_at_open_recovers() {
    let opts = DurabilityOptions {
        sync: false,
        ..opts()
    };
    for halt in (0..200).step_by(5) {
        let fs = SimVfs::new(halt);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let db = Database::create_in(Arc::clone(&vfs), Path::new(DIR), 8, opts.clone()).unwrap();
        let t = db.create_table(TableSpec::new("ev", &["a", "b"])).unwrap();
        db.create_index("ev", "by_a", &["a"]).unwrap();
        db.create_index("ev", "by_b", &["b"]).unwrap();
        for i in 0..3000u64 {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            t.insert(&[(h % 977) as f64, i as f64]).unwrap();
        }
        db.commit(b"").and_then(|()| db.flush()).unwrap();
        drop((t, db));
        // Tear both trees: zeros where their magic goes.
        for name in ["ev.by_a.idx", "ev.by_b.idx"] {
            let tree = fs.open(&Path::new(DIR).join(name)).unwrap();
            tree.write_at(&[0; 8], 0).unwrap();
        }
        fs.halt_after(halt);
        let opened = Database::open_in(Arc::clone(&vfs), Path::new(DIR), 8, opts.clone());
        let halted = fs.halted();
        drop(opened);
        fs.crash(halt, CrashModel::ProcessKill);
        let db = Database::open_in(Arc::clone(&vfs), Path::new(DIR), 8, opts.clone()).unwrap();
        let t = db.table("ev").unwrap();
        for index in ["by_a", "by_b"] {
            let mut by_tree = 0;
            let (lo, hi) = ([f64::NEG_INFINITY], [f64::INFINITY]);
            t.index_scan(index, &lo, &hi, |_, _| {
                by_tree += 1;
                true
            })
            .unwrap();
            let at = format!("{index}, halted after {halt} changes ({halted})");
            assert_eq!(by_tree, 3000, "{at}");
        }
    }
}
