//! Fault injection: the engine must fail *cleanly* — with a typed error,
//! never a panic or silent corruption — when on-disk state is damaged.

#![cfg(test)]

use crate::{BTree, BufferPool, Database, HeapFile, PageFile, StoreError, TableSpec, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-fault-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Overwrites the bytes at `at` of the file `path` with `bytes`.
fn patch(path: &Path, at: usize, bytes: &[u8]) {
    let mut file = std::fs::read(path).unwrap();
    file[at..at + bytes.len()].copy_from_slice(bytes);
    std::fs::write(path, file).unwrap();
}

#[test]
fn heap_cut_inside_its_rows_rejected() {
    // A partial last page is dropped as a torn allocation; a heap whose
    // meta count needs that page is then short, and says so.
    let dir = tmpdir("truncated");
    {
        let db = Database::create(&dir, 64).unwrap();
        let t = db.create_table(TableSpec::new("t", &["a"])).unwrap();
        for i in 0..600 {
            t.insert(&[i as f64]).unwrap();
        }
        db.flush().unwrap();
    }
    let p = dir.join("t.tbl");
    let len = std::fs::metadata(&p).unwrap().len();
    let file = std::fs::File::options().write(true).open(&p).unwrap();
    file.set_len(len - 100).unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_with_wrong_magic_rejected() {
    let dir = tmpdir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("h.tbl");
    std::fs::write(&p, vec![0xAB; PAGE_SIZE]).unwrap();
    let pool = Arc::new(BufferPool::new(16));
    let fid = pool.register_file(PageFile::open(&crate::OsVfs, &p).unwrap());
    assert!(matches!(
        HeapFile::open(pool, fid, 2),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn btree_with_wrong_magic_rejected() {
    let dir = tmpdir("btmagic");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("i.idx");
    std::fs::write(&p, vec![0x17; PAGE_SIZE * 2]).unwrap();
    let pool = Arc::new(BufferPool::new(16));
    let fid = pool.register_file(PageFile::open(&crate::OsVfs, &p).unwrap());
    assert!(matches!(
        BTree::open(pool, fid, 8),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbled_catalog_rejected() {
    let dir = tmpdir("catalog");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("catalog.txt"), "definitely not a catalog line\n").unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_column_mismatch_rejected() {
    let dir = tmpdir("mismatch");
    {
        let db = Database::create(&dir, 64).unwrap();
        let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
        // A heap with no row owns no page, and no count but the
        // catalogue's: give it one of its own.
        t.insert(&[1.0, 2.0]).unwrap();
        db.flush().unwrap();
    }
    // Tamper: claim three columns in the catalog while the heap has two.
    std::fs::write(dir.join("catalog.txt"), "table t a,b,c\n").unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_table_file_fails_cleanly() {
    let dir = tmpdir("missing-file");
    {
        let db = Database::create(&dir, 64).unwrap();
        db.create_table(TableSpec::new("t", &["a"])).unwrap();
        db.flush().unwrap();
    }
    std::fs::remove_file(dir.join("t.tbl")).unwrap();
    assert!(Database::open(&dir, 64).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_on_nondatabase_directory() {
    let dir = tmpdir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::NotFound(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn data_survives_crash_before_flush_of_clean_pages() {
    // Everything written through insert + flush must persist even when the
    // process "crashes" (we simply drop the structs without further work).
    let dir = tmpdir("crashy");
    {
        let db = Database::create(&dir, 16).unwrap(); // tiny pool: evictions write pages early
        let t = db.create_table(TableSpec::new("t", &["x"])).unwrap();
        for i in 0..5000 {
            t.insert(&[i as f64]).unwrap();
        }
        db.flush().unwrap();
        // No clean shutdown beyond flush.
    }
    let db = Database::open(&dir, 16).unwrap();
    let t = db.table("t").unwrap();
    assert_eq!(t.num_rows(), 5000);
    let mut sum = 0.0;
    t.seq_scan(|_, row| {
        sum += row[0];
        true
    })
    .unwrap();
    assert_eq!(sum, (4999.0 * 5000.0) / 2.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A table `t(a, b)` of 700 rows with the tree `by_ab` over both columns,
/// flushed and closed, and what the tree and the heap answer for
/// `3 <= a <= 5`.
fn indexed_table(tag: &str) -> (PathBuf, [Vec<u64>; 2]) {
    let dir = tmpdir(tag);
    let db = Database::create(&dir, 64).unwrap();
    let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
    db.create_index("t", "by_ab", &["a", "b"]).unwrap();
    for i in 0..700 {
        t.insert(&[(i % 10) as f64, -(i as f64)]).unwrap();
    }
    db.flush().unwrap();
    let answers = both_plans(&db);
    (dir, answers)
}

/// The ids of the rows with `3 <= a <= 5`, ascending, by the tree `by_ab`
/// (whose scan delivers the tree's run, then the write buffer's) and by
/// the heap.
fn both_plans(db: &Database) -> [Vec<u64>; 2] {
    let t = db.table("t").unwrap();
    let (mut indexed, mut scanned) = (Vec::new(), Vec::new());
    let (lo, hi) = ([3.0, f64::NEG_INFINITY], [5.0, f64::INFINITY]);
    t.index_scan("by_ab", &lo, &hi, |rid, cols| {
        assert!((3.0..=5.0).contains(&cols[0]));
        indexed.push(rid);
        true
    })
    .unwrap();
    t.seq_scan(|rid, row| {
        if (3.0..=5.0).contains(&row[0]) {
            scanned.push(rid);
        }
        true
    })
    .unwrap();
    assert_eq!(indexed.len(), 210);
    indexed.sort_unstable();
    [indexed, scanned]
}

#[test]
fn tree_of_another_key_width_is_rebuilt_on_open() {
    // The catalogue says `by_ab` is over two columns: 24-byte keys. A
    // tree file that says 16 (key width: a u16 at byte 4 of page 0)
    // cannot be that index, whatever its pages hold; open must not feed
    // it 24-byte keys.
    let (dir, before) = indexed_table("keywidth");
    let idx = dir.join("t.by_ab.idx");
    assert_eq!(std::fs::read(&idx).unwrap()[4..6], 24u16.to_le_bytes());
    patch(&idx, 4, &16u16.to_le_bytes());
    let db = Database::open(&dir, 64).unwrap();
    let tree = db.table("t").unwrap().index("by_ab").unwrap();
    assert_eq!((tree.len(), tree.buffered()), (700, 0), "bulk-rebuilt");
    assert_eq!(both_plans(&db), before);
    // Nor can a width no tree has be opened as one.
    drop((tree, db));
    patch(&idx, 4, &0u16.to_le_bytes());
    let db = Database::open(&dir, 64).unwrap();
    assert_eq!(both_plans(&db), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tree_with_the_old_magic_is_rebuilt_on_open() {
    // "SDBT" headed the files whose leaf entries were a key and a value;
    // a store written by that release keeps its catalogue and heaps, and
    // its trees are rebuilt, in today's layout, the first time it opens.
    let (dir, before) = indexed_table("oldmagic");
    let idx = dir.join("t.by_ab.idx");
    patch(&idx, 0, &0x5344_4254u32.to_le_bytes());
    let db = Database::open(&dir, 64).unwrap();
    let tree = db.table("t").unwrap().index("by_ab").unwrap();
    assert_eq!((tree.len(), tree.buffered()), (700, 0), "bulk-rebuilt");
    assert_eq!(both_plans(&db), before);
    drop((tree, db));
    // The rebuilt file is a tree of today's: the next open keeps it.
    let rebuilt = std::fs::read(&idx).unwrap();
    assert_ne!(rebuilt[..4], 0x5344_4254u32.to_le_bytes());
    let db = Database::open(&dir, 64).unwrap();
    assert_eq!(both_plans(&db), before);
    drop(db);
    assert!(
        std::fs::read(&idx).unwrap() == rebuilt,
        "opened, not rebuilt"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Copies the files of the store `from` (not a directory a test put
/// there) into the fresh directory `to`.
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

/// Row `i` of the table the seal tests load.
fn loaded_row(i: u64) -> [f64; 2] {
    [(i % 10) as f64, -(i as f64)]
}

/// A WAL-backed store in `tmpdir(tag)`: table `t(a, b)` of 2,000 rows
/// under the tree `by_ab`, committed and flushed, open.
fn loaded_store(tag: &str) -> (PathBuf, Arc<Database>) {
    let dir = tmpdir(tag);
    let db = Database::create_with(&dir, 64, crate::DurabilityOptions::durable()).unwrap();
    let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
    db.create_index("t", "by_ab", &["a", "b"]).unwrap();
    for i in 0..2000 {
        t.insert(&loaded_row(i)).unwrap();
    }
    db.commit(b"loaded").unwrap();
    db.flush().unwrap();
    (dir, db)
}

/// A [`loaded_store`] and, beside it, a copy of the store made before
/// `t` was sealed, which the store itself then was. Returns (sealed,
/// copy), both closed, and the rows in bit order.
fn sealed_table_and_its_past(tag: &str) -> (PathBuf, PathBuf, Vec<Vec<u64>>) {
    let (dir, db) = loaded_store(tag);
    let past = tmpdir(&format!("{tag}-past"));
    copy_store(&dir, &past);
    db.seal_table("t").unwrap();
    let t = db.table("t").unwrap();
    let [rows, found] = t.rows_by_scan_and_by_seal_and_tree("by_ab");
    assert!(rows.len() == 2000 && rows == found);
    assert_eq!(
        (t.sealed_rows(), t.index("by_ab").unwrap().len()),
        (2000, 0)
    );
    (dir, past, rows)
}

/// Opens `dir` and checks that `t` has the one layout and holds `rows` by
/// both paths, `sealed` of them sealed, the tree holding the rest.
fn assert_reopens_to(dir: &Path, rows: &[Vec<u64>], sealed: u64) -> Arc<Database> {
    let db = Database::open(dir, 64).unwrap();
    let t = db.table("t").unwrap();
    t.assert_one_layout();
    let tree = t.index("by_ab").unwrap();
    let behind = rows.len() as u64 - sealed;
    assert_eq!((t.sealed_rows(), tree.len()), (sealed, behind));
    let [scanned, found] = t.rows_by_scan_and_by_seal_and_tree("by_ab");
    assert!(scanned == rows && found == rows);
    db
}

#[test]
fn tree_left_from_before_the_seal_is_rebuilt_on_open() {
    // The seal deletes the tree files before it publishes the sealed
    // heap; one that survived (2,000 entries where no row lies behind the
    // sealed ones) is not that heap's index, and must not be read as one.
    let (dir, past, rows) = sealed_table_and_its_past("staletree");
    std::fs::copy(past.join("t.by_ab.idx"), dir.join("t.by_ab.idx")).unwrap();
    assert_reopens_to(&dir, &rows, 2000);
    // The rebuilt tree is the sealed heap's own: the next open keeps it.
    let rebuilt = std::fs::read(dir.join("t.by_ab.idx")).unwrap();
    assert_eq!(rebuilt.len(), 0, "an empty tree owns no page");
    assert_reopens_to(&dir, &rows, 2000);
    assert!(std::fs::read(dir.join("t.by_ab.idx")).unwrap() == rebuilt);
    for d in [dir, past] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// Cuts the file `path` to `len` bytes.
fn cut_file(path: &Path, len: u64) {
    let file = std::fs::File::options().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

#[test]
fn a_heap_of_no_page_with_committed_rows_is_corrupt_not_an_empty_table() {
    // A heap with no row owns no page, so a file of no page reads as one:
    // unless the log's last commit counts rows of it. Then the file was
    // lost, and an empty table would be 2,000 events silently missing.
    let (dir, db) = loaded_store("lostheap");
    drop(db);
    unclean_log(&dir, 2000);
    let heap = dir.join("t.tbl");
    for len in [0, 13] {
        cut_file(&heap, len);
        let recovered = crate::recovery::recover(&crate::OsVfs, &dir, false);
        assert!(matches!(recovered, Err(StoreError::Corrupt(m)) if m.contains("no meta page")));
        match Database::open(&dir, 64) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("2000 committed rows"), "{m}"),
            other => panic!("{len} bytes: {:?}", other.map(|_| "opened")),
        }
    }
    // Nor is a meta page of zeros, the page a first row is allocated.
    std::fs::write(&heap, vec![0u8; PAGE_SIZE]).unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::Corrupt(m)) if m.contains("bad heap magic")
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_heap_recovery_cuts_to_no_row_owns_no_page_and_takes_appends() {
    // A commit at no row of `t`, then rows no commit covers, some of their
    // pages written back by a small pool: recovery cuts the heap to the
    // committed 0 rows — no page — and it grows again as a new one does.
    let dir = tmpdir("tozero");
    let opts = crate::DurabilityOptions {
        group_commit: 1,
        ..crate::DurabilityOptions::durable()
    };
    {
        let db = Database::create_with(&dir, 16, opts).unwrap();
        let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
        db.create_index("t", "by_ab", &["a", "b"]).unwrap();
        db.commit(b"no row").unwrap();
        for i in 0..3000 {
            t.insert(&loaded_row(i)).unwrap();
        }
        // Crash: dropped without a commit.
    }
    assert!(std::fs::metadata(dir.join("t.tbl")).unwrap().len() > 0);
    let db = Database::open(&dir, 16).unwrap();
    let report = db.recovery_report().unwrap();
    assert!(!report.clean, "{report:?}");
    let len = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
    assert_eq!((len("t.tbl"), len("t.by_ab.idx")), (0, 0));
    let t = db.table("t").unwrap();
    assert_eq!(t.num_rows(), 0);
    for i in 0..700 {
        t.insert(&loaded_row(i)).unwrap();
    }
    db.commit(b"appended").unwrap();
    db.flush().unwrap();
    drop((t, db));
    let mut rows: Vec<Vec<u64>> = (0..700)
        .map(|i| loaded_row(i).map(f64::to_bits).to_vec())
        .collect();
    rows.sort_unstable();
    assert_reopens_to(&dir, &rows, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_tree_of_no_page_under_unsealed_rows_reopens_to_every_row() {
    // A tree file cut to nothing is an empty tree, not a torn one: open
    // rebuilds nothing and checkpoints nothing, and its write buffer takes
    // every row behind the sealed ones, so a full index scan finds what a
    // sequential scan finds.
    let (dir, db) = loaded_store("treetozero");
    let [rows, _] = db
        .table("t")
        .unwrap()
        .rows_by_scan_and_by_seal_and_tree("by_ab");
    drop(db);
    let (idx, log) = (dir.join("t.by_ab.idx"), dir.join(crate::WAL_FILE));
    cut_file(&idx, 0);
    let log_before = std::fs::read(&log).unwrap();
    let db = assert_reopens_to(&dir, &rows, 0);
    let tree = db.table("t").unwrap().index("by_ab").unwrap();
    assert_eq!((tree.len(), tree.buffered()), (2000, 2000));
    assert!(db.recovery_report().unwrap().clean);
    drop((tree, db));
    assert_eq!(std::fs::metadata(&idx).unwrap().len(), 0, "rebuilt at open");
    assert!(
        std::fs::read(&log).unwrap() == log_before,
        "a checkpoint at open"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The store an earlier release leaves after compacting 2,000 rows and
/// ingesting `tail` more: their columnar pages behind the compacted ones,
/// the last of them partly filled, `sealed` rows counted sealed on the meta
/// page (0 before that count existed) and a tree of `entries` entries.
/// Returns it closed, with the rows in bit order.
fn earlier_release_store(
    tag: &str,
    tail: u64,
    sealed: u64,
    entries: u64,
) -> (PathBuf, Vec<Vec<u64>>) {
    let (dir, past, mut rows) = sealed_table_and_its_past(tag);
    let tail_rows: Vec<[f64; 2]> = (2000..2000 + tail).map(loaded_row).collect();
    let tail_refs: Vec<&[f64]> = tail_rows.iter().map(|r| &r[..]).collect();
    let tail_file = dir.join("tail.tmp");
    HeapFile::write(&crate::OsVfs, &tail_file, 2, &tail_refs, true, false).unwrap();
    let mut heap = std::fs::read(dir.join("t.tbl")).unwrap();
    assert_eq!(heap[16..18], 1u16.to_le_bytes());
    // Its data pages (a tail of no row is a file of no page).
    let tail_file_bytes = std::fs::read(&tail_file).unwrap();
    heap.extend_from_slice(tail_file_bytes.get(PAGE_SIZE..).unwrap_or_default());
    heap[8..16].copy_from_slice(&(2000 + tail).to_le_bytes());
    heap[24..32].copy_from_slice(&sealed.to_le_bytes());
    std::fs::write(dir.join("t.tbl"), heap).unwrap();
    std::fs::remove_file(&tail_file).unwrap();
    // (Entry count of a tree: a u64 at byte 16 of page 0.)
    std::fs::copy(past.join("t.by_ab.idx"), dir.join("t.by_ab.idx")).unwrap();
    patch(&dir.join("t.by_ab.idx"), 16, &entries.to_le_bytes());
    std::fs::remove_dir_all(&past).ok();
    rows.extend(tail_rows.iter().map(|r| r.map(f64::to_bits).to_vec()));
    rows.sort_unstable();
    (dir, rows)
}

/// Replaces the log of `dir` by one that was not shut down cleanly and
/// whose last commit counts `committed` rows of `t`.
fn unclean_log(dir: &Path, committed: u64) {
    std::fs::remove_file(dir.join(crate::WAL_FILE)).unwrap();
    let state = crate::CommitState {
        tables: vec![("t".into(), committed)],
        blob: Vec::new(),
    };
    let wal = crate::Wal::create(std::sync::Arc::new(crate::OsVfs), dir, &state, false).unwrap();
    wal.append_commit(&state).unwrap();
}

#[test]
fn heaps_of_earlier_releases_are_sealed_where_they_stand() {
    // A heap compacted before the sealed count existed (zeros there,
    // beside a tree over every row), and one compacted since and ingested
    // into (a columnar tail behind the count, under a tree of its rows).
    // Every row on a columnar page is sealed where it stands: both trees
    // claim rows that are not behind those, and are rebuilt, empty.
    for (tag, tail, sealed, entries) in [("presealed", 0, 0, 2000), ("coltail", 700, 2000, 700)] {
        let (dir, mut rows) = earlier_release_store(tag, tail, sealed, entries);
        let (heap, stored) = (dir.join("t.tbl"), 2000 + tail);
        let before = std::fs::read(&heap).unwrap();
        let db = assert_reopens_to(&dir, &rows, stored);
        let tree_bytes = std::fs::metadata(dir.join("t.by_ab.idx")).unwrap().len();
        assert_eq!(tree_bytes, 0, "{tag}: an empty tree owns no page");
        // The next row opens a raw page behind the last columnar one,
        // partly filled or not, and the store reopens with it.
        let t = db.table("t").unwrap();
        let rid = t.insert(&[3.0, 0.5]).unwrap();
        assert_eq!(rid, ((before.len() / PAGE_SIZE) as u64) << 16, "{tag}");
        db.commit(b"appended").unwrap();
        db.flush().unwrap();
        drop((t, db));
        let after = std::fs::read(&heap).unwrap();
        assert!(
            after[PAGE_SIZE..before.len()] == before[PAGE_SIZE..],
            "{tag}"
        );
        assert_eq!(after[24..32], stored.to_le_bytes(), "{tag}: count recorded");
        rows.push(vec![3.0f64.to_bits(), 0.5f64.to_bits()]);
        rows.sort_unstable();
        assert_reopens_to(&dir, &rows, stored);
        // A log that was cut where the columnar pages end recovers there.
        unclean_log(&dir, stored);
        rows.retain(|r| r[1] != 0.5f64.to_bits());
        let db = assert_reopens_to(&dir, &rows, stored);
        assert!(!db.recovery_report().unwrap().clean, "{tag}");
        drop(db);
        // A count no page boundary matches is a damaged heap, not a guess.
        patch(&heap, 24, &(stored - 1).to_le_bytes());
        assert!(matches!(
            Database::open(&dir, 64),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn committed_count_inside_a_columnar_page_is_corrupt_not_a_panic() {
    // Only an earlier release, killed while it ingested behind a
    // compaction, leaves a log whose last commit ends inside a columnar
    // page; recovery re-encoded that page then, and says so now.
    let (dir, _rows) = earlier_release_store("colcut", 700, 2000, 700);
    unclean_log(&dir, 2699);
    match Database::open(&dir, 64) {
        Err(StoreError::Corrupt(m)) => {
            assert!(
                m.contains("2699 committed rows end inside columnar page"),
                "{m}"
            );
            assert!(m.contains("the release that wrote it"), "{m}");
        }
        other => panic!("{:?}", other.map(|_| "opened")),
    }
    // So does a heap, opened without a log, whose count does.
    std::fs::remove_file(dir.join(crate::WAL_FILE)).unwrap();
    patch(&dir.join("t.tbl"), 8, &2699u64.to_le_bytes());
    match Database::open(&dir, 64) {
        Err(StoreError::Corrupt(m)) => assert!(m.contains("the release that wrote it"), "{m}"),
        other => panic!("{:?}", other.map(|_| "opened")),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Opens a one-table store whose heap meta page claims `ncols` columns
/// (a u16 at byte 4 of page 0): rows per page is a division by it.
fn assert_column_count_rejected(tag: &str, ncols: u16) {
    let dir = tmpdir(tag);
    {
        let db = Database::create(&dir, 64).unwrap();
        let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
        t.insert(&[1.0, 2.0]).unwrap();
        db.flush().unwrap();
    }
    patch(&dir.join("t.tbl"), 4, &ncols.to_le_bytes());
    match Database::open(&dir, 64) {
        Err(StoreError::Corrupt(m)) => {
            assert!(
                m.contains(&format!("impossible column count {ncols}")),
                "{m}"
            )
        }
        other => panic!("{:?}", other.map(|_| "opened")),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_with_no_columns_rejected() {
    assert_column_count_rejected("nocols", 0);
}

#[test]
fn heap_with_more_columns_than_a_page_holds_rejected() {
    assert_column_count_rejected("manycols", 600);
}

#[test]
fn catalog_temp_file_is_whole_before_the_rename_and_the_old_catalog_survives_its_failure() {
    let dir = tmpdir("catalogrename");
    let db = Database::create(&dir, 64).unwrap();
    db.create_table(TableSpec::new("a", &["x"])).unwrap();
    // A rename onto a directory that is not empty fails: put the catalogue
    // so far inside one of its name.
    let catalog = dir.join("catalog.txt");
    let old = std::fs::read_to_string(&catalog).unwrap();
    assert_eq!(old, "table a x");
    std::fs::remove_file(&catalog).unwrap();
    std::fs::create_dir(&catalog).unwrap();
    std::fs::write(catalog.join("kept"), &old).unwrap();
    assert!(matches!(
        db.create_table(TableSpec::new("b", &["y", "z"])),
        Err(StoreError::Io(_))
    ));
    assert_eq!(
        std::fs::read_to_string(dir.join("catalog.txt.tmp")).unwrap(),
        "table a x\ntable b y,z",
        "the temp file was renamed before it was written out"
    );
    assert_eq!(std::fs::read_to_string(catalog.join("kept")).unwrap(), old);
    std::fs::remove_dir_all(&dir).ok();
}
