//! Fault injection: the engine must fail *cleanly* — with a typed error,
//! never a panic or silent corruption — when on-disk state is damaged.

#![cfg(test)]

use crate::{BTree, BufferPool, Database, HeapFile, PageFile, StoreError, TableSpec, PAGE_SIZE};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-fault-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn truncated_page_file_rejected() {
    let dir = tmpdir("truncated");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("t.tbl");
    std::fs::write(&p, vec![0u8; PAGE_SIZE + 100]).unwrap();
    assert!(matches!(PageFile::open(&p), Err(StoreError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_with_wrong_magic_rejected() {
    let dir = tmpdir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join("h.tbl");
    std::fs::write(&p, vec![0xAB; PAGE_SIZE]).unwrap();
    let pool = Arc::new(BufferPool::new(16));
    let fid = pool.register_file(PageFile::open(&p).unwrap());
    assert!(matches!(
        HeapFile::open(pool, fid),
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
    let fid = pool.register_file(PageFile::open(&p).unwrap());
    assert!(matches!(
        BTree::open(pool, fid),
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
        db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
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
    let mut bytes = std::fs::read(&idx).unwrap();
    assert_eq!(bytes[4..6], 24u16.to_le_bytes());
    bytes[4..6].copy_from_slice(&16u16.to_le_bytes());
    std::fs::write(&idx, bytes).unwrap();
    let db = Database::open(&dir, 64).unwrap();
    let tree = db.table("t").unwrap().index("by_ab").unwrap();
    assert_eq!((tree.len(), tree.buffered()), (700, 0), "bulk-rebuilt");
    assert_eq!(both_plans(&db), before);
    // Nor can a width no tree has be opened as one.
    drop((tree, db));
    let mut bytes = std::fs::read(&idx).unwrap();
    bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
    std::fs::write(&idx, bytes).unwrap();
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
    let mut bytes = std::fs::read(&idx).unwrap();
    bytes[..4].copy_from_slice(&0x5344_4254u32.to_le_bytes());
    std::fs::write(&idx, bytes).unwrap();
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

/// A WAL-backed store in `tmpdir(tag)`: table `t(a, b)` of 2,000 rows
/// under the tree `by_ab`, flushed; and, beside it, a copy of the store
/// made before `t` was rewritten into columnar pages clustered on
/// `(a, b)`, which the store itself then was. Returns (rewritten, copy),
/// both closed, and the rows in bit order.
fn sealed_table_and_its_past(tag: &str) -> (PathBuf, PathBuf, Vec<Vec<u64>>) {
    let (dir, past) = (tmpdir(tag), tmpdir(&format!("{tag}-past")));
    let db = Database::create_with(&dir, 64, crate::DurabilityOptions::durable()).unwrap();
    let t = db.create_table(TableSpec::new("t", &["a", "b"])).unwrap();
    db.create_index("t", "by_ab", &["a", "b"]).unwrap();
    for i in 0..2000 {
        t.insert(&[(i % 10) as f64, -(i as f64)]).unwrap();
    }
    db.commit(b"loaded").unwrap();
    db.flush().unwrap();
    std::fs::create_dir_all(&past).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), past.join(entry.file_name())).unwrap();
    }
    db.rewrite_table_format("t", crate::PageFormat::Columnar, &[0, 1])
        .unwrap();
    let [rows, found] = t.rows_by_scan_and_by_seal_and_tree("by_ab");
    assert!(rows.len() == 2000 && rows == found);
    assert_eq!(
        (t.sealed_rows(), t.index("by_ab").unwrap().len()),
        (2000, 0)
    );
    (dir, past, rows)
}

/// Opens `dir` and checks that `t` holds `rows` by both paths, `sealed`
/// of them sealed, the tree holding the rest.
fn assert_reopens_to(dir: &std::path::Path, rows: &[Vec<u64>], sealed: u64) {
    let db = Database::open(dir, 64).unwrap();
    let t = db.table("t").unwrap();
    let tree = t.index("by_ab").unwrap();
    assert_eq!((t.sealed_rows(), tree.len()), (sealed, 2000 - sealed));
    let [scanned, found] = t.rows_by_scan_and_by_seal_and_tree("by_ab");
    assert!(scanned == rows && found == rows);
}

#[test]
fn tree_left_from_before_the_seal_is_rebuilt_on_open() {
    // The rewrite deletes the tree files before it publishes the sealed
    // heap; one that survived (2,000 entries where no row lies behind the
    // sealed ones) is not that heap's index, and must not be read as one.
    let (dir, past, rows) = sealed_table_and_its_past("staletree");
    std::fs::copy(past.join("t.by_ab.idx"), dir.join("t.by_ab.idx")).unwrap();
    assert_reopens_to(&dir, &rows, 2000);
    // The rebuilt tree is the sealed heap's own: the next open keeps it.
    let rebuilt = std::fs::read(dir.join("t.by_ab.idx")).unwrap();
    assert_eq!(rebuilt.len(), 2 * PAGE_SIZE, "an empty tree");
    assert_reopens_to(&dir, &rows, 2000);
    assert!(std::fs::read(dir.join("t.by_ab.idx")).unwrap() == rebuilt);
    for d in [dir, past] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn crash_inside_a_rewrite_reopens_to_the_same_rows_on_both_sides_of_the_rename() {
    let (dir, past, rows) = sealed_table_and_its_past("midrewrite");
    // Before the rename: the old heap and log, the trees already deleted,
    // the rewritten rows in a temp file nobody reads. Whole trees again.
    std::fs::copy(dir.join("t.tbl"), past.join("t.tbl.tmp")).unwrap();
    std::fs::remove_file(past.join("t.by_ab.idx")).unwrap();
    assert_reopens_to(&past, &rows, 0);
    // After the rename, before the final flush: the sealed heap under the
    // old store's log (same row counts), the old-format zone sidecar, and
    // no tree file. The heap says what is sealed; the trees come out empty.
    std::fs::copy(dir.join("t.tbl"), past.join("t.tbl")).unwrap();
    std::fs::remove_file(past.join("t.by_ab.idx")).unwrap();
    assert_reopens_to(&past, &rows, 2000);
    for d in [dir, past] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn rewritten_heap_from_before_the_sealed_count_opens_with_whole_trees() {
    // Heaps rewritten by earlier releases hold zeros where the sealed row
    // count now lives, beside trees over every row: nothing is sealed, and
    // a tree to rebuild is rebuilt whole.
    let (dir, past, rows) = sealed_table_and_its_past("presealed");
    let heap = dir.join("t.tbl");
    let mut bytes = std::fs::read(&heap).unwrap();
    assert_eq!(bytes[24..32], 2000u64.to_le_bytes());
    bytes[24..32].fill(0);
    std::fs::write(&heap, bytes).unwrap();
    std::fs::remove_file(dir.join("t.by_ab.idx")).unwrap();
    assert_reopens_to(&dir, &rows, 0);
    let whole = std::fs::read(dir.join("t.by_ab.idx")).unwrap();
    assert!(whole.len() > 2 * PAGE_SIZE);
    assert_reopens_to(&dir, &rows, 0);
    assert!(
        std::fs::read(dir.join("t.by_ab.idx")).unwrap() == whole,
        "kept"
    );
    // A count no page boundary matches is a damaged heap, not a guess.
    let mut bytes = std::fs::read(&heap).unwrap();
    bytes[24..32].copy_from_slice(&1999u64.to_le_bytes());
    std::fs::write(&heap, bytes).unwrap();
    assert!(matches!(
        Database::open(&dir, 64),
        Err(StoreError::Corrupt(_))
    ));
    for d in [dir, past] {
        std::fs::remove_dir_all(&d).ok();
    }
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
