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
