//! Property tests for the storage substrate: every structure is checked
//! against an in-memory model under randomized workloads.

use crate::buffer::BufferPool;
use crate::heap::HeapFile;
use crate::pagefile::PageFile;
use crate::BTree;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pagestore-prop-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heap files behave like a Vec of rows, across any pool size (even
    /// pools far smaller than the data, forcing constant eviction).
    #[test]
    fn heap_matches_vec_model(
        rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 3), 1..400),
        pool_pages in 8usize..64,
    ) {
        let p = tmpfile("heap");
        let pool = Arc::new(BufferPool::new(pool_pages));
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        let mut heap = HeapFile::open(pool, fid, 3).unwrap();
        let mut rids = Vec::new();
        for row in &rows {
            rids.push(heap.insert(row).unwrap());
        }
        // Random access.
        for (i, &rid) in rids.iter().enumerate() {
            heap.fetch_many_cols(&[rid], 0..3, |_, row| {
                assert_eq!(row, rows[i].as_slice());
                true
            })
            .unwrap();
        }
        // Scan order and contents.
        let mut seen = 0usize;
        heap.scan(0, |rid, row| {
            assert_eq!(rid, rids[seen]);
            assert_eq!(row, rows[seen].as_slice());
            seen += 1;
            true
        })
        .unwrap();
        prop_assert_eq!(seen, rows.len());
        std::fs::remove_file(&p).ok();
    }

    /// The B+tree agrees with BTreeSet on inserts and arbitrary ranges,
    /// under random (possibly duplicate-prefix) keys.
    #[test]
    fn btree_matches_model_random_ranges(
        keys in prop::collection::vec(any::<u32>(), 1..300),
        ranges in prop::collection::vec((any::<u32>(), any::<u32>()), 1..10),
    ) {
        use std::collections::BTreeSet;
        let p = tmpfile("btree");
        let pool = Arc::new(BufferPool::new(64));
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        let mut bt = BTree::open(pool, fid, 12).unwrap();
        let mut model = BTreeSet::new();
        for (i, &k) in keys.iter().enumerate() {
            let mut key = [0u8; 12];
            key[..4].copy_from_slice(&k.to_be_bytes());
            key[4..].copy_from_slice(&(i as u64).to_be_bytes());
            bt.insert(&key).unwrap();
            model.insert(key.to_vec());
        }
        for &(a, b) in &ranges {
            let (a, b) = (a.min(b), a.max(b));
            let mut lo = [0u8; 12];
            let mut hi = [0xFFu8; 12];
            lo[..4].copy_from_slice(&a.to_be_bytes());
            hi[..4].copy_from_slice(&b.to_be_bytes());
            let mut got = Vec::new();
            bt.range(&lo, &hi, |k| {
                got.push(k.to_vec());
                true
            })
            .unwrap();
            let want: Vec<Vec<u8>> = model.range(lo.to_vec()..=hi.to_vec()).cloned().collect();
            prop_assert_eq!(got, want);
        }
        std::fs::remove_file(&p).ok();
    }

    /// Index and sequential execution agree: a range on the leading key
    /// column plus a residual predicate on the covered columns selects the
    /// same multiset of rows whether it runs as a B+tree range scan with
    /// the residual applied to the decoded key columns and the matches
    /// fetched, or as a sequential scan with both applied to the row — on
    /// random data, part of it still in the tree's write buffer.
    #[test]
    fn index_and_sequential_execution_agree(
        rows in prop::collection::vec((-100i32..100, -100i32..100), 1..200),
        later in prop::collection::vec((-100i32..100, -100i32..100), 0..40),
        t_bound in -100i32..100,
        v_bound in -100i32..100,
        case in 0u8..4,
    ) {
        use crate::db::{Database, TableSpec};
        let dir = tmpfile("planprop");
        let db = Database::create(&dir, 128).unwrap();
        let t = db.create_table(TableSpec::new("t", &["a", "b", "c"])).unwrap();
        let insert = |i: usize, &(a, b): &(i32, i32)| t.insert(&[a as f64, b as f64, i as f64]).unwrap();
        rows.iter().enumerate().for_each(|(i, r)| { insert(i, r); });
        db.create_index("t", "by_a_b", &["a", "b"]).unwrap();
        later.iter().enumerate().for_each(|(i, r)| { insert(rows.len() + i, r); });
        let (tb, vb) = (t_bound as f64, v_bound as f64);
        let (neg, inf) = (f64::NEG_INFINITY, f64::INFINITY);
        // (range of `a`, residual over `(a, b)`).
        type Residual = Box<dyn Fn(f64, f64) -> bool>;
        let ((a_lo, a_hi), residual): ((f64, f64), Residual) = match case {
            0 => ((neg, tb), Box::new(move |_, b| b <= vb)),
            1 => ((tb, inf), Box::new(move |a, b| a > tb + 20.0 || b == vb)),
            2 => ((tb, tb), Box::new(move |_, b| b >= vb)),
            _ => ((tb, tb + 50.0), Box::new(move |a, b| a > tb && b != vb)),
        };
        let mut indexed: Vec<Vec<f64>> = Vec::new();
        let mut rids = Vec::new();
        t.index_scan("by_a_b", &[a_lo, neg], &[a_hi, inf], |rid, cols| {
            if residual(cols[0], cols[1]) {
                rids.push(rid);
            }
            true
        })
        .unwrap();
        rids.sort_unstable();
        t.fetch_many(&rids, |_, row| {
            indexed.push(row.to_vec());
            true
        })
        .unwrap();
        let mut scanned: Vec<Vec<f64>> = Vec::new();
        t.seq_scan(|_, row| {
            if a_lo <= row[0] && row[0] <= a_hi && residual(row[0], row[1]) {
                scanned.push(row.to_vec());
            }
            true
        })
        .unwrap();
        let key = |r: &Vec<f64>| r[2] as i64;
        indexed.sort_by_key(key);
        scanned.sort_by_key(key);
        prop_assert_eq!(indexed, scanned);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sealed pages and trees partition the heap: through any interleaving
    /// of insert batches, seals (each seals every row there is), cuts
    /// (each keeps two rows of three, on raw pages), flushes and reopens,
    /// the heap holds the rows inserted and kept, in that order, in the
    /// one layout — columnar pages up to the last sealed one, raw pages
    /// behind — the sealed pages plus a tree's entries are the heap's
    /// rows, each once, and every tree holds exactly the rows behind the
    /// sealed ones, a buffer's worth of them at most unapplied.
    #[test]
    fn sealed_pages_and_trees_hold_every_row_once(
        ops in prop::collection::vec((0u8..5, 1usize..700), 1..10),
        wal in any::<bool>(),
    ) {
        use crate::db::{Database, DurabilityOptions, TableSpec};
        let dir = tmpfile("sealprop");
        let opts = DurabilityOptions { wal, ..DurabilityOptions::default() };
        let mut db = Database::create_with(&dir, 64, opts).unwrap();
        db.create_table(TableSpec::new("t", &["a", "b", "c"])).unwrap();
        db.create_index("t", "by_ab", &["a", "b"]).unwrap();
        db.create_index("t", "by_c", &["c"]).unwrap();
        // The third column of every row the heap holds, in storage order.
        let (mut model, mut sealed, mut next) = (Vec::new(), 0u64, 0u64);
        for (op, n) in ops {
            let t = db.table("t").unwrap();
            match op {
                0 | 1 => {
                    let batch: Vec<f64> = (next..next + n as u64)
                        .flat_map(|i| {
                            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                            [(h % 97) as f64, -((h % 13) as f64), i as f64]
                        })
                        .collect();
                    t.insert_many(&batch).unwrap();
                    model.extend((next..next + n as u64).map(|i| i as f64));
                    next += n as u64;
                    db.commit(b"batch").unwrap();
                }
                2 => {
                    db.seal_table("t").unwrap();
                    sealed = model.len() as u64;
                }
                3 => {
                    let keep = |c: f64| !(c as u64).is_multiple_of(3);
                    db.cut_table("t", |row| keep(row[2])).unwrap();
                    model.retain(|&c| keep(c));
                    sealed = 0;
                }
                _ => {
                    db.flush().unwrap();
                    if n % 2 == 0 {
                        drop((t, db));
                        db = Database::open(&dir, 64).unwrap();
                    }
                }
            }
            let t = db.table("t").unwrap();
            let rows = model.len() as u64;
            prop_assert_eq!((t.num_rows(), t.sealed_rows()), (rows, sealed));
            t.assert_one_layout();
            let mut held = Vec::new();
            t.seq_scan(|_, row| {
                held.push(row[2]);
                true
            })
            .unwrap();
            prop_assert!(held == model, "rows or their order");
            for name in ["by_ab", "by_c"] {
                let tree = t.index(name).unwrap();
                prop_assert_eq!(tree.len(), rows - sealed, "{}", name);
                prop_assert!(tree.buffered() < crate::BUFFER_ENTRIES, "{}", name);
                let [scanned, found] = t.rows_by_scan_and_by_seal_and_tree(name);
                prop_assert_eq!(scanned.len() as u64, rows);
                prop_assert!(scanned == found, "{}: sealed pages + tree != heap", name);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Data written through the pool is never lost, whatever the order of
    /// reads, writes and cache drops.
    #[test]
    fn pool_durability_under_random_ops(
        ops in prop::collection::vec((0u8..4, 0u32..48, any::<u8>()), 1..200),
    ) {
        let p = tmpfile("pool");
        let pool = BufferPool::new(8); // tiny: constant eviction
        let fid = pool.register_file(PageFile::create(&crate::OsVfs, &p).unwrap());
        let mut model: Vec<u8> = Vec::new();
        for (op, page, val) in ops {
            match op {
                0 => {
                    // allocate
                    pool.allocate_page(fid).unwrap();
                    model.push(0);
                }
                1 if !model.is_empty() => {
                    // write
                    let pid = page % model.len() as u32;
                    pool.with_page_mut(fid, pid, |b| b[7] = val).unwrap();
                    model[pid as usize] = val;
                }
                2 if !model.is_empty() => {
                    // read
                    let pid = page % model.len() as u32;
                    let got = pool.with_page(fid, pid, |b| b[7]).unwrap();
                    prop_assert_eq!(got, model[pid as usize]);
                }
                3 => {
                    pool.clear_cache().unwrap();
                }
                _ => {}
            }
        }
        // Final verification pass, fully cold.
        pool.clear_cache().unwrap();
        for (pid, &val) in model.iter().enumerate() {
            let got = pool.with_page(fid, pid as u32, |b| b[7]).unwrap();
            prop_assert_eq!(got, val);
        }
        std::fs::remove_file(&p).ok();
    }
}
