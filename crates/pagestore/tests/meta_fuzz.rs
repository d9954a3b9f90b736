//! Mutated heap meta pages, the decoder a heap open runs (this runs in a
//! debug build, so arithmetic overflow counts): a heap file — its meta
//! page's magic, column count, row count, columnar tag and sealed row
//! count edited, bits flipped, data page headers edited, the file cut
//! short or to nothing — opens to `Ok` or `StoreError::Corrupt`, never a
//! panic, and an `Ok` heap reads to `Ok` or `Corrupt` too.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::{
    BufferPool, Database, HeapFile, OsVfs, PageFile, StoreError, TableSpec, PAGE_SIZE,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `edits`, or now and then a random value.
    fn pick(&mut self, edits: &[u64]) -> u64 {
        match edits.get(self.below(edits.len() + 1)) {
            Some(&v) => v,
            None => self.next(),
        }
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-metafuzz-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

const NCOLS: usize = 3;

/// Heap files of three columns: raw pages alone; sealed pages and a raw
/// tail behind them; none at all (a heap with no row owns no page).
fn heap_files(dir: &Path) -> Vec<(&'static str, Vec<u8>)> {
    let db = Database::create(&dir.join("db"), 256).unwrap();
    let row = |i: u64| [300.0 * (i % 90) as f64, -(i as f64) * 0.001, i as f64];
    let mut files = Vec::new();
    for (name, sealed, tail) in [("raw", 0, 700), ("sealed", 2000, 300), ("empty", 0, 0)] {
        let t = db
            .create_table(TableSpec::new(name, &["dt", "dv", "t"]))
            .unwrap();
        for i in 0..sealed {
            t.insert(&row(i)).unwrap();
        }
        if sealed > 0 {
            db.seal_table(name).unwrap();
        }
        for i in sealed..sealed + tail {
            t.insert(&row(i)).unwrap();
        }
        db.flush().unwrap();
        let bytes = std::fs::read(dir.join("db").join(format!("{name}.tbl"))).unwrap();
        assert_eq!(bytes.is_empty(), sealed + tail == 0, "{name}");
        files.push((name, bytes));
    }
    files
}

/// Applies one mutation to a heap file and describes it.
fn mutate_heap(file: &mut Vec<u8>, rng: &mut XorShift) -> String {
    if file.len() < PAGE_SIZE {
        // The zero-page case: nothing to edit, only bytes to add.
        let n = rng.pick(&[0, 1, 31, PAGE_SIZE as u64 - 1, PAGE_SIZE as u64]) as usize;
        file.resize(n % (2 * PAGE_SIZE), rng.next() as u8);
        return format!("{} bytes of one value", file.len());
    }
    let get = |f: &[u8], at: usize, n: usize| {
        let mut w = [0u8; 8];
        w[..n].copy_from_slice(&f[at..at + n]);
        u64::from_le_bytes(w)
    };
    let (nrows, sealed) = (get(file, 8, 8), get(file, 24, 8));
    let mut put =
        |at: usize, n: usize, v: u64| file[at..at + n].copy_from_slice(&v.to_le_bytes()[..n]);
    match rng.below(9) {
        0 => {
            let at = rng.below(4);
            put(at, 1, rng.next());
            format!("magic byte {at}")
        }
        1 => {
            let v = rng.pick(&[0, 1, 2, 4, 511, 512, 65_535]);
            put(4, 2, v);
            format!("column count -> {}", v as u16)
        }
        2 => {
            let edits = [
                0,
                1,
                nrows.wrapping_sub(1),
                nrows.wrapping_add(1),
                nrows.wrapping_mul(2),
                u64::MAX,
                u64::MAX / 2,
                sealed,
            ];
            let v = rng.pick(&edits);
            put(8, 8, v);
            format!("row count {nrows} -> {v}")
        }
        3 => {
            let v = rng.pick(&[0, 1, 2, 65_535]);
            put(16, 2, v);
            format!("columnar tag -> {}", v as u16)
        }
        4 => {
            let edits = [
                0,
                1,
                sealed.wrapping_sub(1),
                sealed.wrapping_add(1),
                nrows,
                nrows.wrapping_add(1),
                u64::MAX,
            ];
            let v = rng.pick(&edits);
            put(24, 8, v);
            format!("sealed rows {sealed} -> {v}")
        }
        5 => {
            let (at, bit) = (rng.below(32), rng.below(8));
            file[at] ^= 1 << bit;
            format!("meta bit {bit} of byte {at}")
        }
        6 if file.len() >= 2 * PAGE_SIZE => {
            let pid = 1 + rng.below(file.len() / PAGE_SIZE - 1);
            let v = rng.pick(&[0, 1, 169, 170, 171, 510, 65_535]);
            file[pid * PAGE_SIZE..pid * PAGE_SIZE + 2].copy_from_slice(&(v as u16).to_le_bytes());
            format!("data page {pid} row count -> {}", v as u16)
        }
        7 => {
            let len = rng.pick(&[0, 13, PAGE_SIZE as u64, PAGE_SIZE as u64 + 100]) as usize;
            let len = len.min(file.len());
            file.truncate(len);
            format!("cut to {len} bytes")
        }
        _ => {
            let at = rng.below(file.len());
            file[at] = rng.next() as u8;
            format!("byte {at}")
        }
    }
}

/// Every read of an opened heap: `Ok` or `Corrupt`.
fn read_all(heap: &HeapFile, case: usize, what: &[String]) {
    let ok_or_corrupt = |r: pagestore::Result<()>, path: &str| match r {
        Ok(()) | Err(StoreError::Corrupt(_)) => {}
        Err(e) => panic!("case {case}: {path}: {e:?} after {what:?}"),
    };
    let mut rids = Vec::new();
    let scanned = heap.scan(0, |rid, _| {
        rids.push(rid);
        rids.len() < 5000
    });
    ok_or_corrupt(scanned, "scan");
    let mut cols = Vec::new();
    let columns = heap.scan_columns(|mins, _| mins[0] < 9000.0, &mut cols, |_, _| true);
    ok_or_corrupt(columns.map(|_| ()), "scan_columns");
    rids.sort_unstable();
    let all = 0..heap.ncols();
    ok_or_corrupt(heap.fetch_many_cols(&rids, all, |_, _| true), "fetch");
}

#[test]
fn mutated_heap_files_open_to_ok_or_corrupt_and_never_panic() {
    let dir = tmpdir("heap");
    let bases = heap_files(&dir);
    let path = dir.join("case.tbl");
    let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
    let (mut ok, mut corrupt, mut empty) = (0u32, 0u32, 0u32);
    for case in 0..10_000 {
        let (base, bytes) = &bases[rng.below(bases.len())];
        let mut file = bytes.clone();
        let mut what = vec![base.to_string()];
        for _ in 0..1 + rng.below(2) {
            what.push(mutate_heap(&mut file, &mut rng));
        }
        std::fs::write(&path, &file).unwrap();
        // Now and then the catalogue agrees with whatever the meta page
        // says, so the walk behind the column check runs on edited counts.
        let ncols = match file.get(4..6) {
            Some(n) if rng.below(4) == 0 => u16::from_le_bytes([n[0], n[1]]) as usize,
            _ => NCOLS,
        };
        let pool = Arc::new(BufferPool::new(16));
        let fid = pool.register_file(PageFile::open(&OsVfs, &path).unwrap());
        let opened = catch_unwind(AssertUnwindSafe(|| HeapFile::open(pool, fid, ncols)))
            .unwrap_or_else(|_| panic!("case {case}: open panicked after {what:?}"));
        match opened {
            Ok(heap) => {
                ok += 1;
                // A file of no whole page is an empty heap.
                if file.len() < PAGE_SIZE {
                    assert_eq!(heap.num_rows(), 0, "case {case}: {what:?}");
                    empty += 1;
                }
                catch_unwind(AssertUnwindSafe(|| read_all(&heap, case, &what)))
                    .unwrap_or_else(|_| panic!("case {case}: a read panicked after {what:?}"));
            }
            Err(StoreError::Corrupt(_)) => corrupt += 1,
            Err(e) => panic!("case {case}: {e:?} after {what:?}"),
        }
    }
    // The widest rows a page holds one of, under the largest counts, and a
    // catalogue that agrees: page counts that overflow unless checked.
    let raw = &bases[0].1;
    for (ncols, nrows, sealed) in [
        (511, u64::MAX, 0u64),
        (256, u64::MAX, 1),
        (511, u64::MAX / 2, 0),
    ] {
        let mut file = raw.clone();
        file[4..6].copy_from_slice(&(ncols as u16).to_le_bytes());
        file[8..16].copy_from_slice(&nrows.to_le_bytes());
        file[24..32].copy_from_slice(&sealed.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        let pool = Arc::new(BufferPool::new(16));
        let fid = pool.register_file(PageFile::open(&OsVfs, &path).unwrap());
        let opened = catch_unwind(AssertUnwindSafe(|| HeapFile::open(pool, fid, ncols)));
        let opened = opened.unwrap_or_else(|_| panic!("{ncols} columns, {nrows} rows: a panic"));
        assert!(
            matches!(opened, Err(StoreError::Corrupt(_))),
            "{ncols}, {nrows}"
        );
    }
    assert!(
        ok > 100 && corrupt > 100 && empty > 20,
        "ok {ok}, corrupt {corrupt}, empty {empty}"
    );
    // The catalogue's count is the only one a heap of no page has, and it
    // must be one a heap can have.
    std::fs::write(&path, b"").unwrap();
    for ncols in [0, 600] {
        let pool = Arc::new(BufferPool::new(16));
        let fid = pool.register_file(PageFile::open(&OsVfs, &path).unwrap());
        assert!(matches!(
            HeapFile::open(pool, fid, ncols),
            Err(StoreError::Corrupt(_))
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}
