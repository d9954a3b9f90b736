//! Corrupt WAL frames must yield a valid prefix of the log: never a
//! panic (this runs in a debug build, so arithmetic overflow counts),
//! never a byte written past that prefix, never an allocation out of
//! proportion to the input.
//!
//! A valid log of a checkpoint, page images and commits is mutated —
//! bytes overwritten, bits flipped, a frame's `len` set up to
//! `u32::MAX`, a payload byte overwritten under a re-sealed checksum (so
//! the record decoder itself sees the garbage), the log truncated at
//! every frame boundary ±1 — and opened as a log (`Wal::open`, which
//! walks it once and cuts the torn tail) and recovered from.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::wal::{crc32, FRAME_HDR};
use pagestore::{
    CommitState, Database, DurabilityOptions, OsVfs, StoreError, TableSpec, Wal, PAGE_SIZE,
    WAL_FILE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, keeping count of the bytes each thread holds
/// and the most it held since [`peak_during`] began.
struct Counting;

fn track(grow: usize, shrink: usize) {
    // `try_with`: a thread's counters are gone while it exits.
    LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        PEAK.try_with(|peak| peak.set(peak.get().max(now))).ok();
    })
    .ok();
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counting
// touches only thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread held
/// meanwhile beyond what it held before.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

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
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-walfuzz-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn state(rows: u64) -> CommitState {
    CommitState {
        tables: vec![("segments".into(), rows), ("drop1".into(), 3 * rows)],
        blob: format!("rows={rows}").into_bytes(),
    }
}

/// A log of a checkpoint, six page images (full, sparse, zero) and two
/// commits, and where its frames start.
fn valid_log(dir: &Path, rng: &mut XorShift) -> (Vec<u8>, Vec<usize>) {
    let wal = Wal::create(Arc::new(OsVfs), dir, &state(0), false).unwrap();
    let mut pages = vec![[0u8; PAGE_SIZE]; 6];
    for (i, page) in pages.iter_mut().enumerate() {
        let used = [PAGE_SIZE, 9, 0, 700, 4088, 1][i];
        for b in &mut page[..used] {
            *b = rng.next() as u8 | 1;
        }
    }
    let images: Vec<(&str, u32, &[u8; PAGE_SIZE])> = (pages.iter().enumerate())
        .map(|(i, page)| (["segments.tbl", "drop1.tbl"][i % 2], i as u32, page))
        .collect();
    wal.append_images(&images[..4]).unwrap();
    wal.append_commit(&state(40)).unwrap();
    wal.append_images(&images[4..]).unwrap();
    wal.append_commit(&state(41)).unwrap();
    let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let starts = frame_starts(&log);
    (log, starts)
}

/// Where each frame of a valid `log` starts, and its end.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    let mut at = 0;
    while at < log.len() {
        at += FRAME_HDR + u32::from_le_bytes(log[at + 4..at + 8].try_into().unwrap()) as usize;
        starts.push(at);
    }
    assert_eq!(at, log.len());
    starts
}

/// The frame boundary at or below `at`.
fn boundary_below(starts: &[usize], at: usize) -> usize {
    starts
        .iter()
        .copied()
        .filter(|&s| s <= at)
        .max()
        .unwrap_or(0)
}

/// Applies one mutation; returns whether a checksum was re-sealed (the
/// valid prefix may then reach past the frame changed) and a description.
fn mutate(log: &mut [u8], starts: &[usize], rng: &mut XorShift) -> (bool, String) {
    let frame = rng.below(starts.len() - 1);
    let (start, end) = (starts[frame], starts[frame + 1]);
    match rng.below(4) {
        0 => {
            let (at, v) = (rng.below(log.len()), rng.next() as u8);
            log[at] = v;
            (false, format!("byte {at} = {v:#x}"))
        }
        1 => {
            let (at, bit) = (rng.below(log.len()), rng.below(8));
            log[at] ^= 1 << bit;
            (false, format!("bit {bit} of byte {at} flipped"))
        }
        2 => {
            let len = (end - start - FRAME_HDR) as u32;
            let edits = [
                0,
                1,
                8,
                len - 1,
                len + 1,
                len.wrapping_mul(2),
                u32::MAX - FRAME_HDR as u32,
                u32::MAX,
            ];
            let v = edits
                .get(rng.below(edits.len() + 1))
                .copied()
                .unwrap_or(rng.next() as u32);
            log[start + 4..start + 8].copy_from_slice(&v.to_le_bytes());
            (false, format!("frame {frame}: len {len} -> {v}"))
        }
        _ => {
            // The record decoder's own checks: garbage under a valid
            // checksum, aimed at the kind, the LSN, a length field.
            let payload = start + FRAME_HDR;
            let at = match rng.below(3) {
                0 => payload + rng.below(9),
                1 => payload + 9 + rng.below(8.min(end - payload - 9)),
                _ => payload + rng.below(end - payload),
            };
            let v = [0, 0xFF, rng.next() as u8][rng.below(3)];
            log[at] = v;
            let crc = crc32(&log[payload..end]);
            log[start + 8..payload].copy_from_slice(&crc.to_le_bytes());
            (
                true,
                format!("frame {frame}: byte {at} = {v:#x}, checksum re-sealed"),
            )
        }
    }
}

/// The LSN of a valid frame.
fn lsn(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[FRAME_HDR + 1..FRAME_HDR + 9].try_into().unwrap())
}

/// Opens `input` as the log in `dir` (`Wal::open`), checks the contract
/// and returns the length of the valid prefix the log kept.
fn feed(input: &[u8], dir: &Path, what: &str) -> usize {
    let log = dir.join(WAL_FILE);
    std::fs::write(&log, input).unwrap();
    let bound = 4 * input.len() + (64 << 10);
    let (opened, peak) = peak_during(|| {
        catch_unwind(AssertUnwindSafe(|| Wal::open(Arc::new(OsVfs), dir, false)))
            .unwrap_or_else(|_| panic!("Wal::open panicked after {what}"))
    });
    assert!(
        peak <= bound,
        "Wal::open held {peak} B of a {} B log after {what}",
        input.len()
    );
    let wal = opened.unwrap();
    // What the log kept is a prefix of the input, and nothing past it.
    let kept = std::fs::read(&log).unwrap();
    assert!(
        input.starts_with(&kept),
        "{what}: kept bytes are not the input's"
    );
    assert_eq!(wal.size_bytes(), kept.len() as u64, "{what}");
    // The prefix is whole frames, every one of them valid on its own, and
    // the log appends after the last.
    let starts = frame_starts(&kept);
    let last = starts
        .len()
        .checked_sub(2)
        .map_or(0, |i| lsn(&kept[starts[i]..]));
    assert_eq!(wal.next_lsn(), last.saturating_add(1), "{what}");
    kept.len()
}

#[test]
fn mutated_logs_yield_a_valid_prefix_and_never_panic() {
    let dir = tmpdir("log");
    let mut rng = XorShift(0x005E_ED0F_1065);
    let (log, starts) = valid_log(&dir, &mut rng);
    assert_eq!(starts.len(), 10, "a checkpoint, six images, two commits");
    assert_eq!(feed(&log, &dir, "nothing"), log.len());

    // Truncated at every frame boundary and a byte either side of it.
    for (i, &b) in starts.iter().enumerate() {
        for cut in [b.saturating_sub(1), b, b + 1] {
            let cut = cut.min(log.len());
            let what = format!("truncation at {cut}");
            let want = match starts.binary_search(&cut) {
                Ok(_) => cut,
                Err(_) => boundary_below(&starts, cut),
            };
            assert_eq!(feed(&log[..cut], &dir, &what), want, "boundary {i}");
        }
    }

    let (mut whole, mut cut) = (0u32, 0u32);
    for case in 0..if cfg!(miri) { 20 } else { 1_500 } {
        let mut mutated = log.clone();
        let mut resealed = false;
        let mut what = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (sealed, said) = mutate(&mut mutated, &starts, &mut rng);
            resealed |= sealed;
            what.push(said);
        }
        let what = format!("case {case}: {what:?}");
        let took = feed(&mutated, &dir, &what);
        // The frames before the first byte changed must all be taken.
        let first = mutated.iter().zip(&log).position(|(a, b)| a != b);
        let intact = first.map_or(log.len(), |at| boundary_below(&starts, at));
        if first.is_none() {
            assert_eq!(took, log.len(), "{what}");
        } else if resealed {
            assert!(took >= intact, "{what}: {took} B taken, {intact} intact");
        } else {
            // A change a checksum covers stops the walk at its frame.
            assert_eq!(took, intact, "{what}");
        }
        if took == log.len() {
            whole += 1;
        } else {
            cut += 1;
        }
    }
    // The mutations must reach both outcomes to mean anything.
    assert!(whole > 10 && cut > 750, "whole {whole}, cut short {cut}");
    std::fs::remove_dir_all(&dir).ok();
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        wal: true,
        sync: false,
        group_commit: 1,
        ..DurabilityOptions::default()
    }
}

/// The files of a store whose process died after four commits: its
/// catalogue and heaps as the disk held them (pages allocated, none
/// flushed since the checkpoint) and a log of page images and commits.
fn crashed_store(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let db = Database::create_in(Arc::new(OsVfs), dir, 8, opts()).unwrap();
    let (a, b) = (
        db.create_table(TableSpec::new("segments", &["t", "v"]))
            .unwrap(),
        db.create_table(TableSpec::new("drop1", &["a", "b", "c"]))
            .unwrap(),
    );
    for i in 0..4 {
        let rows = 100 + 300 * i;
        let f = |k: u64| (k * 7 % 13) as f64;
        a.insert_many(&(0..2 * rows).map(f).collect::<Vec<_>>())
            .unwrap();
        b.insert_many(&(0..3 * (rows / 5)).map(f).collect::<Vec<_>>())
            .unwrap();
        db.commit(format!("commit {i}").as_bytes()).unwrap();
    }
    let files = std::fs::read_dir(dir).unwrap().map(|e| {
        let name = e.unwrap().file_name().into_string().unwrap();
        let bytes = std::fs::read(dir.join(&name)).unwrap();
        (name, bytes)
    });
    let files = files.collect();
    drop(db);
    files
}

/// Lays `files` out in `dir` with `log` as its log, opens the store and
/// checks the contract: `Ok` or `Corrupt`, no panic, allocation bounded
/// by the log.
fn recover_from(files: &[(String, Vec<u8>)], log: &[u8], dir: &Path, what: &str) -> bool {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    std::fs::write(dir.join(WAL_FILE), log).unwrap();
    let bound = 4 * log.len() + (64 << 10);
    let (opened, peak) = peak_during(|| {
        catch_unwind(AssertUnwindSafe(|| {
            Database::open_in(Arc::new(OsVfs), dir, 8, opts()).map(drop)
        }))
        .unwrap_or_else(|_| panic!("Database::open_in panicked after {what}"))
    });
    assert!(
        peak <= bound,
        "Database::open_in held {peak} B of a {} B log after {what}",
        log.len()
    );
    match opened {
        Ok(()) => true,
        Err(StoreError::Corrupt(_)) => false,
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn recovery_of_mutated_logs_is_ok_or_corrupt() {
    let (store, dir) = (tmpdir("store"), tmpdir("recover"));
    let files = crashed_store(&store);
    let (names, logs): (Vec<_>, Vec<_>) = files.into_iter().partition(|(n, _)| n != WAL_FILE);
    let log = &logs[0].1;
    let starts = frame_starts(log);
    assert!(starts.len() > 8, "{} frames", starts.len() - 1);
    assert!(recover_from(&names, log, &dir, "nothing"));
    for &b in &starts {
        for cut in [b.saturating_sub(1), b, b + 1] {
            let cut = cut.min(log.len());
            recover_from(&names, &log[..cut], &dir, &format!("truncation at {cut}"));
        }
    }
    let mut rng = XorShift(0x0BAD_5EED_1065);
    let (mut opened, mut corrupt) = (0u32, 0u32);
    for case in 0..if cfg!(miri) { 5 } else { 1_500 } {
        let mut mutated = log.clone();
        let what: Vec<String> = (0..1 + rng.below(3))
            .map(|_| mutate(&mut mutated, &starts, &mut rng).1)
            .collect();
        match recover_from(&names, &mutated, &dir, &format!("case {case}: {what:?}")) {
            true => opened += 1,
            false => corrupt += 1,
        }
    }
    assert!(
        opened > 30 && corrupt > 0,
        "opened {opened}, corrupt {corrupt}"
    );
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn many_sparse_images_replay_in_bounded_memory() {
    // Thousands of images of a few bytes each: a few dozen bytes a frame,
    // a whole page each if recovery held them.
    let (store, dir) = (tmpdir("sparse-store"), tmpdir("sparse"));
    let files = crashed_store(&store);
    let names: Vec<_> = files.into_iter().filter(|(n, _)| n != WAL_FILE).collect();
    let state = CommitState::default();
    let wal = Wal::create(Arc::new(OsVfs), &store, &state, false).unwrap();
    let mut page = [0u8; PAGE_SIZE];
    for i in 0..4000u32 {
        page[..4].copy_from_slice(&i.to_le_bytes());
        wal.append_images(&[("scratch.tbl", i % 4, &page)]).unwrap();
    }
    wal.append_commit(&state).unwrap();
    let log = std::fs::read(store.join(WAL_FILE)).unwrap();
    assert!(log.len() < 4000 * 64, "{} B", log.len());
    assert!(recover_from(&names, &log, &dir, "4000 sparse images"));
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_image_past_what_the_file_and_the_log_can_hold_is_corrupt() {
    // A file of no page and a log of a few frames: page 3 is within the
    // log's reach, page 2^32 - 2 is not, and is never written.
    let (store, dir) = (tmpdir("far-store"), tmpdir("far"));
    let files = crashed_store(&store);
    let names: Vec<_> = files.into_iter().filter(|(n, _)| n != WAL_FILE).collect();
    let state = CommitState::default();
    let mut page = [0u8; PAGE_SIZE];
    page[..4].copy_from_slice(b"rows");
    let log_of = |pids: &[u32]| {
        let wal = Wal::create(Arc::new(OsVfs), &store, &state, false).unwrap();
        for &pid in pids {
            wal.append_images(&[("scratch.tbl", pid, &page)]).unwrap();
        }
        wal.append_commit(&state).unwrap();
        std::fs::read(store.join(WAL_FILE)).unwrap()
    };
    assert!(recover_from(&names, &log_of(&[0, 1, 3]), &dir, "page 3"));
    let far = log_of(&[0, 1, 3, u32::MAX - 1]);
    assert!(!recover_from(&names, &far, &dir, "page 2^32 - 2"));
    let len = std::fs::metadata(dir.join("scratch.tbl")).unwrap().len();
    assert_eq!(len, 4 * PAGE_SIZE as u64, "replay stopped at the far page");
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&dir).ok();
}
