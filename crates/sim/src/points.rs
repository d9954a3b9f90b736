//! Schedules aimed at one place: the unlogged-tree window, every step of a
//! compaction's first seal and first cut, the gap between the two, the
//! first rows behind a full compaction, the inside of a group commit.

use crate::fs::{CrashModel, Op, SimVfs};
use crate::schedule::{Outcome, Schedule, Sim, Step};
use pagestore::{Database, DurabilityOptions, Result as StoreResult, Table, TableSpec};
use segdiff::SegDiffConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FEATURE_TABLES: [&str; 6] = ["drop1", "drop2", "drop3", "jump1", "jump2", "jump3"];

/// The unlogged-tree window: a checkpoint; inserts until the pool evicts
/// a dirty B+tree page — trees are not logged, so the eviction appends no
/// image — and a crash right after that write, before the next commit. A
/// log that is its checkpoint alone reads as a clean shutdown, and
/// recovery keeps the trees of a clean one: unless the log says otherwise
/// before the tree page reaches its file, the reopened tree holds entries
/// for rows the crash took from the heap. Checks that the log does say
/// so, and that a full index scan then finds exactly the rows a
/// sequential scan finds.
///
/// The crash lands on the write itself: the apply that evicts the tree's
/// pages evicts the heap's tail page too, whose image would leave the log
/// unclean with or without the tree's mark. A first run finds the write
/// among the calls behind the checkpoint, and a second, the same up to
/// there, halts right after it.
pub fn unlogged_tree(seed: u64, model: CrashModel) -> Result<(), String> {
    const STORED: u64 = 20_000;
    let fail = |e: pagestore::StoreError| e.to_string();
    let key = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as f64;
    let opts = DurabilityOptions {
        wal: true,
        sync: model == CrashModel::PowerLoss,
        group_commit: 1,
        checkpoint_wal_bytes: u64::MAX,
    };
    let dir = Path::new("/sim/db");
    let checkpointed = || -> StoreResult<(SimVfs, Arc<Database>, Arc<Table>)> {
        let fs = SimVfs::new(seed);
        let db = Database::create_in(Arc::new(fs.clone()), dir, 24, opts.clone())?;
        let t = db.create_table(TableSpec::new("ev", &["k"]))?;
        db.create_index("ev", "by_k", &["k"])?;
        for i in 0..STORED {
            t.insert(&[key(i)])?;
        }
        db.commit(b"").and_then(|()| db.checkpoint())?;
        Ok((fs, db, t))
    };
    let calls = {
        let (fs, _db, t) = checkpointed().map_err(fail)?;
        fs.trace();
        let before = fs.count(Op::WriteAt, ".idx");
        let mut i = STORED;
        while fs.count(Op::WriteAt, ".idx") == before {
            t.insert(&[key(i)]).map_err(fail)?;
            i += 1;
            if i == 2 * STORED {
                return Err("no tree page was evicted".into());
            }
        }
        fs.trace()
    };
    let is_tree = |path: &Path| path.extension().is_some_and(|ext| ext == "idx");
    let Some(write) = (calls.iter()).position(|(op, path)| *op == Op::WriteAt && is_tree(path))
    else {
        return Err("the traced calls hold no tree write".into());
    };
    let (fs, db, t) = checkpointed().map_err(fail)?;
    fs.halt_after(write as u64 + 1);
    let mut i = STORED;
    while t.insert(&[key(i)]).is_ok() {
        i += 1;
    }
    drop((t, db));
    fs.crash(seed, model);
    let db = Database::open_in(Arc::new(fs.clone()), dir, 24, opts).map_err(fail)?;
    if db.recovery_report().is_some_and(|r| r.clean) {
        return Err(format!(
            "a tree page reached its file {} rows after the checkpoint, and recovery called \
             the shutdown clean",
            i - STORED
        ));
    }
    let t = db.table("ev").map_err(fail)?;
    let (scanned, indexed) = rows_by_scan_and_tree(&t).map_err(fail)?;
    if scanned != indexed {
        return Err(format!(
            "after the crash the heap holds {} rows and its tree {}",
            scanned.len(),
            indexed.len()
        ));
    }
    Ok(())
}

/// The keys of a one-column table by a sequential scan and by a full
/// index scan, each sorted.
fn rows_by_scan_and_tree(t: &Table) -> StoreResult<(Vec<u64>, Vec<u64>)> {
    let (mut scanned, mut indexed) = (Vec::new(), Vec::new());
    t.seq_scan(|_, row| {
        scanned.push(row[0].to_bits());
        true
    })?;
    let (lo, hi) = ([f64::NEG_INFINITY], [f64::INFINITY]);
    t.index_scan("by_k", &lo, &hi, |_, cols| {
        indexed.push(cols[0].to_bits());
        true
    })?;
    scanned.sort_unstable();
    indexed.sort_unstable();
    Ok((scanned, indexed))
}

/// Whether a traced call is the rename that publishes a new log: the end
/// of a checkpoint.
fn new_log((op, path): &(Op, PathBuf)) -> bool {
    *op == Op::Rename && path.ends_with("wal.log")
}

/// The calls of `trace` a crash can land before: the first of each kind
/// of call on each kind of file (the table's name aside) between two
/// checkpoints, and the end.
fn steps_of(trace: &[(Op, PathBuf)]) -> Vec<u64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut checkpoints = 0;
    let mut points = Vec::new();
    for (i, (op, path)) in trace.iter().enumerate() {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        let kind = name.split_once('.').map_or(name.as_str(), |(_, ext)| ext);
        if seen.insert((checkpoints, *op, kind.to_string())) {
            points.push(i as u64);
        }
        checkpoints += usize::from(new_log(&trace[i]));
    }
    points.push(trace.len() as u64);
    points
}

/// A crash at every step of the first two heap rewrites a compaction
/// makes — the seal of `segments`, then the cut of the first feature table
/// that stores rows of the sealed run — each from the checkpoint it begins
/// with through the temporary heap, the removal of the trees, the rename,
/// the checkpoint of the new row counts and the rebuilt trees, to the
/// checkpoint it ends with: one compaction after each of
/// `fills` samples pushed, so the first compacts a row store and the next
/// ones a store compacted before with rows behind its sealed run. Returns
/// the crashes made.
pub fn seal_steps(seed: u64, model: CrashModel, fills: &[usize]) -> Result<usize, String> {
    let config = SegDiffConfig::default().with_pool_pages(48);
    let mut sim = Sim::with_config(&Schedule::new(seed, model, 0), config)?;
    let mut crashes = 0;
    for (i, &fill) in (0..).step_by(3).zip(fills) {
        sim.arm(i, Step::Push(fill), None)?;
        sim.arm(i + 1, Step::Checkpoint, None)?;
        let trace = sim.trace(Step::Compact)?;
        // A rewrite logs three checkpoints: the second rewrite ends with
        // the sixth new log.
        let renames: Vec<usize> = (0..trace.len()).filter(|&i| new_log(&trace[i])).collect();
        let end = renames.get(5).map_or(trace.len(), |&at| at + 2);
        crashes += sim.crash_at(Step::Compact, &steps_of(&trace[..end]))?.len();
        sim.arm(i + 2, Step::Compact, None)?;
    }
    Ok(crashes)
}

/// A crash at every step of the first push behind a full compaction, on a
/// store of `fill` samples compacted whole: every feature heap and tree
/// owns no page, and the push's rows give them their first — a heap its
/// meta page and first data page (logged), a tree its meta page and root
/// once its write buffer applies (unlogged). The push runs through the
/// rest of the series; a crash lands before the first two calls of each
/// kind on each file (the log included), and at the end. Returns the
/// crashes made.
pub fn first_rows_behind_a_seal(
    seed: u64,
    model: CrashModel,
    fill: usize,
) -> Result<usize, String> {
    let config = SegDiffConfig::default()
        .with_pool_pages(48)
        .with_group_commit(4);
    let mut sim = Sim::with_config(&Schedule::new(seed, model, 0), config)?;
    sim.arm(0, Step::Push(fill), None)?;
    sim.arm(1, Step::Compact, None)?;
    let db = sim.index().database();
    for name in FEATURE_TABLES {
        let t = db.table(name).map_err(|e| e.to_string())?;
        if t.heap_bytes() + t.index_bytes() > 0 {
            return Err(format!("a full compaction left {name} a page"));
        }
    }
    // The rest of the series: it holds fewer than 300 samples.
    let push = Step::Push(300);
    let trace = sim.trace(push)?;
    let tree_page = |(op, path): &(Op, PathBuf)| {
        *op == Op::WriteAt && path.extension().is_some_and(|ext| ext == "idx")
    };
    if !trace.iter().any(tree_page) {
        return Err("no tree took a page in the push".into());
    }
    let mut calls = std::collections::BTreeMap::new();
    let mut points = Vec::new();
    for (i, call) in trace.iter().enumerate() {
        let made = calls.entry(call).or_insert(0);
        *made += 1;
        if *made <= 2 {
            points.push(i as u64);
        }
    }
    points.push(trace.len() as u64);
    Ok(sim.crash_at(push, &points)?.len())
}

/// A crash in the gap between a compaction's two steps, on a store of
/// `fill` samples: `segments` sealed, no feature table cut yet. The store
/// reopens with the rows of the sealed run both stored and generated,
/// [`segdiff::SegDiffIndex::open`] finishes the cut, and the check holds.
/// With `cut_first`, the steps run the other way round — every feature
/// row of the sealed run-to-be cut, then the crash before `segments` is
/// sealed — and the rows are lost: the check's failure is the error.
pub fn seal_then_cut(
    seed: u64,
    model: CrashModel,
    fill: usize,
    cut_first: bool,
) -> Result<(), String> {
    let config = SegDiffConfig::default().with_pool_pages(48);
    let mut sim = Sim::with_config(&Schedule::new(seed, model, 0), config)?;
    sim.arm(0, Step::Push(fill), None)?;
    sim.arm(1, Step::Checkpoint, None)?;
    if !cut_first {
        // The seal ends with its third new log; the cut's first change to
        // a feature table's file comes after.
        let trace = sim.trace(Step::Compact)?;
        let sealed = (0..trace.len()).filter(|&i| new_log(&trace[i])).nth(2);
        let feature = |path: &Path| {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            name.is_some_and(|n| n.starts_with("drop") || n.starts_with("jump"))
        };
        let gap = (sealed.ok_or("no seal")?..trace.len()).find(|&i| feature(&trace[i].1));
        let gap = gap.ok_or("the compaction cut no feature table")?;
        sim.crash_at(Step::Compact, &[gap as u64])?;
        return Ok(());
    }
    let idx = sim.index();
    let segments = idx.segments().map_err(|e| e.to_string())?;
    let through = segments.last().ok_or("no segment")?.t_start;
    for (name, corners) in FEATURE_TABLES.iter().zip([1, 2, 3, 1, 2, 3]) {
        let tb = 2 * corners + 2;
        let cut = idx.database().cut_table(name, |row| row[tb] > through);
        cut.map_err(|e| e.to_string())?;
    }
    sim.crash()?;
    sim.check()
}

/// A crash at every step of a group commit, whose page images reach the
/// log in one write: before that write; with it pending, which a power
/// loss keeps, drops or tears at sectors, aimed twice so that it meets
/// two crash seeds; after the commit record; after the sync (when the
/// store syncs). Returns the crashes made.
pub fn group_commit_steps(seed: u64, model: CrashModel) -> Result<usize, String> {
    let config = SegDiffConfig::default()
        .with_pool_pages(256)
        .with_group_commit(4);
    let sim = Sim::with_config(&Schedule::new(seed, model, 0), config)?;
    let trace = sim.trace(Step::Push(60))?;
    let on_log = |i: usize, call: Op| {
        trace
            .get(i)
            .is_some_and(|(op, path)| *op == call && path.ends_with("wal.log"))
    };
    // A group commit is two writes to the log in a row, its images and
    // its record, then the sync. (The first rows' heaps taking their
    // first pages mark the log unclean before: one record and its
    // sync.)
    let first = (0..trace.len())
        .find(|&i| on_log(i, Op::WriteAt) && on_log(i + 1, Op::WriteAt))
        .ok_or(format!("seed {seed}: no group commit in 60 samples"))?;
    let end = first + 2 + usize::from(on_log(first + 2, Op::Sync));
    let mut points: Vec<u64> = (first..=end).map(|i| i as u64).collect();
    points.insert(1, first as u64 + 1);
    let runs = sim.crash_at(Step::Push(60), &points)?;
    let crash = |run: &Outcome| run.log.iter().find(|l| l.starts_with("  crash ")).cloned();
    if crash(&runs[1]) == crash(&runs[2]) {
        return Err(format!(
            "seed {seed}: the pending write's two aims crashed alike: {:?}",
            crash(&runs[1])
        ));
    }
    Ok(runs.len())
}
