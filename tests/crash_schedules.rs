//! Crash recovery, in tier 1: fixed seeds of the simulated file system's
//! schedules (`crates/sim`). Each crash is followed by a reopen, and each
//! reopened store must pass the crash checker (`segdiff::oracle::
//! check_prefix`: Theorem 1 and Lemma 5 over the prefix it kept, its own
//! consistency, one answer from both plans) and keep everything known
//! durable.

use sim::points::{
    first_rows_behind_a_seal, group_commit_steps, seal_steps, seal_then_cut, unlogged_tree,
};
use sim::CrashModel::{PowerLoss, ProcessKill};
use sim::{run, Schedule};

/// A B+tree page evicted between a checkpoint and the next commit: the
/// log must say the shutdown was not clean before the page reaches its
/// file, or recovery keeps a tree of rows the heap lost. The heap's
/// evicted pages put their images in the log first, so only a power loss
/// that drops those and keeps the tree's write can tell a missing mark:
/// seed 3's does.
#[test]
fn unlogged_tree_window() {
    unlogged_tree(0, ProcessKill).unwrap();
    unlogged_tree(1, PowerLoss).unwrap();
    unlogged_tree(3, PowerLoss).unwrap();
}

/// A power loss at every step of a compaction's seal of `segments` and
/// its first cut of a feature table, on a row store: before the first
/// call of each kind on each kind of file between two checkpoints, 72 of
/// them. (100 while an emptied table kept pages: the cut to no row writes
/// no page of its temporary heap, and a checkpoint writes no meta page of
/// a tree with no entry; 91 while every heap kept a zone sidecar, whose
/// writes and removal were steps too.)
#[test]
fn crash_inside_each_step_of_a_seal() {
    let crashes = seal_steps(11, PowerLoss, &[60]).unwrap();
    assert!(crashes >= 72, "{crashes} crash points");
}

/// A power loss at every step of the first push behind a full compaction,
/// where the feature heaps and trees take their first pages.
#[test]
fn crash_inside_the_first_rows_behind_a_seal() {
    let crashes = first_rows_behind_a_seal(15, PowerLoss, 60).unwrap();
    assert!(crashes >= 30, "{crashes} crash points");
}

/// A power loss between a compaction's two steps. In the committed order
/// — seal `segments`, then cut the feature tables — the rows of the sealed
/// run are stored and generated, and the reopen finishes the cut; cut
/// first, the crash loses them.
#[test]
fn crash_between_sealing_segments_and_cutting_the_feature_tables() {
    seal_then_cut(14, PowerLoss, 90, false).unwrap();
    let lost = seal_then_cut(14, PowerLoss, 90, true).unwrap_err();
    assert!(lost.contains("disagrees with segment replay"), "{lost}");
}

/// A power loss before, among and after the writes of a group commit.
#[test]
fn crash_inside_a_group_commit() {
    let crashes = group_commit_steps(12, PowerLoss).unwrap();
    assert!(crashes >= 4, "{crashes} crash points");
}

/// Whole schedules that crash with a hole in a page file: a page written
/// back, and below it one allocated earlier that was still only in the
/// pool. Allocation writes nothing, so the file skips that page; recovery
/// must fill it from the log or cut it (a heap), or drop the file (a
/// tree).
#[test]
fn crashes_with_a_hole() {
    for (seed, model) in [(33, ProcessKill), (27, PowerLoss)] {
        let outcome = run(&Schedule::new(seed, model, 10)).unwrap();
        assert!(
            outcome.crashes_with_a_hole > 0,
            "seed {seed}: {:#?}",
            outcome.log
        );
    }
}

/// Whole schedules: a store that does not sync, killed (everything
/// written survives); and the power-loss seed that found a page file
/// whose last page a crash had torn, which the store could not open.
#[test]
fn seeded_schedules() {
    run(&Schedule::new(1001, ProcessKill, 10)).unwrap();
    run(&Schedule::new(20, PowerLoss, 10)).unwrap();
}
