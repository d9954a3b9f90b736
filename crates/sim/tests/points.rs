//! The aimed schedules, under both crash models.

use sim::points::{first_rows_behind_a_seal, group_commit_steps, seal_steps, unlogged_tree};
use sim::CrashModel::{PowerLoss, ProcessKill};

#[test]
fn a_tree_page_evicted_after_a_checkpoint_marks_the_log_first() {
    for seed in 0..4 {
        for model in [PowerLoss, ProcessKill] {
            unlogged_tree(seed, model).unwrap_or_else(|e| panic!("seed {seed}, {model:?}: {e}"));
        }
    }
}

#[test]
fn a_crash_at_every_step_of_a_seal_recovers_after_power_loss() {
    let crashes = seal_steps(11, PowerLoss, &[150, 60]).unwrap_or_else(|e| panic!("{e}"));
    assert!(crashes >= 80, "{crashes} crash points");
}

#[test]
fn a_crash_at_every_step_of_a_seal_recovers_after_a_kill() {
    let crashes = seal_steps(13, ProcessKill, &[150, 60]).unwrap_or_else(|e| panic!("{e}"));
    assert!(crashes >= 80, "{crashes} crash points");
}

#[test]
fn a_crash_at_every_step_of_the_first_rows_behind_a_seal_recovers() {
    for (seed, fill) in [(15, 60), (16, 120)] {
        for model in [PowerLoss, ProcessKill] {
            let crashes = first_rows_behind_a_seal(seed, model, fill)
                .unwrap_or_else(|e| panic!("seed {seed}, {model:?}: {e}"));
            assert!(crashes >= 30, "{crashes} crash points");
        }
    }
}

#[test]
fn a_crash_inside_a_group_commit_recovers() {
    for model in [PowerLoss, ProcessKill] {
        let crashes = group_commit_steps(12, model).unwrap_or_else(|e| panic!("{e}"));
        assert!(crashes >= 4, "{crashes} crash points");
    }
}
