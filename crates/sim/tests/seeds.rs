//! The seeded schedules: every seed of a range, under both crash models,
//! with and without injected faults. A failure prints its seed and its
//! schedule; a seed is never dropped from the range to make it pass.

use sim::{run, CrashModel, Schedule};

const STEPS: usize = 8;

fn seeds(range: std::ops::Range<u64>, model: CrashModel, fault_rate: f64) -> (usize, usize) {
    let (mut crashes, mut cut_short) = (0, 0);
    for seed in range {
        let schedule = Schedule {
            fault_rate,
            ..Schedule::new(seed, model, STEPS)
        };
        let outcome = run(&schedule).unwrap_or_else(|failure| panic!("{failure}"));
        crashes += outcome.crashes;
        cut_short += outcome.cut_short;
    }
    (crashes, cut_short)
}

#[test]
fn power_loss_schedules() {
    let (crashes, cut_short) = seeds(0..60, CrashModel::PowerLoss, 0.0);
    assert!(
        crashes >= 60 && cut_short >= 20,
        "{crashes} crashes, {cut_short} cut short"
    );
}

#[test]
fn process_kill_schedules() {
    let (crashes, cut_short) = seeds(1000..1060, CrashModel::ProcessKill, 0.0);
    assert!(
        crashes >= 60 && cut_short >= 20,
        "{crashes} crashes, {cut_short} cut short"
    );
}

#[test]
fn power_loss_schedules_under_faults() {
    let (_, cut_short) = seeds(2000..2040, CrashModel::PowerLoss, 0.002);
    assert!(cut_short >= 20, "{cut_short} cut short");
}

#[test]
fn process_kill_schedules_under_faults() {
    let (_, cut_short) = seeds(3000..3040, CrashModel::ProcessKill, 0.002);
    assert!(cut_short >= 20, "{cut_short} cut short");
}
