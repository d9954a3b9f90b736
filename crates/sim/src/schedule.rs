//! The schedule runner: one seeded loop of ingest, checkpoints,
//! compactions, queries and crashes over a [`SimVfs`], checked after every
//! step.
//!
//! A [`Schedule`] fixes the seed, the [`CrashModel`] and a fault rate; the
//! seed draws the series, the store's configuration and every step. A
//! step may be armed to crash *inside* itself ([`SimVfs::halt_after`]); a
//! step that fails — armed, or hit by an injected fault — takes the
//! process down with it, and the store is reopened from what the crash
//! kept. After every step the store must pass
//! [`segdiff::oracle::check_prefix`] on regions drawn on the `Δv`s of its
//! boundary corners, and its segments must be a prefix of the input's:
//! everything known durable is there (no hole), and nothing is there that
//! ingest never stored (no superset).
//!
//! A failure names the seed and prints the schedule that led to it.

use crate::fs::{CrashModel, Fault, Op, SimVfs};
use featurespace::QueryRegion;
use pagestore::Vfs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use segdiff::oracle::check_prefix;
use segdiff::{FeatureExtractor, QueryPlan, SegDiffConfig, SegDiffIndex};
use segmentation::Segment;
use sensorgen::{TimeSeries, HOUR};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where every simulated store lives.
pub const STORE: &str = "/sim/store";

/// One seeded schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Draws the series, the configuration, the steps and every crash.
    pub seed: u64,
    /// What a crash keeps; a store under [`CrashModel::ProcessKill`] does
    /// not sync, as `SEGDIFF_SYNC=0` runs it.
    pub model: CrashModel,
    /// Probability that any one call fails (`EIO`, `ENOSPC` or short).
    pub fault_rate: f64,
    /// Steps after the store is created.
    pub steps: usize,
}

impl Schedule {
    /// A schedule of `steps` steps with crashes and no injected faults.
    pub fn new(seed: u64, model: CrashModel, steps: usize) -> Schedule {
        Schedule {
            seed,
            model,
            fault_rate: 0.0,
            steps,
        }
    }
}

/// A step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Push the next `n` samples (every closed segment commits).
    Push(usize),
    /// [`pagestore::Database::checkpoint`].
    Checkpoint,
    /// [`SegDiffIndex::compact_storage`].
    Compact,
    /// Queries on both plans, beside the check every step ends with.
    Query,
    /// The machine crashes between steps.
    Crash,
}

/// What a schedule that passed did.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The schedule, a line a step.
    pub log: Vec<String>,
    /// Crashes, between steps and inside them.
    pub crashes: usize,
    /// Steps a crash or a fault cut short.
    pub cut_short: usize,
    /// Crashes that met a page file with a hole: a page written back
    /// while one allocated before it was still only in the pool.
    pub crashes_with_a_hole: usize,
    /// Segments the store ended with.
    pub segments: usize,
}

/// Runs `schedule`; on a violation, the error names the seed and the
/// schedule so far.
pub fn run(schedule: &Schedule) -> Result<Outcome, String> {
    let mut sim = Sim::create(schedule)?;
    for i in 0..schedule.steps {
        let step = sim.draw();
        sim.step(i, step).map_err(|e| sim.failure(&e))?;
    }
    sim.outcome.segments = sim.seen.len();
    Ok(sim.outcome)
}

/// A store in a [`SimVfs`], the series it ingests, and what the runner
/// knows of it.
pub struct Sim {
    /// The file system the store lives in.
    pub fs: SimVfs,
    model: CrashModel,
    fault_rate: f64,
    seed: u64,
    rng: StdRng,
    series: TimeSeries,
    pool_pages: usize,
    idx: Option<SegDiffIndex>,
    /// The next sample to push.
    next: usize,
    /// Segments every crash from here on must keep.
    durable: Vec<Segment>,
    /// The segments after the last step that finished.
    seen: Vec<Segment>,
    outcome: Outcome,
}

impl Sim {
    /// A fresh store of `schedule`'s seed — the seed draws the
    /// configuration too — its eight trees built. Faults are injected into
    /// steps and first reopens only, never into the runner's own reads.
    pub fn create(schedule: &Schedule) -> Result<Sim, String> {
        let mut rng = StdRng::seed_from_u64(schedule.seed);
        let config = SegDiffConfig::default()
            .with_pool_pages([16, 48, 256][rng.random_range(0..3usize)])
            .with_group_commit([1, 1, 3, 8][rng.random_range(0..4usize)])
            .with_checkpoint_wal_bytes([64 << 10, 1 << 20][rng.random_range(0..2usize)]);
        Sim::with_config(schedule, config)
    }

    /// [`Sim::create`] with the configuration given (its `sync` is the
    /// crash model's).
    pub fn with_config(schedule: &Schedule, config: SegDiffConfig) -> Result<Sim, String> {
        let mut rng = StdRng::seed_from_u64(schedule.seed ^ 0xC0FF_EE00);
        let mut series = TimeSeries::new();
        let mut v = 10.0;
        for i in 0..rng.random_range(180..300usize) {
            v += rng.random_range(-1.2..1.2);
            series.push(i as f64 * 300.0, v);
        }
        let config = config.with_sync(schedule.model == CrashModel::PowerLoss);
        let fs = SimVfs::new(schedule.seed ^ 0x5EED);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let idx = SegDiffIndex::create_in(vfs, Path::new(STORE), config.clone())
            .map_err(|e| format!("seed {}: create: {e}", schedule.seed))?;
        idx.build_indexes()
            .map_err(|e| format!("seed {}: build_indexes: {e}", schedule.seed))?;
        Ok(Sim {
            fs,
            model: schedule.model,
            fault_rate: schedule.fault_rate,
            seed: schedule.seed,
            rng,
            series,
            pool_pages: config.pool_pages,
            idx: Some(idx),
            next: 0,
            durable: Vec::new(),
            seen: Vec::new(),
            outcome: Outcome::default(),
        })
    }

    fn inject(&self) {
        self.fs
            .inject(self.fault_rate, &[Fault::Eio, Fault::Enospc, Fault::Short]);
    }

    /// The store (between steps there always is one).
    pub fn index(&self) -> &SegDiffIndex {
        self.idx.as_ref().expect("a store between steps")
    }

    /// An independent copy: the file system forked as it stands, the
    /// store reopened in the copy, and what the runner knows of it.
    pub fn fork(&self) -> Result<Sim, String> {
        let fs = self.fs.fork();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let idx = SegDiffIndex::open_in(vfs, Path::new(STORE), self.pool_pages)
            .map_err(|e| format!("reopen a fork: {e}"))?;
        Ok(Sim {
            fs,
            model: self.model,
            fault_rate: self.fault_rate,
            seed: self.seed,
            rng: self.rng.clone(),
            series: self.series.clone(),
            pool_pages: self.pool_pages,
            idx: Some(idx),
            next: self.next,
            durable: self.durable.clone(),
            seen: self.seen.clone(),
            outcome: Outcome::default(),
        })
    }

    /// Takes `step` on a fork, tracing it, and returns the changing calls
    /// it made: the points a crash can land between.
    pub fn trace(&self, step: Step) -> Result<Vec<(Op, PathBuf)>, String> {
        let mut probe = self.fork()?;
        probe.fs.trace();
        probe.take(step).map_err(|e| e.to_string())?;
        Ok(probe.fs.trace())
    }

    /// Crashes `step` at each of `points` (changing calls let through
    /// first), each time on a fresh fork, reopening and checking the store
    /// after; returns what each fork did. Fork `i` draws from a generator
    /// of its own, seeded from this runner's state and `i`, so two points
    /// (or one point aimed twice) crash with different seeds.
    pub fn crash_at(&self, step: Step, points: &[u64]) -> Result<Vec<Outcome>, String> {
        let base: u64 = self.rng.clone().random();
        let mut outcomes = Vec::with_capacity(points.len());
        for (i, &k) in points.iter().enumerate() {
            let mut run = self.fork()?;
            run.rng = StdRng::seed_from_u64(base.wrapping_add(i as u64));
            run.arm(i, step, Some(k)).map_err(|e| run.failure(&e))?;
            outcomes.push(run.outcome);
        }
        Ok(outcomes)
    }

    fn draw(&mut self) -> Step {
        match self.rng.random_range(0..20u32) {
            0..=8 => Step::Push(self.rng.random_range(8..90)),
            9..=10 => Step::Checkpoint,
            11..=12 => Step::Compact,
            13..=15 => Step::Query,
            _ => Step::Crash,
        }
    }

    /// Takes `step` (the `i`-th), arming it to crash inside itself now and
    /// then, and checks the store after it.
    pub fn step(&mut self, i: usize, step: Step) -> Result<(), String> {
        let armed = (step != Step::Crash && self.rng.random_range(0..4u32) == 0)
            .then(|| self.rng.random_range(0..240u64));
        self.arm(i, step, armed)
    }

    /// Takes `step`, crashing after `armed` more changing calls if set,
    /// and checks the store after it.
    pub fn arm(&mut self, i: usize, step: Step, armed: Option<u64>) -> Result<(), String> {
        let line = match armed {
            Some(k) => format!("step {i}: {step:?}, crash after {k} changes"),
            None => format!("step {i}: {step:?}"),
        };
        self.outcome.log.push(line);
        if let Some(k) = armed {
            self.fs.halt_after(k);
        }
        self.inject();
        let done = self.take(step);
        self.fs.inject(0.0, &[]);
        let halted = self.fs.halted();
        self.fs.disarm();
        match (done, step) {
            (Err(e), Step::Query) if !halted => self.note(format!("  query failed: {e}")),
            (Ok(()), Step::Crash) => self.crash()?,
            (Ok(()), _) if !halted => self.finished(step)?,
            (done, _) => {
                let why = done
                    .err()
                    .map_or("the crash".to_string(), |e| e.to_string());
                self.note(format!("  cut short: {why}"));
                self.outcome.cut_short += 1;
                self.crash()?;
            }
        }
        self.check()
    }

    fn note(&mut self, line: String) {
        self.outcome.log.push(line);
    }

    fn take(&mut self, step: Step) -> pagestore::Result<()> {
        let Some(idx) = self.idx.as_mut() else {
            return Ok(());
        };
        match step {
            Step::Push(n) => {
                let end = (self.next + n).min(self.series.len());
                for k in self.next..end {
                    let (t, v) = (self.series.times()[k], self.series.values()[k]);
                    self.next = k + 1;
                    idx.push(t, v)?;
                }
                Ok(())
            }
            Step::Checkpoint => idx.database().checkpoint(),
            Step::Compact => idx.compact_storage().map(|_| ()),
            Step::Query => {
                let region = QueryRegion::drop(HOUR, -1.0);
                idx.query(&region, QueryPlan::SeqScan)?;
                idx.query(&region, QueryPlan::Index).map(|_| ())
            }
            Step::Crash => Ok(()),
        }
    }

    /// A step that finished: what it stored is seen, and — after a
    /// checkpoint, or a push whose every commit is immediate — durable.
    fn finished(&mut self, step: Step) -> Result<(), String> {
        self.seen = self.index().segments().map_err(|e| e.to_string())?;
        let synced = match step {
            Step::Checkpoint | Step::Compact => true,
            // A reopened store runs with the default options, whatever
            // it was created with.
            Step::Push(_) => self.index().database().durability().group_commit == 1,
            Step::Query | Step::Crash => false,
        };
        if synced {
            self.durable = self.seen.clone();
        }
        Ok(())
    }

    /// The machine crashes; the store is reopened from what it kept. A
    /// reopen an injected fault fails is a crash of its own, and the next
    /// one runs with no fault injected.
    pub fn crash(&mut self) -> Result<(), String> {
        self.idx = None;
        let seed = self.rng.random();
        let holes: Vec<PathBuf> = (self.fs.holes().into_iter())
            .filter(|file| {
                file.extension()
                    .is_some_and(|ext| ext == "tbl" || ext == "idx")
            })
            .collect();
        self.fs.crash(seed, self.model);
        self.outcome.crashes += 1;
        self.note(format!("  crash {seed:#x}, {:?}", self.model));
        if !holes.is_empty() {
            self.outcome.crashes_with_a_hole += 1;
            self.note(format!("  with a hole in {holes:?}"));
        }
        let vfs: Arc<dyn Vfs> = Arc::new(self.fs.clone());
        self.inject();
        let opened = SegDiffIndex::open_in(Arc::clone(&vfs), Path::new(STORE), self.pool_pages);
        self.fs.inject(0.0, &[]);
        let idx = match opened {
            Ok(idx) => idx,
            Err(e) if self.fault_rate > 0.0 => {
                self.note(format!("  reopen failed: {e}; crash and reopen unfaulted"));
                self.fs.crash(seed ^ 1, self.model);
                let idx = SegDiffIndex::open_in(vfs, Path::new(STORE), self.pool_pages);
                idx.map_err(|e| format!("reopen failed with no fault injected: {e}"))?
            }
            Err(e) => return Err(format!("reopen failed: {e}")),
        };
        let recovered = idx.segments().map_err(|e| e.to_string())?;
        let report = idx.recovery_report().map(|r| {
            let (records, torn, replayed) = (r.scanned_records, r.torn_bytes, r.replayed_pages);
            format!(
                "clean {}, {records} records, {torn} torn bytes, {replayed} pages replayed",
                r.clean
            )
        });
        self.note(format!(
            "  recovered {} segments ({})",
            recovered.len(),
            report.unwrap_or_default()
        ));
        let prefix = |a: &[Segment], b: &[Segment]| a.len() <= b.len() && a == &b[..a.len()];
        if !prefix(&self.durable, &recovered) {
            return Err(format!(
                "a hole: {} segments were durable, the store kept {}",
                self.durable.len(),
                recovered.len()
            ));
        }
        if !prefix(&recovered, &self.seen) && !prefix(&self.seen, &recovered) {
            return Err(format!(
                "not a prefix: the store kept {} segments that part from the {} it held",
                recovered.len(),
                self.seen.len()
            ));
        }
        self.next = match recovered.last() {
            Some(last) => self.series.times().partition_point(|&t| t <= last.t_end),
            None => 0,
        };

        (self.durable, self.seen) = (recovered.clone(), recovered);
        self.idx = Some(idx);
        Ok(())
    }

    /// Holds the store to [`check_prefix`], with no fault injected.
    pub fn check(&mut self) -> Result<(), String> {
        let regions = self.regions()?;
        check_prefix(self.index(), &self.series, &regions).map(|_| ())
    }

    /// A drop or a jump of the kind the paper searches, and regions drawn
    /// on a boundary corner the store holds, stored or generated — its
    /// corners recomputed by replaying the stored segments through
    /// extraction: `T` on its `Δt`, `V` on its `Δv` and on an `f64` ulp
    /// outside it.
    fn regions(&mut self) -> Result<Vec<QueryRegion>, String> {
        let fixed = [
            QueryRegion::drop(HOUR, -2.5),
            QueryRegion::jump(2.0 * HOUR, 3.0),
        ];
        let mut regions = vec![fixed[self.rng.random_range(0..2usize)]];
        let idx = self.index();
        let (config, segments) = (idx.config(), idx.segments().map_err(|e| e.to_string())?);
        let mut replay = FeatureExtractor::new(config.epsilon, config.window);
        let mut rows = Vec::new();
        for seg in segments {
            replay.push_segment(seg, &mut rows);
        }
        let corners: Vec<_> = rows
            .iter()
            .flat_map(|row| {
                row.boundary
                    .corners()
                    .iter()
                    .map(|p| (row.kind, p.dt, p.dv))
            })
            .collect();
        let window = config.window;
        if !corners.is_empty() {
            let (kind, t, on) = corners[self.rng.random_range(0..corners.len())];
            // One ulp further from zero: deeper than the corner for a drop,
            // higher for a jump.
            let away = f64::from_bits(on.to_bits() + 1);
            for v in [on, away] {
                let region = QueryRegion::new(kind, t, v).ok();
                regions.extend(region.filter(|r| r.t <= window));
            }
        }
        Ok(regions)
    }

    fn failure(&self, error: &str) -> String {
        format!(
            "seed {} ({:?}, fault rate {}): {error}\nschedule:\n{}",
            self.seed,
            self.model,
            self.fault_rate,
            self.outcome.log.join("\n")
        )
    }
}
