//! The generated input every workload shares, and the bulk-load set-up.
//!
//! 8 sensors × `DAYS` days at 5-minute sampling from
//! `sensorgen::generate_sensor`, smoothed with `RobustSmoother::default()`;
//! ε = 0.2, w = 8 h. The engine only ever sees these generated series and
//! the regions built from fixed grids. The series come from the fixed
//! `CORPUS_SEED`; `--seed` orders every op list and nothing else, so what
//! a run stores and answers is the same for every seed.

use crate::harness::{median_time, typical, Clock, OpTime};
use crate::Ctx;
use featurespace::QueryRegion;
use segdiff::{QueryPlan, SegDiffConfig, TransectIndex};
use sensorgen::{
    generate_sensor, smooth::RobustSmoother, CadTransectConfig, TimeSeries, DAY, HOUR,
};
use std::path::{Path, PathBuf};

pub const SENSORS: u32 = 8;
pub const DAYS: u32 = 30;
/// The seed of every sensor's series, whatever `--seed` is: series drawn
/// afresh per run differ by 3.4 % in stored bytes and 12 % in query rate
/// from one seed to the next, which a comparison of two commits' runs
/// would have to treat as the benchmark's own noise.
pub const CORPUS_SEED: u64 = 20_080_325;
pub const EPSILON: f64 = 0.2;
pub const WINDOW_HOURS: f64 = 8.0;
/// Bulk loads append one sensor's `BULK_BATCH_HOURS` at a time.
pub const BULK_BATCH_HOURS: f64 = 4.0;
/// How often each repeated set-up step runs; its median is what counts.
pub const SETUP_REPS: usize = 3;
/// Pool for the resident corpus, per sensor: far above its ~2,000 pages.
pub const RESIDENT_POOL_PAGES: usize = 8192;

/// Deterministic generator for everything the benchmark derives from
/// `--seed` besides the series themselves (op order, request skew).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xB5AD_4ECE_DA1C_E2A9)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The smoothed series plus what generating them cost.
pub struct Corpus {
    pub series: Vec<TimeSeries>,
    pub n_samples: u64,
    pub generate: OpTime,
    pub smooth: OpTime,
}

impl Corpus {
    /// Generates and smooths the input `SETUP_REPS` times (it is cheap) so
    /// its share of `setup_s` is a median, not one draw.
    pub fn generate(clock: &mut Clock) -> Corpus {
        let cfg = CadTransectConfig::default()
            .with_days(DAYS)
            .with_sensors(SENSORS);
        let smoother = RobustSmoother::default();
        let mut gen_times = Vec::new();
        let mut smooth_times = Vec::new();
        let mut series = Vec::new();
        for _ in 0..SETUP_REPS {
            let (t, raw) = clock.bracket(|| {
                (0..SENSORS)
                    .map(|s| generate_sensor(&cfg, s, CORPUS_SEED))
                    .collect::<Vec<_>>()
            });
            gen_times.push(t);
            let (t, smoothed) =
                clock.bracket(|| raw.iter().map(|r| smoother.smooth(r)).collect::<Vec<_>>());
            smooth_times.push(t);
            series = smoothed;
        }
        let n_samples = series.iter().map(|s| s.len() as u64).sum();
        Corpus {
            series,
            n_samples,
            generate: median_time(&gen_times),
            smooth: median_time(&smooth_times),
        }
    }

    /// Each sensor's series cut into consecutive windows of `hours`.
    pub fn batches(&self, hours: f64) -> Vec<Vec<TimeSeries>> {
        let n = (DAYS as f64 * DAY / (hours * HOUR)).round() as usize;
        self.series
            .iter()
            .map(|s| {
                (0..n)
                    .map(|b| {
                        let t0 = b as f64 * hours * HOUR;
                        // sub_range is inclusive at both ends; samples sit
                        // on 300 s marks, so stop just short of the next
                        // window's first mark.
                        s.sub_range(t0, t0 + hours * HOUR - 1.0)
                    })
                    .collect()
            })
            .collect()
    }
}

/// The engine configuration shared by every store in the benchmark, with
/// the flush policy stated in code: never fsync.
pub fn base_config() -> SegDiffConfig {
    SegDiffConfig::default()
        .with_epsilon(EPSILON)
        .with_window(WINDOW_HOURS * HOUR)
        .with_sync(false)
}

/// What the repeated bulk load measured. `T` is what the workload made
/// of the last build.
pub struct BulkLoad<T> {
    pub last: T,
    pub root: PathBuf,
    /// Per-batch median over the builds of `ingest_series`.
    pub batches: Vec<OpTime>,
    pub build_indexes: OpTime,
    /// Σ typical batch + finish + build_indexes: the bulk load's share of
    /// `setup_s`.
    pub total: OpTime,
}

/// Bulk-loads the corpus `SETUP_REPS` times into fresh stores under
/// `ctx.tmp` (WAL off; `ingest_series` one `BULK_BATCH_HOURS` batch of one
/// sensor at a time; then `finish_all` and `build_indexes_all`, so the
/// B+trees are built once at the end). Every build is handed to
/// `rest_of_setup`, which runs the workload's remaining set-up steps on it,
/// so those are repeated and report medians too. What it makes of the last
/// build is returned; the earlier ones are dropped and their stores deleted.
pub fn bulk_load<T>(
    ctx: &mut Ctx,
    corpus: &Corpus,
    mut rest_of_setup: impl FnMut(&mut Ctx, TransectIndex, &Path) -> T,
) -> BulkLoad<T> {
    let batches = corpus.batches(BULK_BATCH_HOURS);
    let flat: Vec<(u32, &TimeSeries)> = batches
        .iter()
        .enumerate()
        .flat_map(|(k, per_sensor)| per_sensor.iter().map(move |b| (k as u32, b)))
        .collect();
    // ~60 µs per batch: 64 of them make a ~4 ms slice.
    let costs = vec![1u32; flat.len()];
    let config = base_config()
        .with_durable(false)
        .with_pool_pages(RESIDENT_POOL_PAGES * SENSORS as usize);
    let mut passes = Vec::new();
    let mut finishes = Vec::new();
    let mut builds = Vec::new();
    let mut kept: Option<(T, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((old, old_root)) = kept.take() {
            drop(old);
            std::fs::remove_dir_all(old_root).ok();
        }
        let root = ctx.tmp.join(format!("bulk-{rep}"));
        let mut transect =
            TransectIndex::create(&root, config.clone(), SENSORS).expect("create transect");
        passes.push(ctx.clock.pass(&costs, |i| {
            let (sensor, batch) = flat[i];
            transect.ingest_series(sensor, batch).expect("bulk ingest");
        }));
        ctx.gate.attempted += flat.len() as u64;
        finishes.push(
            ctx.clock
                .bracket(|| transect.finish_all().expect("finish"))
                .0,
        );
        builds.push(
            ctx.clock
                .bracket(|| transect.build_indexes_all().expect("build indexes"))
                .0,
        );
        kept = Some((rest_of_setup(ctx, transect, &root), root));
    }
    let (last, root) = kept.expect("SETUP_REPS >= 1");
    let batches = typical(&passes);
    let finish = median_time(&finishes);
    let build_indexes = median_time(&builds);
    let total = batches
        .iter()
        .fold(finish + build_indexes, |acc, t| acc + *t);
    BulkLoad {
        last,
        root,
        batches,
        build_indexes,
        total,
    }
}

/// The 64 search regions of the query workloads: the paper's Table-4
/// style `(V, T)` grid — T ∈ {0.5, 1, 2, 4, 8} h × eight drop depths and
/// four jump heights — plus four regions nothing can satisfy, which the
/// zone hierarchy should answer without touching a page.
pub fn region_grid() -> Vec<QueryRegion> {
    let mut regions = Vec::with_capacity(64);
    for t in [0.5, 1.0, 2.0, 4.0, 8.0] {
        for v in [-1.0, -1.5, -2.0, -3.0, -4.0, -5.0, -6.0, -8.0] {
            regions.push(QueryRegion::drop(t * HOUR, v));
        }
        for v in [1.0, 2.0, 3.0, 4.0] {
            regions.push(QueryRegion::jump(t * HOUR, v));
        }
    }
    regions.push(QueryRegion::drop(1.0 * HOUR, -30.0));
    regions.push(QueryRegion::drop(8.0 * HOUR, -30.0));
    regions.push(QueryRegion::jump(1.0 * HOUR, 30.0));
    regions.push(QueryRegion::jump(4.0 * HOUR, 25.0));
    regions
}

/// One op of the query workloads.
#[derive(Clone, Copy)]
pub struct QueryOp {
    /// `None` fans out over all sensors (one thread).
    pub sensor: Option<u32>,
    pub region: usize,
    pub plan: QueryPlan,
}

/// 8 sensors × 64 regions × 2 plans single-sensor queries plus 64 × 2
/// fan-out queries, in seed-shuffled order: 1,152 ops.
pub fn query_ops(seed: u64) -> Vec<QueryOp> {
    let mut ops = Vec::with_capacity(1152);
    for region in 0..region_grid().len() {
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            for sensor in 0..SENSORS {
                ops.push(QueryOp {
                    sensor: Some(sensor),
                    region,
                    plan,
                });
            }
            ops.push(QueryOp {
                sensor: None,
                region,
                plan,
            });
        }
    }
    Rng::new(seed).shuffle(&mut ops);
    ops
}
