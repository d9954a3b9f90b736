//! `ingest_live`: the online write path, with reads beside it.
//!
//! Eight `SegDiffIndex`es are created empty with `build_indexes()` called
//! up front, so every feature-row insert maintains its table's 1, 3 or 5
//! B+trees incrementally; a `SubscriptionRegistry` with 200 standing
//! regions is attached; samples are pushed time-major, one
//! `LIVE_BATCH_MINUTES` window of all sensors per batch, through `push`
//! (WAL on, `group_commit = 32`, `checkpoint_wal_bytes = 16 MiB`, never
//! fsynced). After every simulated day `QUERIES_PER_DAY` uncached
//! index-plan queries read the store being written. Each pass is a fresh
//! build. This is the only workload where segmentation, Algorithm 1, heap
//! append, incremental B+tree insert, WAL commit/checkpoint and
//! subscription matching do most of the work.

use crate::corpus::{base_config, region_grid, Corpus, Rng, DAYS, EPSILON, SENSORS, WINDOW_HOURS};
use crate::harness::{dir_bytes, median, median_time, passes_for, typical, OpTime};
use crate::report::{EndToEnd, Fingerprint};
use crate::Ctx;
use featurespace::{Boundary, QueryRegion, SearchKind};
use featurespace::{RegionIndex, RegionMatchStats};
use pagestore::{Database, DurabilityOptions, Table, TableSpec};
use segdiff::{FeatureExtractor, FeatureRow, QueryPlan, SegDiffIndex, SubscriptionRegistry};
use segmentation::SlidingWindowSegmenter;
use sensorgen::{DAY, HOUR, MINUTE};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const LIVE_BATCH_MINUTES: f64 = 30.0;
pub const QUERIES_PER_DAY: usize = 40;
pub const STANDING_REGIONS: usize = 200;
const POOL_PAGES: usize = 8192;
const GROUP_COMMIT: u64 = 32;
const CHECKPOINT_WAL_BYTES: u64 = 16 << 20;
/// Slice costs (a slice closes at 64): about six ~1 ms batches, or sixteen
/// ~0.3 ms queries.
const COST_BATCH: u32 = 11;
const COST_QUERY: u32 = 4;
const MIN_BUILDS: usize = 5;
const TRACE_BUILDS: usize = 3;
/// How far the decomposed pipeline's WAL bytes may be from the real
/// index's (measured: 1.6 %). They differ by the length of the commit blob
/// and by the real index's flushes in `create`, `build_indexes` and
/// `finish`.
const WAL_BYTES_TOLERANCE: f64 = 0.05;

#[derive(Clone, Copy)]
enum Op {
    /// Push every sensor's samples of window `b`.
    Batch(usize),
    Query {
        sensor: u32,
        region: usize,
    },
}

/// `ranges[b][k]`: the index range of sensor `k`'s samples in window `b`.
struct Schedule {
    ops: Vec<Op>,
    ranges: Vec<Vec<(usize, usize)>>,
}

fn schedule(corpus: &Corpus, seed: u64) -> Schedule {
    let window = LIVE_BATCH_MINUTES * MINUTE;
    let n_batches = (DAYS as f64 * DAY / window).round() as usize;
    let per_day = (DAY / window).round() as usize;
    let ranges: Vec<Vec<(usize, usize)>> = (0..n_batches)
        .map(|b| {
            let (t0, t1) = (b as f64 * window, (b + 1) as f64 * window);
            corpus
                .series
                .iter()
                .map(|s| {
                    let ts = s.times();
                    (
                        ts.partition_point(|&t| t < t0),
                        ts.partition_point(|&t| t < t1),
                    )
                })
                .collect()
        })
        .collect();
    // Which queries follow which day is fixed (sensors and regions
    // rotate); the seed only orders the queries of a day.
    let n_regions = region_grid().len();
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut asked = 0;
    for b in 0..n_batches {
        ops.push(Op::Batch(b));
        if (b + 1) % per_day == 0 {
            let mut day: Vec<Op> = (0..QUERIES_PER_DAY)
                .map(|q| Op::Query {
                    sensor: (q as u32) % SENSORS,
                    region: (asked + q) * 7 % n_regions,
                })
                .collect();
            asked += QUERIES_PER_DAY;
            rng.shuffle(&mut day);
            ops.extend(day);
        }
    }
    Schedule { ops, ranges }
}

/// The 200 standing regions: a fixed lattice over the same `(V, T)` space
/// the searches use, half drops and half jumps.
fn standing_regions() -> Vec<QueryRegion> {
    (0..STANDING_REGIONS)
        .map(|i| {
            let t = [0.5, 1.0, 2.0, 4.0, 8.0][i % 5] * HOUR;
            let v = 1.0 + (i / 10) as f64 * 0.35;
            if (i / 5) % 2 == 0 {
                QueryRegion::drop(t, -v)
            } else {
                QueryRegion::jump(t, v)
            }
        })
        .collect()
}

fn registry() -> Arc<SubscriptionRegistry> {
    let registry = Arc::new(SubscriptionRegistry::new());
    for (i, region) in standing_regions().into_iter().enumerate() {
        registry.subscribe(&format!("standing-{i}"), region, &[], 0);
    }
    registry
}

fn sensor_dir(root: &Path, sensor: u32) -> PathBuf {
    root.join(format!("sensor-{sensor}"))
}

/// Creates the eight empty indexes of one build.
fn create_indexes(root: &Path) -> Vec<SegDiffIndex> {
    let config = base_config()
        .with_durable(true)
        .with_group_commit(GROUP_COMMIT)
        .with_checkpoint_wal_bytes(CHECKPOINT_WAL_BYTES)
        .with_pool_pages(POOL_PAGES);
    let registry = registry();
    (0..SENSORS)
        .map(|k| {
            let mut index =
                SegDiffIndex::create(&sensor_dir(root, k), config.clone()).expect("create index");
            index.build_indexes().expect("build_indexes up front");
            index.attach_subscriptions(Arc::clone(&registry), k);
            index
        })
        .collect()
}

/// What one fresh build measured.
struct Build {
    create: OpTime,
    ops: Vec<OpTime>,
    finish: OpTime,
    answers: Vec<Fingerprint>,
    segments: Vec<u64>,
    rows: Vec<u64>,
    notifications: u64,
    store_bytes: u64,
    /// Sensor 0's catalogue (every sensor has the same).
    layout: Vec<TableLayout>,
    /// Per sensor, over its feature tables.
    heap_bytes: Vec<u64>,
    index_bytes: Vec<u64>,
    /// WAL bytes the whole build appended.
    wal_bytes: u64,
}

/// One table of the real index's catalogue, read through `pagestore`'s
/// public accessors: what the decomposed pipeline re-creates on its scratch
/// databases, so it can never measure a layout the engine no longer has.
#[derive(Clone, PartialEq, Debug)]
struct TableLayout {
    name: String,
    columns: Vec<String>,
    /// `(B+tree name, its key columns)`.
    trees: Vec<(String, Vec<String>)>,
}

fn layout_of(db: &Database) -> Vec<TableLayout> {
    let mut names = db.table_names();
    names.sort();
    names
        .iter()
        .map(|name| {
            let table = db.table(name).expect("catalogued table");
            let columns = table.columns().to_vec();
            let trees = table
                .index_names()
                .into_iter()
                .map(|tree| {
                    let cols = table.index(&tree).expect("catalogued index");
                    let cols = cols.cols().iter().map(|&c| columns[c].clone()).collect();
                    (tree, cols)
                })
                .collect();
            TableLayout {
                name: name.clone(),
                columns,
                trees,
            }
        })
        .collect()
}

/// One fresh build under `root`. With `cross_check`, every query op is
/// re-run (untimed) on the sequential-scan plan and must agree, and the
/// finished build must pass the Theorem 1 sample.
fn build(
    ctx: &mut Ctx,
    corpus: &Corpus,
    plan: &Schedule,
    regions: &[QueryRegion],
    root: &Path,
    cross_check: bool,
) -> Build {
    let delivered = obs::global().counter("notify.delivered");
    let delivered_before = delivered.get();
    let wal_bytes = obs::global().counter("wal.bytes");
    let wal_bytes_before = wal_bytes.get();
    let (create, mut indexes) = ctx.clock.bracket(|| create_indexes(root));
    let costs: Vec<u32> = plan
        .ops
        .iter()
        .map(|op| match op {
            Op::Batch(_) => COST_BATCH,
            Op::Query { .. } => COST_QUERY,
        })
        .collect();
    let mut answers = vec![Fingerprint::default(); plan.ops.len()];
    let mut disagreements = Vec::new();
    let ops = {
        // The op pushes (`&mut`), the untimed check only reads.
        let indexes = RefCell::new(&mut indexes);
        let last = Cell::new(Vec::new());
        ctx.clock.pass_checked(
            &costs,
            |i| match plan.ops[i] {
                Op::Batch(b) => {
                    let mut indexes = indexes.borrow_mut();
                    for (k, &(lo, hi)) in plan.ranges[b].iter().enumerate() {
                        let series = &corpus.series[k];
                        for j in lo..hi {
                            let (t, v) = series.get(j);
                            indexes[k].push(t, v).expect("push");
                        }
                    }
                }
                Op::Query { sensor, region } => {
                    let (results, _) = indexes.borrow()[sensor as usize]
                        .query(&regions[region], QueryPlan::Index)
                        .expect("live query");
                    last.set(results);
                }
            },
            |i| {
                let Op::Query { sensor, region } = plan.ops[i] else {
                    return;
                };
                answers[i] = Fingerprint::of(&last.take());
                if cross_check {
                    let (scan, _) = indexes.borrow()[sensor as usize]
                        .query(&regions[region], QueryPlan::SeqScan)
                        .expect("live scan query");
                    if Fingerprint::of(&scan) != answers[i] {
                        disagreements
                            .push(format!("live query op {i}: index and scan plans disagree"));
                    }
                }
            },
        )
    };
    ctx.gate.attempted += plan.ops.len() as u64;
    if cross_check {
        let n_queries = plan
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Query { .. }))
            .count();
        ctx.gate.record(n_queries as u64, disagreements);
    }
    let (finish, ()) = ctx.clock.bracket(|| {
        for index in &mut indexes {
            index.finish().expect("finish");
        }
    });
    for (k, index) in indexes.iter().enumerate() {
        let verdict = index.verify_consistency();
        ctx.gate.check(verdict.is_ok(), || {
            format!("verify_consistency failed on sensor {k}: {verdict:?}")
        });
    }
    if cross_check {
        recall_gate(ctx, corpus, &indexes);
    }
    let stats: Vec<_> = indexes.iter().map(SegDiffIndex::stats).collect();
    let layout = layout_of(indexes[0].database());
    drop(indexes);
    Build {
        create,
        ops,
        finish,
        answers,
        segments: stats.iter().map(|s| s.n_segments).collect(),
        rows: stats.iter().map(|s| s.n_rows).collect(),
        notifications: delivered.get() - delivered_before,
        store_bytes: dir_bytes(root),
        layout,
        heap_bytes: stats.iter().map(|s| s.heap_bytes).collect(),
        index_bytes: stats.iter().map(|s| s.index_bytes).collect(),
        wal_bytes: wal_bytes.get() - wal_bytes_before,
    }
}

/// Theorem 1 on a fixed sample of searches over the finished build.
fn recall_gate(ctx: &mut Ctx, corpus: &Corpus, indexes: &[SegDiffIndex]) {
    let sample = [
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::jump(2.0 * HOUR, 3.0),
    ];
    for (k, index) in indexes.iter().enumerate() {
        for region in &sample {
            let (results, _) = index.query(region, QueryPlan::Index).expect("gate query");
            ctx.gate
                .check_recall(k, &corpus.series[k], region, &results);
        }
    }
}

pub fn run(ctx: &mut Ctx) -> EndToEnd {
    let corpus = Corpus::generate(&mut ctx.clock);
    let plan = schedule(&corpus, ctx.seed);
    let regions = region_grid();
    let root = ctx.tmp.join("live");

    // Warm-up build: the last set-up step. It also carries the plan
    // cross-check and sizes the number of timed builds.
    let warm_start = Instant::now();
    let warm = build(ctx, &corpus, &plan, &regions, &root, true);
    let warm_seconds = warm_start.elapsed().as_secs_f64();

    let n_builds = if ctx.trace {
        TRACE_BUILDS
    } else {
        passes_for(ctx.seconds, warm_seconds, MIN_BUILDS)
    };
    let counter = |name: &str| obs::global().counter(name).get();
    let (wal_bytes, checkpoints) = (counter("wal.bytes"), counter("wal.checkpoints"));
    let (tested, evaluated) = (
        counter("subscribe.regions_tested"),
        counter("subscribe.features_evaluated"),
    );
    let mut builds = Vec::with_capacity(n_builds);
    for _ in 0..n_builds {
        std::fs::remove_dir_all(&root).expect("remove previous build");
        let b = build(ctx, &corpus, &plan, &regions, &root, false);
        // A fresh build of the same input is the same build.
        let same = b.answers == warm.answers
            && b.segments == warm.segments
            && b.rows == warm.rows
            && b.notifications == warm.notifications;
        ctx.gate.check(same, || {
            "a timed build answered or counted differently from the warm-up build".to_string()
        });
        builds.push(b);
    }
    ctx.layers.set("harness.passes", n_builds as f64);
    let n = n_builds as f64;
    let per_build = |name: &str, before: u64| (counter(name) - before) as f64 / n;

    let op_times = typical(&builds.iter().map(|b| b.ops.clone()).collect::<Vec<_>>());
    let pick = |batch: bool| -> Vec<OpTime> {
        plan.ops
            .iter()
            .zip(&op_times)
            .filter(|(op, _)| matches!(op, Op::Batch(_)) == batch)
            .map(|(_, t)| *t)
            .collect()
    };
    let (batches, queries) = (pick(true), pick(false));
    let finish = median_time(&builds.iter().map(|b| b.finish).collect::<Vec<_>>());
    // Set-up ends with one whole warm-up build. Every timed build is such
    // a build again, so each of its steps counts with its median over all.
    let all = || builds.iter().chain([&warm]);
    let setup = corpus.generate
        + corpus.smooth
        + median_time(&all().map(|b| b.create).collect::<Vec<_>>())
        + typical(&all().map(|b| b.ops.clone()).collect::<Vec<_>>())
            .into_iter()
            .sum::<OpTime>()
        + median_time(&all().map(|b| b.finish).collect::<Vec<_>>());
    let store_bytes = builds.last().map_or(warm.store_bytes, |b| b.store_bytes);

    if ctx.trace {
        let samples = corpus.n_samples as f64;
        let segments: u64 = warm.segments.iter().sum();
        let rows: u64 = warm.rows.iter().sum();
        let wal_bytes_per_sample = per_build("wal.bytes", wal_bytes) / samples;
        let wal_checkpoints = per_build("wal.checkpoints", checkpoints);
        let tests_per_row = (counter("subscribe.regions_tested") - tested) as f64
            / (counter("subscribe.features_evaluated") - evaluated).max(1) as f64;
        let real_batch_ms: f64 = batches.iter().map(|t| t.raw_ms).sum();
        let l = &mut ctx.layers;
        l.set(
            "sensorgen.generate_ns_per_sample",
            corpus.generate.norm_ms * 1e6 / samples,
        );
        l.set(
            "sensorgen.smooth_ns_per_sample",
            corpus.smooth.norm_ms * 1e6 / samples,
        );
        l.set(
            "segmentation.samples_per_segment",
            samples / segments as f64,
        );
        l.set(
            "core.feature_rows_per_segment",
            rows as f64 / segments as f64,
        );
        l.set("core.notifications", warm.notifications as f64);
        l.set("core.subscribe_tests_per_row", tests_per_row);
        l.set("pagestore.wal_bytes_per_sample", wal_bytes_per_sample);
        l.set("pagestore.wal_checkpoints", wal_checkpoints);
        decomposed(ctx, &corpus, &plan, &warm, real_batch_ms);
        query_phase_layers(ctx, &corpus, &plan, &regions, &root);
    }

    std::fs::remove_dir_all(&root).ok();
    EndToEnd {
        setup,
        ingest_batches: batches,
        ingest_tail: finish,
        samples: corpus.n_samples,
        queries,
        store_bytes,
        peak_rss_mb: 0.0,
    }
}

/// The index-plan phase means of the live queries, from one more build
/// whose queries are traced (`core.index.*`, pool counters).
fn query_phase_layers(
    ctx: &mut Ctx,
    corpus: &Corpus,
    plan: &Schedule,
    regions: &[QueryRegion],
    root: &Path,
) {
    std::fs::remove_dir_all(root).ok();
    let mut indexes = create_indexes(root);
    let mut phase_s = [0.0f64; 4];
    let (mut n, mut rows, mut results) = (0u64, 0u64, 0u64);
    let mut io = pagestore::PoolStats::default();
    for (i, op) in plan.ops.iter().enumerate() {
        match *op {
            Op::Batch(b) => {
                for (k, &(lo, hi)) in plan.ranges[b].iter().enumerate() {
                    for j in lo..hi {
                        let (t, v) = corpus.series[k].get(j);
                        indexes[k].push(t, v).expect("push");
                    }
                }
            }
            Op::Query { sensor, region } => {
                ctx.tracer.begin_op("op.live_query", i);
                ctx.tracer.enter("core.query");
                let (_, stats) = indexes[sensor as usize]
                    .query(&regions[region], QueryPlan::Index)
                    .expect("live query");
                let call = ctx.tracer.exit();
                let parts = crate::query::phase_spans(QueryPlan::Index, &stats);
                ctx.tracer.reported_children(call, &parts);
                ctx.tracer.end_op();
                for (slot, p) in phase_s.iter_mut().zip(&stats.phases) {
                    *slot += p.wall_seconds;
                }
                n += 1;
                rows += stats.rows_considered;
                results += stats.results;
                io = io.merged(&stats.io);
            }
        }
    }
    drop(indexes);
    let scale = ctx.clock.run_scale();
    let unattributed = ctx.tracer.unattributed_ratio("op.live_query", "core.query");
    let l = &mut ctx.layers;
    let mean_ms = |phase: usize| phase_s[phase] * 1e3 * scale / n.max(1) as f64;
    l.set("core.index.probe_ms", mean_ms(1));
    l.set("core.index.fetch_ms", mean_ms(2));
    l.set("core.index.refine_ms", mean_ms(3));
    l.set(
        "core.index.rows_per_result",
        rows as f64 / results.max(1) as f64,
    );
    l.set("core.query_unattributed_ratio", unattributed);
    l.set(
        "pagestore.pool_hit_ratio",
        io.hits as f64 / (io.hits + io.misses).max(1) as f64,
    );
    l.set(
        "pagestore.pool_misses_per_query",
        io.misses as f64 / n.max(1) as f64,
    );
    l.set(
        "pagestore.pool_evictions_per_query",
        io.evictions as f64 / n.max(1) as f64,
    );
}

// ---------------------------------------------------------------------
// The decomposed pipeline (traced run only).
// ---------------------------------------------------------------------

/// The feature tables in the order [`Pipeline::insert_rows`] addresses
/// them; `segments` is the seventh table of the catalogue.
const FEATURE_TABLES: [&str; 6] = ["drop1", "drop2", "drop3", "jump1", "jump2", "jump3"];

/// One sensor's pipeline driven stage by stage on a scratch
/// `pagestore::Database` with the real index's tables, B+trees, WAL
/// settings and commit points.
struct Pipeline {
    db: Arc<Database>,
    segmenter: SlidingWindowSegmenter,
    extractor: FeatureExtractor,
    segments_table: Arc<Table>,
    /// In `FEATURE_TABLES` order.
    tables: Vec<Arc<Table>>,
    n_segments: u64,
    n_rows: u64,
}

impl Pipeline {
    /// Re-creates `layout` (the real index's catalogue) under `dir`, with
    /// or without its B+trees.
    fn create(dir: &Path, layout: &[TableLayout], with_trees: bool) -> Pipeline {
        let db = Database::create_with(
            dir,
            POOL_PAGES,
            DurabilityOptions {
                wal: true,
                sync: false,
                group_commit: GROUP_COMMIT,
                checkpoint_wal_bytes: CHECKPOINT_WAL_BYTES,
            },
        )
        .expect("scratch database");
        for table in layout {
            let columns: Vec<&str> = table.columns.iter().map(String::as_str).collect();
            db.create_table(TableSpec::new(&table.name, &columns))
                .expect("scratch table");
            for (tree, cols) in table.trees.iter().filter(|_| with_trees) {
                let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                db.create_index(&table.name, tree, &cols)
                    .expect("scratch B+tree");
            }
        }
        let table = |name: &str| db.table(name).expect("table of the real catalogue");
        Pipeline {
            segments_table: table("segments"),
            tables: FEATURE_TABLES.iter().map(|name| table(name)).collect(),
            db,
            segmenter: SlidingWindowSegmenter::new(EPSILON),
            extractor: FeatureExtractor::new(EPSILON, WINDOW_HOURS * HOUR),
            n_segments: 0,
            n_rows: 0,
        }
    }

    fn insert_rows(
        &mut self,
        seg: &segmentation::Segment,
        rows: &[FeatureRow],
        buf: &mut Vec<f64>,
    ) {
        self.segments_table
            .insert(&[seg.t_start, seg.v_start, seg.t_end, seg.v_end])
            .expect("segment row");
        for row in rows {
            buf.clear();
            for p in row.boundary.corners() {
                buf.push(p.dt);
                buf.push(p.dv);
            }
            buf.extend([row.t_d, row.t_c, row.t_b, row.t_a]);
            let slot = match row.kind {
                SearchKind::Drop => 0,
                SearchKind::Jump => 3,
            } + row.boundary.len()
                - 1;
            self.tables[slot].insert(buf).expect("feature row");
        }
        self.n_segments += 1;
        self.n_rows += rows.len() as u64;
    }
}

/// Self time (ms) of each stage of one decomposed run.
struct StageTimes {
    segment: f64,
    extract: f64,
    insert: f64,
    commit: f64,
    subscribe: f64,
    segments: Vec<u64>,
    rows: Vec<u64>,
    /// Per sensor, over its feature tables.
    heap_bytes: Vec<u64>,
    index_bytes: Vec<u64>,
    wal_bytes: u64,
    boundaries: Vec<Boundary>,
}

fn decomposed_run(
    ctx: &mut Ctx,
    corpus: &Corpus,
    plan: &Schedule,
    layout: &[TableLayout],
    with_trees: bool,
    class: &'static str,
) -> StageTimes {
    let root = ctx.tmp.join("decomposed");
    std::fs::remove_dir_all(&root).ok();
    let registry = registry();
    let wal_bytes = obs::global().counter("wal.bytes");
    let wal_bytes_before = wal_bytes.get();
    let mut pipes: Vec<Pipeline> = (0..SENSORS)
        .map(|k| Pipeline::create(&sensor_dir(&root, k), layout, with_trees))
        .collect();
    // Stands in for the metadata snapshot the real index commits (its text
    // is private to core and ~110 bytes long).
    let blob = [b'm'; 110];
    let mut emitted = Vec::new();
    let mut rows: Vec<FeatureRow> = Vec::new();
    let mut buf = Vec::new();
    let mut boundaries = Vec::new();
    let tracer = &mut ctx.tracer;
    let mut store = |tracer: &mut crate::trace::Tracer,
                     pipe: &mut Pipeline,
                     sensor: u32,
                     seg: segmentation::Segment,
                     rows: &mut Vec<FeatureRow>| {
        rows.clear();
        tracer.call("core.extract", || pipe.extractor.push_segment(seg, rows));
        tracer.call("pagestore.insert", || {
            pipe.insert_rows(&seg, rows, &mut buf)
        });
        tracer.call("pagestore.commit", || {
            pipe.db.commit(&blob).expect("commit")
        });
        tracer.call("core.subscribe", || {
            if !rows.is_empty() {
                registry.on_features(sensor, rows, 0);
                registry.flush();
            }
        });
        if boundaries.len() < 20_000 {
            boundaries.extend(rows.iter().map(|r| r.boundary));
        }
    };
    for (i, op) in plan.ops.iter().enumerate() {
        let Op::Batch(b) = *op else { continue };
        tracer.begin_op(class, i);
        for (k, &(lo, hi)) in plan.ranges[b].iter().enumerate() {
            let pipe = &mut pipes[k];
            let series = &corpus.series[k];
            emitted.clear();
            tracer.call("segmentation.push", || {
                for j in lo..hi {
                    let (t, v) = series.get(j);
                    if let Some(seg) = pipe.segmenter.push(t, v) {
                        emitted.push(seg);
                    }
                }
            });
            for &seg in &emitted {
                store(tracer, pipe, k as u32, seg, &mut rows);
            }
        }
        tracer.end_op();
    }
    // `finish`: the trailing open segment of each sensor.
    tracer.begin_op(class, plan.ops.len());
    for (k, pipe) in pipes.iter_mut().enumerate() {
        if let Some(seg) = pipe.segmenter.finish() {
            store(tracer, pipe, k as u32, seg, &mut rows);
        }
    }
    tracer.end_op();
    let stage = |name: &str| tracer.self_time(class, name).0;
    let table_bytes = |size: fn(&Table) -> u64| -> Vec<u64> {
        pipes
            .iter()
            .map(|p| p.tables.iter().map(|t| size(t)).sum())
            .collect()
    };
    let times = StageTimes {
        segment: stage("segmentation.push"),
        extract: stage("core.extract"),
        insert: stage("pagestore.insert"),
        commit: stage("pagestore.commit"),
        subscribe: stage("core.subscribe"),
        segments: pipes.iter().map(|p| p.n_segments).collect(),
        rows: pipes.iter().map(|p| p.n_rows).collect(),
        heap_bytes: table_bytes(Table::heap_bytes),
        index_bytes: table_bytes(Table::index_bytes),
        wal_bytes: wal_bytes.get() - wal_bytes_before,
        boundaries,
    };
    drop(pipes);
    std::fs::remove_dir_all(&root).ok();
    times
}

/// Drives the pipeline stage by stage (twice with B+trees, once without),
/// checks it reproduces the real index's counts, and fills the ingest
/// layer metrics.
fn decomposed(ctx: &mut Ctx, corpus: &Corpus, plan: &Schedule, real: &Build, real_batch_ms: f64) {
    let layout = &real.layout;
    let with_a = decomposed_run(ctx, corpus, plan, layout, true, "op.ingest_batch");
    let with_b = decomposed_run(ctx, corpus, plan, layout, true, "op.ingest_batch_b");
    let without = decomposed_run(ctx, corpus, plan, layout, false, "op.ingest_no_trees");
    for run in [&with_a, &with_b, &without] {
        ctx.gate
            .check(run.segments == real.segments && run.rows == real.rows, || {
                format!(
                    "decomposed ingest stored {:?} segments / {:?} rows, the real index {:?} / {:?}",
                    run.segments, run.rows, real.segments, real.rows
                )
            });
        ctx.gate.check(run.heap_bytes == real.heap_bytes, || {
            format!(
                "decomposed ingest filled {:?} heap bytes, the real index {:?}",
                run.heap_bytes, real.heap_bytes
            )
        });
    }
    // The same rows went into the same B+trees and through the same log:
    // tree bytes must agree exactly, log bytes within `WAL_BYTES_TOLERANCE`.
    for run in [&with_a, &with_b] {
        ctx.gate.check(run.index_bytes == real.index_bytes, || {
            format!(
                "decomposed ingest built {:?} B+tree bytes, the real index {:?}",
                run.index_bytes, real.index_bytes
            )
        });
        let off = run.wal_bytes.abs_diff(real.wal_bytes) as f64 / real.wal_bytes as f64;
        ctx.gate.check(off <= WAL_BYTES_TOLERANCE, || {
            format!(
                "decomposed ingest logged {} WAL bytes, the real index {}",
                run.wal_bytes, real.wal_bytes
            )
        });
    }
    let scale = ctx.clock.run_scale();
    let samples = corpus.n_samples as f64;
    let segments = real.segments.iter().sum::<u64>() as f64;
    let rows = real.rows.iter().sum::<u64>() as f64;
    let mean = |a: f64, b: f64| 0.5 * (a + b);
    let insert = mean(with_a.insert, with_b.insert);
    let layer_sum = mean(
        with_a.segment + with_a.extract + with_a.insert + with_a.commit + with_a.subscribe,
        with_b.segment + with_b.extract + with_b.insert + with_b.commit + with_b.subscribe,
    );
    // What the real index's batches cost beyond the five stages.
    let unattributed = 1.0 - layer_sum / real_batch_ms;

    // RegionIndex::matches on the boundaries the run produced.
    let mut index = RegionIndex::new();
    for (i, region) in standing_regions().into_iter().enumerate() {
        index.insert(i as u64, region);
    }
    let mut out = Vec::new();
    let mut match_ns = Vec::new();
    for _ in 0..5 {
        let mut stats = RegionMatchStats::default();
        let start = Instant::now();
        for boundary in &with_a.boundaries {
            out.clear();
            index.matches(boundary, &mut out, &mut stats);
            black_box(&out);
        }
        match_ns.push(start.elapsed().as_nanos() as f64 / with_a.boundaries.len().max(1) as f64);
    }

    // The only fsyncs of the benchmark: a synced commit on a scratch store.
    let fsync_dir = ctx.tmp.join("fsync-probe");
    let fsyncs_before = obs::global().counter("wal.fsyncs").get();
    let fsync_ms = {
        let db = Database::create_with(
            &fsync_dir,
            64,
            DurabilityOptions {
                wal: true,
                sync: true,
                group_commit: 1,
                checkpoint_wal_bytes: CHECKPOINT_WAL_BYTES,
            },
        )
        .expect("fsync probe database");
        let table = db
            .create_table(TableSpec::new("t", &["a", "b"]))
            .expect("probe table");
        table.insert(&[1.0, 2.0]).expect("probe row");
        let start = Instant::now();
        db.commit(b"probe").expect("synced commit");
        start.elapsed().as_secs_f64() * 1e3
    };
    std::fs::remove_dir_all(&fsync_dir).ok();
    ctx.probe_fsyncs += obs::global().counter("wal.fsyncs").get() - fsyncs_before;
    let decomposed_ms = mean(
        ctx.tracer.class_total_ms("op.ingest_batch"),
        ctx.tracer.class_total_ms("op.ingest_batch_b"),
    );

    let l = &mut ctx.layers;
    l.set(
        "harness.trace_overhead_ratio",
        decomposed_ms / real_batch_ms,
    );
    l.set(
        "segmentation.push_ns_per_sample",
        mean(with_a.segment, with_b.segment) * 1e6 * scale / samples,
    );
    l.set(
        "core.extract_ns_per_segment",
        mean(with_a.extract, with_b.extract) * 1e6 * scale / segments,
    );
    l.set(
        "core.subscribe_ns_per_row",
        mean(with_a.subscribe, with_b.subscribe) * 1e6 * scale / rows,
    );
    l.set(
        "pagestore.heap_append_ns_per_row",
        without.insert * 1e6 * scale / rows,
    );
    l.set(
        "pagestore.btree_insert_ns_per_row",
        (insert - without.insert) * 1e6 * scale / rows,
    );
    l.set(
        "pagestore.wal_commit_ns_per_row",
        mean(with_a.commit, with_b.commit) * 1e6 * scale / rows,
    );
    l.set("pagestore.wal_fsync_ms", fsync_ms);
    l.set(
        "featurespace.region_match_ns_per_boundary",
        median(&match_ns) * scale,
    );
    l.set("core.ingest_unattributed_ratio", unattributed);
    if unattributed > 0.10 {
        ctx.findings.push(format!(
            "core.ingest_unattributed_ratio {unattributed:.3} is above 0.10: the real index's \
             batches cost more than the five pipeline stages driven separately"
        ));
    }
}
