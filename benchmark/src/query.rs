//! `query_resident` and `query_bigcorpus`: the executor, and the storage
//! path underneath it.
//!
//! Both run the same 1,152-op list over the same bulk-loaded corpus.
//! `query_resident` keeps the row-format store in a pool larger than the
//! corpus: B+tree probe, SoA kernel, fetch, `sort_dedup` and merge do all
//! the work. `query_bigcorpus` first rewrites the store into compressed
//! columnar pages and reopens it with a pool a quarter of the heap, so
//! every pass evicts and decodes. The difference between their query
//! metrics is the storage path's cost; their result vectors must be
//! byte-identical.

use crate::corpus::{bulk_load, query_ops, region_grid, BulkLoad, Corpus, QueryOp, SENSORS};
use crate::harness::{dir_bytes, median, median_time, passes_for, typical, OpTime};
use crate::report::{EndToEnd, Fingerprint};
use crate::Ctx;
use featurespace::batch::{boundaries_intersect_cols, zone_may_intersect};
use featurespace::{QueryRegion, SearchKind};
use segdiff::{QueryPlan, QueryStats, SegmentPair, TransectIndex};
use sensorgen::HOUR;
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Slice costs (a slice closes at 64): eight ~1 ms single-sensor queries,
/// or one fan-out over the eight sensors.
const COST_SINGLE: u32 = 8;
const COST_FANOUT: u32 = 64;
const MIN_PASSES: usize = 9;
/// Passes of each kind (untraced, then traced) in a `--trace 1` run.
const TRACE_PASSES: usize = 3;

const SCAN_PHASES: [&str; 3] = [
    "core.seq_scan.plan",
    "core.seq_scan.scan",
    "core.seq_scan.refine",
];
const INDEX_PHASES: [&str; 4] = [
    "core.index.plan",
    "core.index.probe",
    "core.index.fetch",
    "core.index.refine",
];

/// The executor's phase report of one single-sensor query as named child
/// spans, in execution order.
pub fn phase_spans(plan: QueryPlan, stats: &QueryStats) -> Vec<(&'static str, f64)> {
    let names: &[&'static str] = match plan {
        QueryPlan::SeqScan => &SCAN_PHASES,
        QueryPlan::Index => &INDEX_PHASES,
    };
    names
        .iter()
        .zip(&stats.phases)
        .map(|(name, phase)| (*name, phase.wall_seconds))
        .collect()
}

/// What the engine returned for one op: one result list per sensor asked.
/// Fingerprinting it is the harness's work and happens outside the timed
/// op.
struct Executed {
    parts: Vec<Vec<SegmentPair>>,
    stats: QueryStats,
}

struct Answer {
    fingerprint: Fingerprint,
    stats: QueryStats,
}

impl Executed {
    fn into_answer(self) -> Answer {
        Answer {
            fingerprint: Fingerprint::of_parts(&self.parts),
            stats: self.stats,
        }
    }
}

fn execute(transect: &TransectIndex, regions: &[QueryRegion], op: &QueryOp) -> Executed {
    let region = &regions[op.region];
    let (parts, stats) = match op.sensor {
        // `query`, never `query_cached`: the result cache is bypassed.
        Some(sensor) => {
            let (results, stats) = transect
                .query_sensor(sensor, region, op.plan)
                .expect("query_sensor");
            (vec![results], stats)
        }
        // One thread: the closed loop has one caller and the box two cores.
        None => transect
            .query_all_with_threads(region, op.plan, 1)
            .expect("query_all"),
    };
    Executed { parts, stats }
}

/// What compaction and the small-pool reopen cost.
struct Compacted {
    transect: TransectIndex,
    compact: OpTime,
    open: OpTime,
    compression_ratio: f64,
}

/// Compacts every sensor to columnar pages, drops the transect and reopens
/// it with `max(64, heap_pages / 4)` pool pages per sensor (64 is the floor
/// `TransectIndex::open` enforces).
fn compact_and_reopen(ctx: &mut Ctx, transect: TransectIndex, root: &Path) -> Compacted {
    let (compact, compression_ratio) = ctx.clock.bracket(|| {
        let (mut raw, mut stored) = (0u64, 0u64);
        for k in 0..SENSORS {
            let report = transect
                .sensor(k)
                .expect("sensor")
                .compact_storage()
                .expect("compact_storage");
            for (_, stats) in report {
                raw += stats.raw_bytes;
                stored += stats.stored_bytes;
            }
        }
        raw as f64 / stored.max(1) as f64
    });
    let heap_pages = transect
        .stats()
        .iter()
        .map(|s| s.heap_bytes / pagestore::PAGE_SIZE as u64)
        .max()
        .unwrap_or(0) as usize;
    transect.flush_all().expect("flush");
    drop(transect);
    let (open, transect) = ctx
        .clock
        .bracket(|| TransectIndex::open(root, (heap_pages / 4).max(64)).expect("reopen"));
    Compacted {
        transect,
        compact,
        open,
        compression_ratio,
    }
}

/// What the gates and layer metrics need from the row-format store,
/// taken from the first build before anything compacts it.
struct RowFormat {
    /// Reference answer of every op.
    expect: Vec<Fingerprint>,
    rows: u64,
    segments: u64,
    index_bytes: u64,
}

pub fn run(ctx: &mut Ctx, bigcorpus: bool) -> EndToEnd {
    let corpus = Corpus::generate(&mut ctx.clock);
    let regions = region_grid();
    let ops = query_ops(ctx.seed);
    let costs: Vec<u32> = ops
        .iter()
        .map(|op| match op.sensor {
            Some(_) => COST_SINGLE,
            None => COST_FANOUT,
        })
        .collect();

    // Set-up, repeated on every bulk build so each step counts with its
    // median: (compact + reopen on `query_bigcorpus`) + one warm-up pass,
    // which fills the pool as far as it goes.
    let mut row_format: Option<RowFormat> = None;
    let mut compacts = Vec::new();
    let mut opens = Vec::new();
    let mut compression_ratio = 1.0;
    let mut warm_passes = Vec::new();
    let mut warm_seconds = 0.0;
    let BulkLoad {
        last: transect,
        root,
        batches,
        build_indexes,
        total: bulk_total,
    } = bulk_load(ctx, &corpus, |ctx, transect, root| {
        let reference = row_format.get_or_insert_with(|| {
            let expect: Vec<Fingerprint> = ops
                .iter()
                .map(|op| execute(&transect, &regions, op).into_answer().fingerprint)
                .collect();
            plan_and_fanout_gates(ctx, &ops, &expect);
            recall_gate(ctx, &corpus, &transect);
            let stats = transect.stats();
            RowFormat {
                expect,
                rows: stats.iter().map(|s| s.n_rows).sum(),
                segments: stats.iter().map(|s| s.n_segments).sum(),
                index_bytes: stats.iter().map(|s| s.index_bytes).sum(),
            }
        });
        let transect = if bigcorpus {
            let c = compact_and_reopen(ctx, transect, root);
            compacts.push(c.compact);
            opens.push(c.open);
            compression_ratio = c.compression_ratio;
            c.transect
        } else {
            transect
        };
        let warm_start = Instant::now();
        warm_passes.push(timed_pass(
            ctx,
            &transect,
            &regions,
            &ops,
            &costs,
            &reference.expect,
            "warm-up",
        ));
        warm_seconds = warm_start.elapsed().as_secs_f64();
        transect
    });
    let RowFormat {
        expect,
        rows,
        segments,
        index_bytes,
    } = row_format.expect("at least one build");
    let compact = median_time(&compacts);
    let open = median_time(&opens);
    let setup = corpus.generate
        + corpus.smooth
        + bulk_total
        + compact
        + open
        + typical(&warm_passes).into_iter().sum::<OpTime>();

    let n_passes = if ctx.trace {
        TRACE_PASSES
    } else {
        passes_for(ctx.seconds, warm_seconds, MIN_PASSES)
    };
    let passes: Vec<Vec<OpTime>> = (0..n_passes)
        .map(|_| {
            timed_pass(
                ctx,
                &transect,
                &regions,
                &ops,
                &costs,
                &expect,
                "timed pass",
            )
        })
        .collect();
    let queries = typical(&passes);
    ctx.layers.set("harness.passes", n_passes as f64);

    if ctx.trace {
        let traced = traced_passes(ctx, &transect, &regions, &ops, &costs, &expect);
        let total = |times: &[OpTime]| times.iter().map(|t| t.norm_ms).sum::<f64>();
        ctx.layers.set(
            "harness.trace_overhead_ratio",
            total(&traced) / total(&queries),
        );
        fanout_overhead(ctx, &ops, &traced);
        storage_layers(ctx, &transect, &regions);
        let n = corpus.n_samples as f64;
        let l = &mut ctx.layers;
        l.set(
            "sensorgen.generate_ns_per_sample",
            corpus.generate.norm_ms * 1e6 / n,
        );
        l.set(
            "sensorgen.smooth_ns_per_sample",
            corpus.smooth.norm_ms * 1e6 / n,
        );
        l.set("segmentation.samples_per_segment", n / segments as f64);
        l.set(
            "core.feature_rows_per_segment",
            rows as f64 / segments as f64,
        );
        l.set("core.build_indexes_s", build_indexes.norm_ms / 1e3);
        l.set("core.compact_storage_s", compact.norm_ms / 1e3);
        l.set("core.open_s", open.norm_ms / 1e3);
        let heap_bytes: u64 = transect.stats().iter().map(|s| s.heap_bytes).sum();
        l.set(
            "pagestore.heap_bytes_per_row",
            heap_bytes as f64 / rows as f64,
        );
        l.set(
            "pagestore.index_bytes_per_row",
            index_bytes as f64 / rows as f64,
        );
        l.set("pagestore.compression_ratio", compression_ratio);
    }

    transect.flush_all().expect("flush");
    let store_bytes = dir_bytes(&root);
    drop(transect);
    EndToEnd {
        setup,
        ingest_batches: batches,
        ingest_tail: OpTime::default(),
        samples: corpus.n_samples,
        queries,
        store_bytes,
        peak_rss_mb: 0.0,
    }
}

/// One untraced pass; every answer must match the row-format reference.
fn timed_pass(
    ctx: &mut Ctx,
    transect: &TransectIndex,
    regions: &[QueryRegion],
    ops: &[QueryOp],
    costs: &[u32],
    expect: &[Fingerprint],
    when: &str,
) -> Vec<OpTime> {
    let mut got = vec![Fingerprint::default(); ops.len()];
    let last = Cell::new(None);
    let times = ctx.clock.pass_checked(
        costs,
        |i| last.set(Some(execute(transect, regions, &ops[i]))),
        |i| got[i] = last.take().expect("op ran").into_answer().fingerprint,
    );
    check_answers(ctx, &got, expect, when);
    times
}

fn check_answers(ctx: &mut Ctx, got: &[Fingerprint], expect: &[Fingerprint], when: &str) {
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        ctx.gate.check(g == e, || {
            format!("{when}: op {i} answered {g:?}, row-format reference {e:?}")
        });
    }
}

/// `SeqScan` result == `Index` result for every op, and every fan-out
/// answer holds as many pairs as its eight single-sensor answers together.
fn plan_and_fanout_gates(ctx: &mut Ctx, ops: &[QueryOp], expect: &[Fingerprint]) {
    let find = |sensor: Option<u32>, region: usize, plan: QueryPlan| {
        ops.iter()
            .position(|o| o.sensor == sensor && o.region == region && o.plan == plan)
            .map(|i| expect[i])
    };
    for (i, op) in ops.iter().enumerate() {
        if op.plan == QueryPlan::SeqScan {
            let other = find(op.sensor, op.region, QueryPlan::Index);
            ctx.gate.check(other == Some(expect[i]), || {
                format!(
                    "plans disagree: sensor {:?} region {} scan {:?} index {other:?}",
                    op.sensor, op.region, expect[i]
                )
            });
        }
        if op.sensor.is_none() {
            let total: u64 = (0..SENSORS)
                .filter_map(|s| find(Some(s), op.region, op.plan))
                .map(|f| f.len)
                .sum();
            ctx.gate.check(total == expect[i].len, || {
                format!(
                    "fan-out region {} returned {} pairs, its sensors {total}",
                    op.region, expect[i].len
                )
            });
        }
    }
}

/// Theorem 1 on a fixed sample of searches, on every sensor.
fn recall_gate(ctx: &mut Ctx, corpus: &Corpus, transect: &TransectIndex) {
    let sample = [
        QueryRegion::drop(0.5 * HOUR, -2.0),
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -5.0),
        QueryRegion::jump(2.0 * HOUR, 3.0),
    ];
    for (k, series) in corpus.series.iter().enumerate() {
        for region in &sample {
            let (results, _) = transect
                .query_sensor(k as u32, region, QueryPlan::Index)
                .expect("gate query");
            ctx.gate.check_recall(k, series, region, &results);
        }
    }
}

/// The traced passes: the same ops with a span around each call and the
/// executor's own phase report as child spans. Returns the typical traced
/// op times and fills the `core.*` query and `pagestore.pool_*` metrics.
fn traced_passes(
    ctx: &mut Ctx,
    transect: &TransectIndex,
    regions: &[QueryRegion],
    ops: &[QueryOp],
    costs: &[u32],
    expect: &[Fingerprint],
) -> Vec<OpTime> {
    /// Sums over the single-sensor ops of one plan.
    #[derive(Default)]
    struct PlanSums {
        ops: u64,
        phase_s: [f64; 4],
        rows: u64,
        results: u64,
    }
    let mut sums = [PlanSums::default(), PlanSums::default()];
    let mut io = pagestore::PoolStats::default();
    let (mut sensor_queries, mut index_sensor_queries) = (0u64, 0u64);
    let counter = |name: &str| obs::global().counter(name).get();
    let extents_before = counter("zonemap.extents_pruned");
    let entries_before = counter("btree.entries_scanned");

    let mut passes = Vec::new();
    for _ in 0..TRACE_PASSES {
        let mut got: Vec<Answer> = Vec::with_capacity(ops.len());
        let last = Cell::new(None);
        let tracer = &mut ctx.tracer;
        let traced_op = |i: usize| {
            let op = &ops[i];
            let single = op.sensor.is_some();
            tracer.begin_op(
                if single {
                    "op.query_single"
                } else {
                    "op.query_fanout"
                },
                i,
            );
            tracer.enter("core.query");
            let executed = execute(transect, regions, op);
            let call = tracer.exit();
            if single {
                // A fan-out's merged phases hold the slowest sensor's
                // time, not the sum, so only single-sensor ops tile.
                let parts = phase_spans(op.plan, &executed.stats);
                tracer.reported_children(call, &parts);
            }
            tracer.end_op();
            last.set(Some(executed));
        };
        passes.push(ctx.clock.pass_checked(costs, traced_op, |_| {
            got.push(last.take().expect("op ran").into_answer())
        }));
        for (answer, op) in got.iter().zip(ops) {
            let stats = &answer.stats;
            io = io.merged(&stats.io);
            let fan = if op.sensor.is_some() {
                1
            } else {
                SENSORS as u64
            };
            sensor_queries += fan;
            if op.plan == QueryPlan::Index {
                index_sensor_queries += fan;
            }
            if op.sensor.is_some() {
                let s = &mut sums[usize::from(op.plan == QueryPlan::Index)];
                s.ops += 1;
                s.rows += stats.rows_considered;
                s.results += stats.results;
                for (slot, p) in s.phase_s.iter_mut().zip(&stats.phases) {
                    *slot += p.wall_seconds;
                }
            }
        }
        let prints: Vec<Fingerprint> = got.iter().map(|a| a.fingerprint).collect();
        check_answers(ctx, &prints, expect, "traced pass");
    }

    // Phase times are the executor's own raw wall seconds; scale them like
    // everything else, by the run's speed ratio.
    let scale = ctx.clock.run_scale();
    let mean_ms = |s: &PlanSums, phase: usize| s.phase_s[phase] * 1e3 * scale / s.ops.max(1) as f64;
    let (scan, index) = (&sums[0], &sums[1]);
    let unattributed = ctx
        .tracer
        .unattributed_ratio("op.query_single", "core.query");
    let l = &mut ctx.layers;
    l.set("core.seq_scan.scan_ms", mean_ms(scan, 1));
    l.set("core.seq_scan.refine_ms", mean_ms(scan, 2));
    l.set("core.index.probe_ms", mean_ms(index, 1));
    l.set("core.index.fetch_ms", mean_ms(index, 2));
    l.set("core.index.refine_ms", mean_ms(index, 3));
    l.set(
        "core.seq_scan.rows_per_result",
        scan.rows as f64 / scan.results.max(1) as f64,
    );
    l.set(
        "core.index.rows_per_result",
        index.rows as f64 / index.results.max(1) as f64,
    );
    l.set("core.query_unattributed_ratio", unattributed);
    l.set(
        "pagestore.pool_hit_ratio",
        io.hits as f64 / (io.hits + io.misses).max(1) as f64,
    );
    l.set(
        "pagestore.pool_misses_per_query",
        io.misses as f64 / sensor_queries as f64,
    );
    l.set(
        "pagestore.pool_evictions_per_query",
        io.evictions as f64 / sensor_queries as f64,
    );
    l.set(
        "pagestore.extents_pruned_per_query",
        (counter("zonemap.extents_pruned") - extents_before) as f64 / sensor_queries as f64,
    );
    l.set(
        "pagestore.btree_entries_per_query",
        (counter("btree.entries_scanned") - entries_before) as f64
            / index_sensor_queries.max(1) as f64,
    );
    if unattributed > 0.10 {
        ctx.findings.push(format!(
            "core.query_unattributed_ratio {unattributed:.3} is above 0.10"
        ));
    }
    typical(&passes)
}

/// Fan-out op time minus the sum of the eight single-sensor ops with the
/// same region and plan, averaged over the fan-out ops.
fn fanout_overhead(ctx: &mut Ctx, ops: &[QueryOp], times: &[OpTime]) {
    let diffs: Vec<f64> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.sensor.is_none())
        .map(|(i, op)| {
            let singles: f64 = ops
                .iter()
                .zip(times)
                .filter(|(o, _)| o.sensor.is_some() && o.region == op.region && o.plan == op.plan)
                .map(|(_, t)| t.norm_ms)
                .sum();
            times[i].norm_ms - singles
        })
        .collect();
    ctx.layers.set(
        "core.fanout_overhead_ms",
        diffs.iter().sum::<f64>() / diffs.len().max(1) as f64,
    );
}

/// Times the storage and geometry kernels on the pages the queries read,
/// through the same public functions the executor calls.
fn storage_layers(ctx: &mut Ctx, transect: &TransectIndex, regions: &[QueryRegion]) {
    let scale = ctx.clock.run_scale();
    // (corner count, kind, table) of every feature table of every sensor.
    let tables: Vec<(usize, SearchKind, std::sync::Arc<pagestore::Table>)> = (0..SENSORS)
        .flat_map(|k| {
            let db = transect.sensor(k).expect("sensor").database().clone();
            [
                ("drop1", SearchKind::Drop),
                ("drop2", SearchKind::Drop),
                ("drop3", SearchKind::Drop),
                ("jump1", SearchKind::Jump),
                ("jump2", SearchKind::Jump),
                ("jump3", SearchKind::Jump),
            ]
            .into_iter()
            .enumerate()
            .map(move |(i, (name, kind))| (i % 3 + 1, kind, db.table(name).expect("feature table")))
        })
        .collect();
    let mut cols: Vec<Vec<f64>> = Vec::new();
    let mut mask: Vec<bool> = Vec::new();
    let drop_region = QueryRegion::drop(2.0 * HOUR, -3.0);
    let jump_region = QueryRegion::jump(2.0 * HOUR, 2.0);

    let (mut decode_ns, mut kernel_ns, mut fetch_ns) = (Vec::new(), Vec::new(), Vec::new());
    let rids: Vec<Vec<pagestore::RowId>> = tables
        .iter()
        .map(|(_, _, table)| {
            let mut rids = Vec::new();
            let mut i = 0u64;
            table
                .seq_scan(|rid, _| {
                    if i & 3 == 0 {
                        rids.push(rid);
                    }
                    i += 1;
                    true
                })
                .expect("seq_scan");
            rids.sort_unstable();
            rids
        })
        .collect();
    for _ in 0..5 {
        // Decode: scan_columns, pass-all filter, empty visitor.
        let mut rows = 0u64;
        let start = Instant::now();
        for (_, _, table) in &tables {
            table
                .scan_columns(
                    |_, _| true,
                    &mut cols,
                    |c, n| {
                        black_box(c);
                        rows += n as u64;
                        true
                    },
                )
                .expect("scan_columns");
        }
        decode_ns.push(start.elapsed().as_nanos() as f64 / rows.max(1) as f64);

        // Kernel: boundaries_intersect_cols on each page's decoded columns.
        let mut spent = 0u128;
        for (corners, kind, table) in &tables {
            let region = match kind {
                SearchKind::Drop => &drop_region,
                SearchKind::Jump => &jump_region,
            };
            table
                .scan_columns(
                    |_, _| true,
                    &mut cols,
                    |c, n| {
                        let start = Instant::now();
                        boundaries_intersect_cols(*corners, c, n, region, &mut mask);
                        spent += start.elapsed().as_nanos();
                        black_box(&mask);
                        true
                    },
                )
                .expect("scan_columns");
        }
        kernel_ns.push(spent as f64 / rows.max(1) as f64);

        // Fetch: fetch_many over every fourth row id, page-major.
        let mut fetched = 0u64;
        let start = Instant::now();
        for ((_, _, table), rids) in tables.iter().zip(&rids) {
            table
                .fetch_many(rids, |_, row| {
                    black_box(row);
                    fetched += 1;
                    true
                })
                .expect("fetch_many");
        }
        fetch_ns.push(start.elapsed().as_nanos() as f64 / fetched.max(1) as f64);
    }

    // Pruning: the executor's zone filter over the whole region grid.
    let (mut scanned, mut pruned) = (0u64, 0u64);
    for region in regions {
        for (corners, _, table) in tables.iter().filter(|(_, kind, _)| *kind == region.kind) {
            let stats = table
                .scan_columns(
                    |mins, maxs| zone_may_intersect(*corners, mins, maxs, region),
                    &mut cols,
                    |_, _| true,
                )
                .expect("scan_columns");
            scanned += stats.pages_scanned;
            pruned += stats.pages_pruned;
        }
    }
    let l = &mut ctx.layers;
    l.set(
        "pagestore.scan_decode_ns_per_row",
        median(&decode_ns) * scale,
    );
    l.set("featurespace.kernel_ns_per_row", median(&kernel_ns) * scale);
    l.set("pagestore.fetch_ns_per_row", median(&fetch_ns) * scale);
    l.set(
        "pagestore.pages_pruned_ratio",
        pruned as f64 / (scanned + pruned).max(1) as f64,
    );
}
