//! Larger-than-RAM smoke: a columnar corpus at least 4x the buffer
//! pool, answering the standard query mix.
//!
//! The run builds a SegDiff index, rewrites its heaps into compressed
//! columnar pages ([`segdiff::SegDiffIndex::compact_storage`]), then
//! *reopens it with a pool sized to a quarter of the corpus*, so every
//! sequential scan evicts. The query mix includes one region no row can
//! match, which the hierarchical zone maps must reject at the segment
//! level — the `zonemap.extents_pruned` counter proves the upper levels
//! of the hierarchy are consulted.
//!
//! The run sets the scan plan against the index plan the way the paper's
//! evaluation does (§6, Tables 5–6) where the data has two plans — the
//! row store, in arrival order under whole B+trees — per window `T`: what
//! each plan reads, skips and examines per result, and how long a query
//! takes ([`PlanAtT`]). Compaction clusters the feature heaps on
//! `(Δt₁, Δv₁)` and seals them, emptying the trees: there both plans are
//! the zone-pruned scan (checked: they examine and return the same), and
//! a window has one row, behind the quarter pool and behind a pool that
//! holds the whole store.

use crate::harness::{scratch_dir, with_registry_delta, Scale};
use crate::report::Report;
use featurespace::QueryRegion;
use segdiff::{QueryPlan, SegDiffConfig, SegDiffIndex};
use sensorgen::{generate_sensor, smooth::RobustSmoother, CadTransectConfig, HOUR};
use std::time::Instant;

/// Outcome of one big-corpus run.
#[derive(Debug)]
pub struct BigCorpusResult {
    /// Heap bytes across every table after compaction.
    pub corpus_bytes: u64,
    /// Buffer-pool bytes the queries ran with (`corpus >= 4x` this).
    pub pool_bytes: u64,
    /// Aggregate encoded-vs-raw payload ratio over the feature tables.
    pub compression_ratio: f64,
    /// Encoded-vs-raw ratio over the corner (`Δt, Δv`) columns alone.
    pub corner_ratio: f64,
    /// Per-plan latency and pruning over the query mix.
    pub points: Vec<QueryScalingPoint>,
    /// `zonemap.extents_pruned` delta across the timed queries.
    pub extents_pruned: u64,
    /// Registry delta across the timed queries.
    pub metrics: obs::MetricsSnapshot,
    /// Scan plan against index plan on the row store, then the one plan of
    /// the sealed store behind each pool, per `T`.
    pub sweep: Vec<PlanAtT>,
}

/// One plan over the query mix: the latency of a pass, and what a pass
/// read, examined, returned and skipped.
#[derive(Debug, Clone)]
pub struct QueryScalingPoint {
    /// Regions in the mix.
    pub regions: u32,
    /// Plan name (`seq_scan` / `index`).
    pub plan: &'static str,
    /// Median latency of a pass, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency of a pass, milliseconds.
    pub p99_ms: f64,
    /// Pages asked of the pool (hits + misses) by the first query.
    pub pages_read: u64,
    /// Result rows across the mix.
    pub results: u64,
    /// Rows / index entries examined across the mix.
    pub rows_considered: u64,
    /// Zone-map pages skipped during the timed passes (seq_scan only).
    pub pages_pruned: u64,
    /// Zone-map extents (64-page groups) skipped during the timed passes.
    pub extents_pruned: u64,
}

/// One plan over the regions of one window `T` on one store: the counts
/// of one pass over `regions_at`, which repeat, and the time of a query.
#[derive(Debug, Clone)]
pub struct PlanAtT {
    /// `"row"` (arrival order, whole trees, the build's pool), or the
    /// sealed store behind a pool a quarter of its heap
    /// (`"sealed/quarter"`) or one that holds it whole
    /// (`"sealed/resident"`).
    pub store: &'static str,
    /// The window `T`, in hours.
    pub t_hours: f64,
    /// The plan that ran; `None` on a sealed store, where both are the
    /// zone scan and were checked to count alike.
    pub plan: Option<QueryPlan>,
    /// Pages asked of the pool: heap pages by the scan plan, B+tree and
    /// heap pages by the index plan.
    pub pages_read: u64,
    /// Heap pages the zone hierarchy skipped.
    pub pages_pruned: u64,
    /// Rows the scan's kernel examined, or entries the probe visited.
    pub examined: u64,
    /// Pairs returned.
    pub results: u64,
    /// Median over the timed passes of pass time / regions, milliseconds.
    pub ms_per_query: f64,
}

/// The windows of the scan-against-index table (the benchmark's grid).
const SWEEP_HOURS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];

/// The benchmark's thresholds at one window: eight drops, four jumps.
fn regions_at(t_hours: f64) -> Vec<QueryRegion> {
    let drops = [-1.0, -1.5, -2.0, -3.0, -4.0, -5.0, -6.0, -8.0];
    let jumps = [1.0, 2.0, 3.0, 4.0];
    drops
        .iter()
        .map(|&v| QueryRegion::drop(t_hours * HOUR, v))
        .chain(jumps.iter().map(|&v| QueryRegion::jump(t_hours * HOUR, v)))
        .collect()
}

/// Runs the plans `idx` has over every window's regions — both on the row
/// store; on a `sealed` one the scan, with the index plan beside it in the
/// counting pass to check that it examines and returns the same: one pass
/// each that fills the pool as far as it goes and takes the counts, then
/// `repeats` timed rounds of one pass each — rounds, not a burst per row,
/// so a busy moment of the host lands on every row alike and the medians
/// stay comparable.
fn sweep_plans(
    idx: &SegDiffIndex,
    store: &'static str,
    sealed: bool,
    repeats: u32,
    out: &mut Vec<PlanAtT>,
) {
    // What the scan's span of this thread's own trace recorded: the
    // `zonemap.*` counters are the process's, and move under any other
    // thread's scan.
    fn pruned(node: &obs::TraceNode) -> u64 {
        let own = node.attr("pages_pruned").and_then(|v| v.as_u64());
        own.unwrap_or(0) + node.children.iter().map(pruned).sum::<u64>()
    }
    let plans: &[QueryPlan] = match sealed {
        true => &[QueryPlan::SeqScan],
        false => &[QueryPlan::SeqScan, QueryPlan::Index],
    };
    let first = out.len();
    for t_hours in SWEEP_HOURS {
        for &plan in plans {
            let mut row = PlanAtT {
                store,
                t_hours,
                plan: (!sealed).then_some(plan),
                pages_read: 0,
                pages_pruned: 0,
                examined: 0,
                results: 0,
                ms_per_query: 0.0,
            };
            for region in regions_at(t_hours) {
                obs::trace_begin();
                let (_, stats) = idx.query(&region, plan).expect("query");
                row.pages_pruned += obs::trace_take().as_ref().map_or(0, pruned);
                row.pages_read += stats.io.hits + stats.io.misses;
                row.examined += stats.rows_considered;
                row.results += stats.results;
                if sealed {
                    let (_, index) = idx.query(&region, QueryPlan::Index).expect("query");
                    let counts = |s: &segdiff::QueryStats| {
                        (s.rows_considered, s.results, s.io.hits + s.io.misses)
                    };
                    assert_eq!(counts(&index), counts(&stats), "sealed {store}: {region:?}");
                }
            }
            out.push(row);
        }
    }
    let rows = &mut out[first..];
    let mut pass_ms = vec![Vec::new(); rows.len()];
    for _ in 0..repeats.max(1) {
        for (row, ms) in rows.iter().zip(&mut pass_ms) {
            let regions = regions_at(row.t_hours);
            let plan = row.plan.unwrap_or(QueryPlan::SeqScan);
            let t = Instant::now();
            for region in &regions {
                idx.query(region, plan).expect("query");
            }
            ms.push(t.elapsed().as_secs_f64() * 1e3 / regions.len() as f64);
        }
    }
    for (row, mut ms) in rows.iter_mut().zip(pass_ms) {
        ms.sort_by(|a, b| a.total_cmp(b));
        row.ms_per_query = percentile(&ms, 0.50);
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_ms.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted_ms.len() - 1);
    sorted_ms[idx]
}

/// The standard mix: the paper's default drop, a shallow long-window
/// drop, a moderate jump, and one unsatisfiable drop that the zone
/// hierarchy must reject wholesale (no synthetic sensor falls 30 degC
/// in an hour).
fn query_mix() -> Vec<QueryRegion> {
    vec![
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -1.0),
        QueryRegion::jump(2.0 * HOUR, 1.5),
        QueryRegion::drop(1.0 * HOUR, -30.0),
    ]
}

/// Builds the corpus, compacts it to columnar pages, reopens it with a
/// quarter-of-the-corpus pool, and times the query mix on both plans.
pub fn run_bigcorpus(scale: &Scale) -> BigCorpusResult {
    let root = scratch_dir("bigcorpus");
    std::fs::remove_dir_all(&root).ok();
    let cfg = SegDiffConfig::default()
        .with_epsilon(0.2)
        .with_window(8.0 * HOUR)
        .with_pool_pages(scale.pool_pages)
        .with_durable(false);
    let gen_cfg = CadTransectConfig::default().with_days(scale.subset_days);
    let mut idx = SegDiffIndex::create(&root, cfg).expect("create index");
    // One smoothed canyon sensor; the pool is sized off the finished
    // corpus below, so the 4x invariant holds at any --days setting.
    let series = RobustSmoother::default().smooth(&generate_sensor(&gen_cfg, 12, scale.seed));
    idx.ingest_series(&series).expect("ingest sensor");
    idx.finish().expect("finish");
    idx.build_indexes().expect("build indexes");
    let mut sweep = Vec::new();
    sweep_plans(&idx, "row", false, scale.repeats, &mut sweep);

    // Compress, then account: aggregate ratio over the feature tables
    // and the ratio over the corner columns alone (first `2 * corners`
    // columns of each feature table; the 4 segment-endpoint columns and
    // the segments table are excluded).
    let report = idx.compact_storage().expect("compact to columnar");
    let (mut raw, mut stored, mut corner_raw, mut corner_stored) = (0u64, 0u64, 0u64, 0u64);
    for (name, stats) in &report {
        if !name.starts_with("drop") && !name.starts_with("jump") {
            continue;
        }
        raw += stats.raw_bytes;
        stored += stats.stored_bytes;
        let corners = (stats.col_raw.len() - 4) / 2;
        for c in 0..2 * corners {
            corner_raw += stats.col_raw[c];
            corner_stored += stats.col_stored[c];
        }
    }
    let ratio = |r: u64, s: u64| if s == 0 { 1.0 } else { r as f64 / s as f64 };

    // Reopen with a pool a quarter of the corpus (pages, floored so the
    // engine still functions): the query mix below runs larger-than-RAM.
    let corpus_bytes = idx.stats().heap_bytes;
    drop(idx);
    let corpus_pages = (corpus_bytes / pagestore::PAGE_SIZE as u64).max(1);
    let pool_pages = ((corpus_pages / 4) as usize).max(16);
    let idx = SegDiffIndex::open(&root, pool_pages).expect("reopen small-pool");

    let mix = query_mix();
    let mut points = Vec::new();
    let (_, metrics) = with_registry_delta(|| {
        for (plan, name) in [
            (QueryPlan::SeqScan, "seq_scan"),
            (QueryPlan::Index, "index"),
        ] {
            let (_, delta) = with_registry_delta(|| {
                let mut lat_ms = Vec::new();
                let mut first: Option<segdiff::QueryStats> = None;
                let mut results = 0u64;
                let mut considered = 0u64;
                for _ in 0..scale.repeats.max(1) {
                    results = 0;
                    considered = 0;
                    let t = Instant::now();
                    for region in &mix {
                        let (_, stats) = idx.query(region, plan).expect("query");
                        results += stats.results;
                        considered += stats.rows_considered;
                        first.get_or_insert(stats);
                    }
                    lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                lat_ms.sort_by(|a, b| a.total_cmp(b));
                let io = first.map(|s| s.io).unwrap_or_default();
                points.push(QueryScalingPoint {
                    regions: mix.len() as u32,
                    plan: name,
                    p50_ms: percentile(&lat_ms, 0.50),
                    p99_ms: percentile(&lat_ms, 0.99),
                    pages_read: io.hits + io.misses,
                    results,
                    rows_considered: considered,
                    pages_pruned: 0, // filled from the delta below
                    extents_pruned: 0,
                });
            });
            let get = |k: &str| delta.counters.get(k).copied().unwrap_or(0);
            if let Some(p) = points.last_mut() {
                p.pages_pruned = get("zonemap.pages_pruned");
                p.extents_pruned = get("zonemap.extents_pruned");
            }
        }
    });

    // The sealed store per `T`: behind this pool, then behind one that
    // holds it whole (twice its pages, so nothing evicts).
    sweep_plans(&idx, "sealed/quarter", true, scale.repeats, &mut sweep);
    let stats = idx.stats();
    drop(idx);
    let store_pages = (stats.heap_bytes + stats.index_bytes) / pagestore::PAGE_SIZE as u64;
    let idx = SegDiffIndex::open(&root, 2 * store_pages as usize).expect("reopen resident");
    sweep_plans(&idx, "sealed/resident", true, scale.repeats, &mut sweep);
    drop(idx);

    std::fs::remove_dir_all(&root).ok();
    BigCorpusResult {
        corpus_bytes,
        pool_bytes: pool_pages as u64 * pagestore::PAGE_SIZE as u64,
        compression_ratio: ratio(raw, stored),
        corner_ratio: ratio(corner_raw, corner_stored),
        extents_pruned: metrics
            .counters
            .get("zonemap.extents_pruned")
            .copied()
            .unwrap_or(0),
        points,
        metrics,
        sweep,
    }
}

/// Renders the big-corpus section of the report.
pub fn bigcorpus_report(r: &BigCorpusResult, report: &mut Report) {
    report.heading("Big corpus (beyond the paper): compressed columnar pages, 4x the pool");
    report.para(&format!(
        "Corpus of {:.1} MiB columnar heap pages queried through a {:.1} MiB \
         buffer pool ({:.1}x the pool). Feature-table compression ratio \
         {:.2}x overall, {:.2}x on the corner columns; the query mix of {} \
         regions pruned {} extents and {} pages across the timed repeats.",
        r.corpus_bytes as f64 / (1 << 20) as f64,
        r.pool_bytes as f64 / (1 << 20) as f64,
        r.corpus_bytes as f64 / r.pool_bytes as f64,
        r.compression_ratio,
        r.corner_ratio,
        r.points.first().map_or(0, |p| p.regions),
        r.points.iter().map(|p| p.extents_pruned).sum::<u64>(),
        r.points.iter().map(|p| p.pages_pruned).sum::<u64>(),
    ));
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.plan.to_string(),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                p.pages_read.to_string(),
                p.rows_considered.to_string(),
                p.results.to_string(),
                p.pages_pruned.to_string(),
                p.extents_pruned.to_string(),
            ]
        })
        .collect();
    report.table(
        &[
            "plan",
            "p50 ms",
            "p99 ms",
            "pages read",
            "rows considered",
            "results",
            "pages pruned",
            "extents pruned",
        ],
        &rows,
    );
    report.para(&format!(
        "\nScan plan against index plan per window T — on the row store, which \
         has both; the sealed store (clustered, no trees) has the zone scan \
         under either name, checked to count alike, behind a pool a quarter \
         of its heap and one that holds it whole: one pass over {} regions \
         (8 drops, 4 jumps) for the counts, the median of the timed passes \
         for the time. Pages read are heap pages for the scan, B+tree and \
         heap pages for the index plan; examined are rows through the kernel \
         or B+tree entries through the probe.",
        regions_at(1.0).len()
    ));
    let rows: Vec<Vec<String>> = r
        .sweep
        .iter()
        .map(|p| {
            vec![
                p.store.to_string(),
                format!("{}", p.t_hours),
                p.plan.map_or("either", |plan| plan.name()).to_string(),
                p.pages_read.to_string(),
                p.pages_pruned.to_string(),
                format!("{:.2}", p.examined as f64 / p.results.max(1) as f64),
                p.results.to_string(),
                format!("{:.3}", p.ms_per_query),
            ]
        })
        .collect();
    report.table(
        &[
            "store",
            "T (h)",
            "plan",
            "pages read",
            "pages pruned",
            "examined / result",
            "results",
            "ms / query",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bigcorpus_holds_the_invariants() {
        let mut scale = Scale::tiny();
        // Enough days that a quarter of the corpus clears the 16-page
        // pool floor, keeping the 4x larger-than-RAM invariant honest
        // (with corners sealed as f32 sketches, 24 days fall short).
        scale.subset_days = 28;
        scale.repeats = 2;
        let r = run_bigcorpus(&scale);
        assert!(
            r.corpus_bytes >= 4 * r.pool_bytes,
            "corpus {} not 4x pool {}",
            r.corpus_bytes,
            r.pool_bytes
        );
        assert!(
            r.compression_ratio > 1.0,
            "no compression: {}",
            r.compression_ratio
        );
        assert!(
            r.corner_ratio >= 2.0,
            "corner columns must compress 2x: {}",
            r.corner_ratio
        );
        assert!(r.extents_pruned > 0, "zone hierarchy never pruned extents");
        assert_eq!(r.points.len(), 2);
        let (seq, idx) = (
            r.points.iter().find(|p| p.plan == "seq_scan").unwrap(),
            r.points.iter().find(|p| p.plan == "index").unwrap(),
        );
        assert_eq!(seq.results, idx.results, "plans disagree: {:?}", r.points);
        // The sweep: on the row store the plans agree at every window; the
        // sealed store returns the same, its counts do not depend on the
        // pool, and on its clustered heaps a short window skips most pages
        // and a long one few.
        let windows = SWEEP_HOURS.len();
        assert_eq!(r.sweep.len(), 4 * windows);
        let (row, sealed) = r.sweep.split_at(2 * windows);
        let (quarter, resident) = sealed.split_at(windows);
        for ((pair, q), res) in row.chunks(2).zip(quarter).zip(resident) {
            assert_eq!(pair[0].results, pair[1].results, "{pair:?}");
            assert_eq!(pair[0].results, q.results, "{q:?}");
            let counts = |p: &PlanAtT| (p.pages_read, p.pages_pruned, p.examined, p.results);
            assert_eq!(counts(q), counts(res), "{q:?} / {res:?}");
            assert!(q.plan.is_none() && q.examined < pair[1].examined, "{q:?}");
        }
        let scanned_share =
            |p: &PlanAtT| p.pages_read as f64 / (p.pages_read + p.pages_pruned) as f64;
        let (short, long) = (&quarter[0], &quarter[windows - 1]);
        assert!(scanned_share(short) < 0.25, "{short:?}");
        assert!(scanned_share(long) > 0.75, "{long:?}");
        let mut report = Report::new();
        bigcorpus_report(&r, &mut report);
        let md = report.markdown();
        assert!(
            md.contains("extents pruned") && md.contains("seq_scan"),
            "{md}"
        );
        assert!(md.contains("examined / result") && md.contains("either"));
    }
}

#[cfg(test)]
mod dbg_tests {
    use super::*;
    #[test]
    #[ignore]
    fn dump_per_column_ratios() {
        let root = scratch_dir("bigcorpus-dbg");
        std::fs::remove_dir_all(&root).ok();
        let cfg = SegDiffConfig::default()
            .with_epsilon(0.2)
            .with_window(8.0 * HOUR)
            .with_pool_pages(2048)
            .with_durable(false);
        let gen_cfg = CadTransectConfig::default().with_days(24);
        let mut idx = SegDiffIndex::create(&root, cfg).expect("create");
        let series = RobustSmoother::default().smooth(&generate_sensor(&gen_cfg, 12, 20_080_325));
        idx.ingest_series(&series).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        for (name, s) in idx.compact_storage().unwrap() {
            let cols: Vec<String> = s
                .col_raw
                .iter()
                .zip(&s.col_stored)
                .map(|(&r, &st)| format!("{:.2}", r as f64 / st.max(1) as f64))
                .collect();
            eprintln!(
                "{name}: ratio={:.2} cols=[{}] raw={} stored={}",
                s.ratio(),
                cols.join(","),
                s.raw_bytes,
                s.stored_bytes
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
