//! The view store against the row store on one corpus: what a compaction
//! keeps on disk, and what a search costs, over the stored rows and
//! generated from the segments.
//!
//! The run builds a SegDiff index, sweeps both plans over the benchmark's
//! regions per window `T` on the row store (arrival order, whole B+trees,
//! read through [`segdiff::SegDiffIndex::query_stored_rows`]), sweeps them
//! again as a search runs them there (every row generated from the
//! segments, [`segdiff::SegDiffIndex::query`]), compacts it
//! ([`segdiff::SegDiffIndex::compact_storage`]: `segments` sealed into
//! columnar pages, every feature row of the sealed run cut), reopens it
//! with a pool a quarter of the row store's heap, and sweeps a third time.
//! The view store's rows are generated at query time, so that sweep
//! reports per window the segment pairs within `T` and the boundaries
//! computed a result, next to the row store's rows examined a result and
//! the three sweeps' time a query; every answer must equal the row
//! store's, on both plans. One region no pair can match must be rejected
//! by the zone summary of `segments` before a segment is read — the
//! `zonemap.extents_pruned` counter proves it.

use crate::harness::{scratch_dir, with_registry_delta, Scale};
use crate::report::Report;
use featurespace::QueryRegion;
use segdiff::{QueryPlan, QueryStats, SegDiffConfig, SegDiffIndex, SegmentPair};
use sensorgen::{generate_sensor, smooth::RobustSmoother, CadTransectConfig, HOUR};
use std::path::Path;
use std::time::Instant;

/// Outcome of one big-corpus run.
#[derive(Debug)]
pub struct BigCorpusResult {
    /// Bytes on disk by kind of file: `(kind, row store, view store)`.
    pub bytes: Vec<(&'static str, u64, u64)>,
    /// Buffer-pool bytes the view store's queries ran with.
    pub pool_bytes: u64,
    /// `zonemap.extents_pruned` delta (heaps skipped whole) across the
    /// unsatisfiable region on the view store.
    pub extents_pruned: u64,
    /// Registry delta across the view store's sweep.
    pub metrics: obs::MetricsSnapshot,
    /// Both plans per window on the row store, then generated on the row
    /// store, then on the view store.
    pub sweep: Vec<PlanAtT>,
}

/// One plan over the regions of one window `T` on one store: the counts
/// of one pass over `regions_at`, which repeat, and the time of a query.
#[derive(Debug, Clone)]
pub struct PlanAtT {
    /// `"row"` (never compacted, its stored rows read), `"generated"`
    /// (never compacted, every row generated) or `"view"` (compacted).
    pub store: &'static str,
    /// The window `T`, in hours.
    pub t_hours: f64,
    /// The plan that ran.
    pub plan: QueryPlan,
    /// Pages asked of the pool.
    pub pages_read: u64,
    /// Segment pairs within `T` generated (0 on the row store).
    pub pairs: u64,
    /// Rows examined: boundaries computed, rows through the scan's kernel
    /// or entries through the probe.
    pub examined: u64,
    /// Pairs returned.
    pub results: u64,
    /// Median over the timed passes of pass time / regions, microseconds.
    pub us_per_query: f64,
}

/// The windows of the sweep (the benchmark's grid).
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

/// Runs both plans through `search` over every window's regions: one pass
/// each that fills the pool as far as it goes and takes the counts — every
/// answer checked against `want`, when given, or recorded into it — then
/// `repeats` timed rounds of one pass each (rounds, not a burst per row, so
/// a busy moment of the host lands on every row alike).
fn sweep_plans(
    search: impl Fn(&QueryRegion, QueryPlan) -> (Vec<SegmentPair>, QueryStats),
    store: &'static str,
    repeats: u32,
    want: &mut Vec<Vec<SegmentPair>>,
    out: &mut Vec<PlanAtT>,
) {
    let check = !want.is_empty();
    let mut answer = 0;
    let first = out.len();
    for t_hours in SWEEP_HOURS {
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            let mut row = PlanAtT {
                store,
                t_hours,
                plan,
                pages_read: 0,
                pairs: 0,
                examined: 0,
                results: 0,
                us_per_query: 0.0,
            };
            for region in regions_at(t_hours) {
                let (got, stats) = search(&region, plan);
                row.pairs += stats.generated.pairs_within_t;
                row.pages_read += stats.io.hits + stats.io.misses;
                row.examined += stats.rows_considered;
                row.results += stats.results;
                if check {
                    assert!(got == want[answer], "{store} {plan:?} on {region:?}");
                } else {
                    want.push(got);
                }
                answer += 1;
            }
            out.push(row);
        }
    }
    let rows = &mut out[first..];
    let mut pass_us = vec![Vec::new(); rows.len()];
    for _ in 0..repeats.max(1) {
        for (row, us) in rows.iter().zip(&mut pass_us) {
            let regions = regions_at(row.t_hours);
            let t = Instant::now();
            for region in &regions {
                search(region, row.plan);
            }
            us.push(t.elapsed().as_secs_f64() * 1e6 / regions.len() as f64);
        }
    }
    for (row, mut us) in rows.iter_mut().zip(pass_us) {
        us.sort_by(|a, b| a.total_cmp(b));
        row.us_per_query = us[us.len() / 2];
    }
}

/// The kinds of file a store holds, in report order.
const KINDS: [&str; 5] = [
    "segments heap",
    "feature heaps",
    "trees",
    "catalogue and meta",
    "log",
];

/// Bytes on disk in `dir` by kind of file ([`KINDS`]).
fn bytes_by_kind(dir: &Path) -> [u64; 5] {
    let mut bytes = [0; 5];
    for entry in std::fs::read_dir(dir).expect("store directory") {
        let entry = entry.expect("directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let kind = match name.split_once('.') {
            Some(("segments", "tbl")) => 0,
            Some((_, "tbl")) => 1,
            Some((_, ext)) if ext.ends_with("idx") => 2,
            Some(("wal", _)) => 4,
            _ => 3,
        };
        bytes[kind] += entry.metadata().expect("file size").len();
    }
    bytes
}

/// Builds the corpus, sweeps the row store's stored rows and then its
/// segments, compacts it into the view store, reopens it behind a quarter
/// of the row store's heap, and sweeps again.
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
    let series = RobustSmoother::default().smooth(&generate_sensor(&gen_cfg, 12, scale.seed));
    idx.ingest_series(&series).expect("ingest sensor");
    idx.finish().expect("finish");
    idx.build_indexes().expect("build indexes");
    let (mut sweep, mut want) = (Vec::new(), Vec::new());
    let stored = |region: &QueryRegion, plan| idx.query_stored_rows(region, plan).expect("query");
    sweep_plans(stored, "row", scale.repeats, &mut want, &mut sweep);
    let generated = |region: &QueryRegion, plan| idx.query(region, plan).expect("query");
    sweep_plans(generated, "generated", scale.repeats, &mut want, &mut sweep);
    let row_bytes = bytes_by_kind(&root);
    let heap_pages = idx.stats().heap_bytes / pagestore::PAGE_SIZE as u64;

    idx.compact_storage().expect("compact");
    drop(idx);
    let pool_pages = ((heap_pages / 4) as usize).max(16);
    let idx = SegDiffIndex::open(&root, pool_pages).expect("reopen");
    let view_bytes = bytes_by_kind(&root);
    let view = |region: &QueryRegion, plan| idx.query(region, plan).expect("query");
    let ((), metrics) =
        with_registry_delta(|| sweep_plans(view, "view", scale.repeats, &mut want, &mut sweep));
    let (_, unsatisfiable) = with_registry_delta(|| {
        // No synthetic sensor falls 30 degC in an hour.
        let region = QueryRegion::drop(1.0 * HOUR, -30.0);
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            let (got, _) = idx.query(&region, plan).expect("query");
            assert!(got.is_empty(), "{plan:?}: a 30 degC drop");
        }
    });
    drop(idx);
    std::fs::remove_dir_all(&root).ok();
    BigCorpusResult {
        bytes: KINDS
            .iter()
            .zip(row_bytes.iter().zip(view_bytes))
            .map(|(&kind, (&row, view))| (kind, row, view))
            .collect(),
        pool_bytes: pool_pages as u64 * pagestore::PAGE_SIZE as u64,
        extents_pruned: unsatisfiable
            .counters
            .get("zonemap.extents_pruned")
            .copied()
            .unwrap_or(0),
        metrics,
        sweep,
    }
}

/// Renders the big-corpus section of the report.
pub fn bigcorpus_report(r: &BigCorpusResult, report: &mut Report) {
    report.heading("Big corpus (beyond the paper): the view store against the row store");
    let (row, view): (u64, u64) = r
        .bytes
        .iter()
        .map(|&(_, a, b)| (a, b))
        .fold((0, 0), |s, b| (s.0 + b.0, s.1 + b.1));
    report.para(&format!(
        "Bytes on disk by kind of file: the row store ({row} B) and, after a \
         compaction, the view store ({view} B), whose feature rows are \
         generated from the sealed segments at query time. The view store's \
         queries ran through a {:.1} MiB buffer pool; the zone summary of \
         `segments` skipped it whole {} times on the unsatisfiable region.",
        r.pool_bytes as f64 / (1 << 20) as f64,
        r.extents_pruned,
    ));
    let rows: Vec<Vec<String>> = r
        .bytes
        .iter()
        .map(|(kind, row, view)| vec![kind.to_string(), row.to_string(), view.to_string()])
        .collect();
    report.table(&["file kind", "row store B", "view store B"], &rows);
    report.para(&format!(
        "\nPer window T and plan, one pass over {} regions (8 drops, 4 jumps) \
         for the counts, the median of the timed passes for the time: the \
         segment pairs within T of the sealed run, the boundaries computed a \
         result there, against the rows (scan) or entries (index) examined a \
         result on the row store, and microseconds a query on each, and on \
         the row store with every row generated from its segments, as a \
         search runs it there.",
        regions_at(1.0).len()
    ));
    let third = r.sweep.len() / 3;
    let rows: Vec<Vec<String>> = r.sweep[..third]
        .iter()
        .zip(&r.sweep[third..2 * third])
        .zip(&r.sweep[2 * third..])
        .map(|((row, generated), view)| {
            let per_result =
                |p: &PlanAtT| format!("{:.2}", p.examined as f64 / p.results.max(1) as f64);
            vec![
                format!("{}", view.t_hours),
                view.plan.name().to_string(),
                view.pairs.to_string(),
                per_result(view),
                per_result(row),
                view.results.to_string(),
                format!("{:.1}", view.us_per_query),
                format!("{:.1}", row.us_per_query),
                format!("{:.1}", generated.us_per_query),
            ]
        })
        .collect();
    report.table(
        &[
            "T (h)",
            "plan",
            "pairs within T",
            "boundaries / result",
            "row store rows / result",
            "results",
            "µs / query",
            "row store µs / query",
            "row store generated µs / query",
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
        scale.subset_days = 12;
        scale.repeats = 2;
        let r = run_bigcorpus(&scale);
        assert!(r.extents_pruned > 0, "zone summary never pruned the run");
        let bytes = |kind: &str| *r.bytes.iter().find(|b| b.0 == kind).unwrap();
        // Six feature heaps and eight trees that hold nothing own no page.
        for kind in ["feature heaps", "trees"] {
            assert_eq!(bytes(kind).2, 0, "{kind}");
        }
        assert!(bytes("segments heap").2 < bytes("segments heap").1);
        let total =
            |view: bool| -> u64 { r.bytes.iter().map(|b| if view { b.2 } else { b.1 }).sum() };
        assert!(total(true) * 5 < total(false), "{:?}", r.bytes);
        // Both stores answered alike (checked in the sweep); a longer window
        // pairs more segments, and the sealed run computes a few boundaries
        // a result. Generated on the row store, the rows are the view's.
        let windows = SWEEP_HOURS.len();
        let (row, rest) = r.sweep.split_at(2 * windows);
        let (generated, view) = rest.split_at(2 * windows);
        for ((row, generated), view) in row.iter().zip(generated).zip(view) {
            assert_eq!((row.plan, row.results), (view.plan, view.results));
            assert!(row.pairs == 0 && view.pairs > 0, "{view:?}");
            assert!(view.examined <= 10 * view.results.max(1), "{view:?}");
            let counts = |p: &PlanAtT| (p.plan, p.pairs, p.examined, p.results);
            assert_eq!(counts(generated), counts(view));
        }
        assert!(view[0].pairs < view[2 * windows - 1].pairs);
        let mut report = Report::new();
        bigcorpus_report(&r, &mut report);
        let md = report.markdown();
        assert!(
            md.contains("pairs within T") && md.contains("feature heaps"),
            "{md}"
        );
    }
}
