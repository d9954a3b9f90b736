//! The experiments of paper §6, one function per table/figure family.
//!
//! Four underlying sweeps feed every table and figure:
//!
//! * [`run_eps_sweep`] — ε ∈ {0.1, 0.2, 0.4, 0.8, 1.0} at the default
//!   window (Tables 3–6, Figures 7–11);
//! * [`run_w_sweep`] — w ∈ {1, 4, 8, 12, 16} h at ε = 0.2 (Table 7,
//!   Figures 12–13);
//! * [`run_scaling`] — five incremental data groups (Figures 14–15);
//! * [`run_random_queries`] — random query regions, warm and cold caches
//!   (Figures 16–24).
//!
//! Beyond §6, [`run_ablations`] sets each design choice DESIGN.md calls out
//! against its alternative and [`run_durability`] prices the WAL.

use crate::harness::{
    build_exh, build_segdiff, default_region, default_series, scratch_dir, time_query_exh,
    time_query_segdiff, Scale, TimedQuery,
};
use crate::report::{mib, ms, ratio, Report};
use featurespace::QueryRegion;
use segdiff::{CornerHistogram, QueryPlan};
use sensorgen::{TimeSeries, HOUR};

/// The five error tolerances of the paper's §6.1 sweep.
pub const EPSILONS: [f64; 5] = [0.1, 0.2, 0.4, 0.8, 1.0];
/// The five window widths (hours) of §6.2.
pub const WINDOWS_H: [f64; 5] = [1.0, 4.0, 8.0, 12.0, 16.0];

/// One ε point of the sweep.
pub struct EpsPoint {
    /// Error tolerance.
    pub eps: f64,
    /// Compression rate r.
    pub r: f64,
    /// SegDiff feature payload bytes (our physical layout).
    pub seg_payload: u64,
    /// SegDiff feature bytes under the paper's c2 accounting.
    pub seg_paper: u64,
    /// SegDiff heap + index bytes on disk.
    pub seg_disk: u64,
    /// SegDiff index bytes alone.
    pub seg_index: u64,
    /// Corner histogram over both kinds.
    pub hist: CornerHistogram,
    /// Default query, sequential scan, cold cache.
    pub scan: TimedQuery,
    /// Default query, index plan, cold cache.
    pub index: TimedQuery,
}

/// The full ε sweep, including the (ε-independent) Exh baseline.
pub struct EpsSweep {
    /// Observations in the subset.
    pub n: u64,
    /// One point per ε.
    pub points: Vec<EpsPoint>,
    /// Exh feature payload bytes (3 columns per row).
    pub exh_payload: u64,
    /// Exh heap + index bytes.
    pub exh_disk: u64,
    /// Exh index bytes alone.
    pub exh_index: u64,
    /// Exh default query, sequential scan, cold.
    pub exh_scan: TimedQuery,
    /// Exh default query, index plan, cold.
    pub exh_idx: TimedQuery,
}

/// Runs the ε sweep (§6.1) and returns every measured quantity.
pub fn run_eps_sweep(scale: &Scale) -> EpsSweep {
    let series = default_series(scale.subset_days, scale.seed);
    let w = 8.0 * HOUR;
    let region = default_region();

    let exh = build_exh(&series, w, scale.pool_pages, &scratch_dir("eps-exh"), true);
    let exh_stats = exh.index.stats();
    let exh_scan = time_query_exh(&exh, &region, QueryPlan::SeqScan, scale.repeats, true);
    let exh_idx = time_query_exh(&exh, &region, QueryPlan::Index, scale.repeats, true);

    let mut points = Vec::new();
    for (i, &eps) in EPSILONS.iter().enumerate() {
        let built = build_segdiff(
            &series,
            eps,
            w,
            scale.pool_pages,
            &scratch_dir(&format!("eps-{i}")),
            true,
        );
        let s = built.index.stats();
        let scan = time_query_segdiff(&built, &region, QueryPlan::SeqScan, scale.repeats, true);
        let index = time_query_segdiff(&built, &region, QueryPlan::Index, scale.repeats, true);
        points.push(EpsPoint {
            eps,
            r: s.compression_rate(),
            seg_payload: s.feature_payload_bytes,
            seg_paper: s.paper_feature_bytes,
            seg_disk: s.disk_bytes(),
            seg_index: s.index_bytes,
            hist: s.corner_hist(),
            scan,
            index,
        });
    }
    EpsSweep {
        n: series.len() as u64,
        points,
        exh_payload: exh_stats.feature_payload_bytes,
        exh_disk: exh_stats.disk_bytes(),
        exh_index: exh_stats.index_bytes,
        exh_scan,
        exh_idx,
    }
}

/// Table 3: compression rate under different tolerances.
pub fn table3(sweep: &EpsSweep, report: &mut Report) {
    report.heading("Table 3 — compression rate r under different error tolerances");
    report.table(
        &["eps", "r"],
        &sweep
            .points
            .iter()
            .map(|p| vec![format!("{}", p.eps), format!("{:.2}", p.r)])
            .collect::<Vec<_>>(),
    );
    report.para("(paper: 4.73, 7.03, 10.52, 16.10, 18.55 — r grows with eps)");
}

/// Table 4: corner-case distribution under different tolerances.
pub fn table4(sweep: &EpsSweep, report: &mut Report) {
    report.heading("Table 4 — percentage of corner cases under different tolerances");
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.eps),
                format!("{:.2}", p.hist.percent(1)),
                format!("{:.2}", p.hist.percent(2)),
                format!("{:.2}", p.hist.percent(3)),
                format!("{:.2}", p.hist.effective_corners()),
            ]
        })
        .collect();
    report.table(
        &[
            "eps",
            "one corner %",
            "two corners %",
            "three corners %",
            "effective",
        ],
        &rows,
    );
    report.para(
        "(paper at eps = 0.2: 19.83 / 46.79 / 33.37, effectively 2.13 corners — \
         the case analysis roughly halves corner storage)",
    );
}

/// Table 5: ratio of feature sizes and of sequential-scan times vs ε.
pub fn table5(sweep: &EpsSweep, report: &mut Report) {
    report.heading("Table 5 — ratios r_f (feature size) and r_st (seq-scan time) vs eps");
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.eps),
                ratio(sweep.exh_payload as f64, p.seg_payload as f64),
                ratio(sweep.exh_payload as f64, p.seg_paper as f64),
                ratio(sweep.exh_scan.seconds, p.scan.seconds),
            ]
        })
        .collect();
    report.table(&["eps", "r_f (physical)", "r_f (paper c2)", "r_st"], &rows);
    report.para("(paper: r_f 5.88..61.71, r_st 3.19..19.22 — both grow with eps)");
}

/// Table 6: ratio of disk sizes and of indexed execution times vs ε.
pub fn table6(sweep: &EpsSweep, report: &mut Report) {
    report.heading("Table 6 — ratios r_d (disk size) and r_it (indexed time) vs eps");
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.eps),
                ratio(sweep.exh_disk as f64, p.seg_disk as f64),
                ratio(sweep.exh_idx.seconds, p.index.seconds),
                ratio(
                    sweep.exh_idx.pages_read as f64,
                    p.index.pages_read.max(1) as f64,
                ),
            ]
        })
        .collect();
    report.table(&["eps", "r_d", "r_it (wall)", "r_it (pages)"], &rows);
    report.para("(paper: r_d 4.26..44.42, r_it 5.88..279.34 — indexes amplify Exh's size penalty)");
}

/// Figures 7–11: feature/disk sizes and query times as functions of r.
pub fn figs7_to_11(sweep: &EpsSweep, report: &mut Report) {
    report.heading("Figures 7-11 — sizes and times vs compression rate r");
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.r),
                mib(p.seg_payload),
                ratio(sweep.exh_payload as f64, p.seg_payload as f64),
                mib(p.seg_disk),
                ms(p.scan.seconds),
                ms(p.index.seconds),
            ]
        })
        .collect();
    report.table(
        &[
            "r",
            "feat MiB (fig 8)",
            "size ratio (fig 7)",
            "disk MiB (fig 9)",
            "scan ms (fig 10)",
            "index ms (fig 11)",
        ],
        &rows,
    );
    report.para(&format!(
        "Exh reference: features {} MiB, disk {} MiB, scan {} ms, index {} ms \
         (n = {}; curves should fall like 1/r; indexes lose to scans on this \
         large-result default query, as in the paper).",
        mib(sweep.exh_payload),
        mib(sweep.exh_disk),
        ms(sweep.exh_scan.seconds),
        ms(sweep.exh_idx.seconds),
        sweep.n
    ));
    // Shape check the paper emphasizes: SegDiff index overhead exceeds its
    // feature size (B-trees on repeated columns).
    for p in &sweep.points {
        if p.seg_index < p.seg_payload {
            report.para(&format!(
                "note: at eps = {} index bytes ({}) did not exceed feature bytes ({}).",
                p.eps,
                mib(p.seg_index),
                mib(p.seg_payload)
            ));
        }
    }
}

/// One point of the window sweep.
pub struct WPoint {
    /// Window width in hours.
    pub w_hours: f64,
    /// SegDiff feature payload bytes.
    pub seg_payload: u64,
    /// SegDiff disk bytes.
    pub seg_disk: u64,
    /// Exh feature payload bytes.
    pub exh_payload: u64,
    /// Exh disk bytes.
    pub exh_disk: u64,
    /// SegDiff scan time for the default query (cold).
    pub seg_scan: TimedQuery,
    /// Exh scan time for the default query (cold).
    pub exh_scan: TimedQuery,
}

/// Runs the window sweep (§6.2) at ε = 0.2.
pub fn run_w_sweep(scale: &Scale) -> Vec<WPoint> {
    let series = default_series(scale.subset_days, scale.seed);
    let region = default_region();
    WINDOWS_H
        .iter()
        .enumerate()
        .map(|(i, &wh)| {
            let w = wh * HOUR;
            let seg = build_segdiff(
                &series,
                0.2,
                w,
                scale.pool_pages,
                &scratch_dir(&format!("w-seg-{i}")),
                true,
            );
            let exh = build_exh(
                &series,
                w,
                scale.pool_pages,
                &scratch_dir(&format!("w-exh-{i}")),
                true,
            );
            let ss = seg.index.stats();
            let es = exh.index.stats();
            let seg_scan =
                time_query_segdiff(&seg, &region, QueryPlan::SeqScan, scale.repeats, true);
            let exh_scan = time_query_exh(&exh, &region, QueryPlan::SeqScan, scale.repeats, true);
            WPoint {
                w_hours: wh,
                seg_payload: ss.feature_payload_bytes,
                seg_disk: ss.disk_bytes(),
                exh_payload: es.feature_payload_bytes,
                exh_disk: es.disk_bytes(),
                seg_scan,
                exh_scan,
            }
        })
        .collect()
}

/// Table 7 and Figures 12–13 from the window sweep.
pub fn table7_figs12_13(points: &[WPoint], report: &mut Report) {
    report.heading("Table 7 + Figures 12-13 — window width sweep (eps = 0.2)");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.w_hours),
                mib(p.seg_payload),
                mib(p.exh_payload),
                ratio(p.exh_payload as f64, p.seg_payload as f64),
                ratio(p.exh_disk as f64, p.seg_disk as f64),
                ms(p.seg_scan.seconds),
                ms(p.exh_scan.seconds),
            ]
        })
        .collect();
    report.table(
        &[
            "w (h)",
            "SegDiff MiB",
            "Exh MiB",
            "r_f",
            "r_d",
            "SegDiff scan ms",
            "Exh scan ms",
        ],
        &rows,
    );
    report.para(
        "(paper: r_f 5.89 -> 13.94 and r_d 4.51 -> 10.18 as w grows 1 -> 16 h; \
         both systems' sizes grow roughly linearly in w but SegDiff's \
         advantage widens)",
    );
}

/// One point of the scalability run.
pub struct ScalePoint {
    /// Cumulative observations inserted.
    pub n_obs: u64,
    /// SegDiff feature payload bytes.
    pub seg_payload: u64,
    /// SegDiff scan time, cold.
    pub seg_scan: TimedQuery,
    /// Exh feature payload bytes, if Exh was still being built.
    pub exh_payload: Option<u64>,
    /// Exh scan time, cold, if measured.
    pub exh_scan: Option<TimedQuery>,
}

/// Runs the §6.3 scalability experiment: the full workload split into five
/// groups, inserted incrementally. Exh is aborted after two groups, exactly
/// like the paper ("it would take too much time to complete Exh's
/// experiments"), and extrapolated linearly afterwards.
pub fn run_scaling(scale: &Scale) -> Vec<ScalePoint> {
    let series = default_series(scale.full_days, scale.seed);
    let w = 8.0 * HOUR;
    let region = default_region();
    let group = series.len() / 5;

    let mut seg = build_segdiff(
        &TimeSeries::new(),
        0.2,
        w,
        scale.pool_pages,
        &scratch_dir("scale-seg"),
        false,
    );
    let mut exh = build_exh(
        &TimeSeries::new(),
        w,
        scale.pool_pages,
        &scratch_dir("scale-exh"),
        false,
    );

    let mut out = Vec::new();
    for g in 0..5 {
        let lo = g * group;
        let hi = if g == 4 {
            series.len()
        } else {
            (g + 1) * group
        };
        for i in lo..hi {
            let (t, v) = series.get(i);
            seg.index.push(t, v).expect("seg push");
            if g < 2 {
                exh.index.push(t, v).expect("exh push");
            }
        }
        if g == 4 {
            // flush the trailing segment before the final measurement
            seg.index.finish().expect("finish");
        }
        let ss = seg.index.stats();
        let seg_scan = time_query_segdiff(&seg, &region, QueryPlan::SeqScan, scale.repeats, true);
        let (exh_payload, exh_scan) = if g < 2 {
            exh.index.finish().expect("exh flush");
            let es = exh.index.stats();
            let t = time_query_exh(&exh, &region, QueryPlan::SeqScan, scale.repeats, true);
            (Some(es.feature_payload_bytes), Some(t))
        } else {
            (None, None)
        };
        out.push(ScalePoint {
            n_obs: ss.n_observations,
            seg_payload: ss.feature_payload_bytes,
            seg_scan,
            exh_payload,
            exh_scan,
        });
    }
    out
}

/// Figures 14–15 from the scalability run.
pub fn figs14_15(points: &[ScalePoint], report: &mut Report) {
    report.heading("Figures 14-15 — feature size and scan time vs number of observations");
    // Linear extrapolation of Exh from the first two groups.
    let slope = match (&points[0].exh_payload, &points[1].exh_payload) {
        (Some(a), Some(b)) => {
            (*b as f64 - *a as f64) / (points[1].n_obs as f64 - points[0].n_obs as f64)
        }
        _ => 0.0,
    };
    let base = points[1].exh_payload.unwrap_or(0) as f64;
    let base_n = points[1].n_obs as f64;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let exh_feat = match p.exh_payload {
                Some(b) => mib(b),
                None => format!(
                    "~{} (extrapolated)",
                    mib((base + slope * (p.n_obs as f64 - base_n)) as u64)
                ),
            };
            vec![
                format!("{}", p.n_obs),
                mib(p.seg_payload),
                exh_feat,
                ms(p.seg_scan.seconds),
                p.exh_scan
                    .map(|t| ms(t.seconds))
                    .unwrap_or_else(|| "aborted".into()),
            ]
        })
        .collect();
    report.table(
        &[
            "n",
            "SegDiff MiB",
            "Exh MiB",
            "SegDiff scan ms",
            "Exh scan ms",
        ],
        &rows,
    );
    report.para(
        "(paper: both grow linearly in n; Exh aborted after two groups with \
         1328 MB vs SegDiff's 108 MB, a 12.26x gap; SegDiff answers within \
         10 s for all sensors)",
    );
}

/// One random query region with all eight measurements.
pub struct RandomQueryPoint {
    /// Time-span threshold in hours.
    pub t_hours: f64,
    /// Drop threshold (degC, negative).
    pub v: f64,
    /// SegDiff results returned.
    pub results: u64,
    /// seg scan / seg index / exh scan / exh index, warm.
    pub warm: [f64; 4],
    /// Same, cold cache.
    pub cold: [f64; 4],
}

/// Runs the §6.4 random-query study. `n_queries` regions are sampled
/// uniformly over (T, V) query space, matching Figure 16's coverage.
pub fn run_random_queries(scale: &Scale, n_queries: usize) -> Vec<RandomQueryPoint> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let series = default_series(scale.subset_days, scale.seed);
    let w = 8.0 * HOUR;
    let seg = build_segdiff(
        &series,
        0.2,
        w,
        scale.pool_pages,
        &scratch_dir("rq-seg"),
        true,
    );
    let exh = build_exh(&series, w, scale.pool_pages, &scratch_dir("rq-exh"), true);

    let v_extent = series.value_range();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xABCD);
    let mut out = Vec::new();
    let repeats = scale.repeats.min(3);
    for _ in 0..n_queries {
        let t_hours = 0.25 + rng.random::<f64>() * 7.75;
        let v = -(0.5 + rng.random::<f64>() * (0.8 * v_extent));
        let region = QueryRegion::drop(t_hours * HOUR, v);
        let mut warm = [0.0f64; 4];
        let mut cold = [0.0f64; 4];
        let mut results = 0;
        for (slot, (plan, is_cold)) in [
            (QueryPlan::SeqScan, false),
            (QueryPlan::Index, false),
            (QueryPlan::SeqScan, true),
            (QueryPlan::Index, true),
        ]
        .iter()
        .enumerate()
        {
            let tq = time_query_segdiff(&seg, &region, *plan, repeats, *is_cold);
            results = tq.results;
            if *is_cold {
                cold[slot - 2] = tq.seconds;
            } else {
                warm[slot] = tq.seconds;
            }
        }
        for (slot, (plan, is_cold)) in [
            (QueryPlan::SeqScan, false),
            (QueryPlan::Index, false),
            (QueryPlan::SeqScan, true),
            (QueryPlan::Index, true),
        ]
        .iter()
        .enumerate()
        {
            let tq = time_query_exh(&exh, &region, *plan, repeats, *is_cold);
            if *is_cold {
                cold[slot] = tq.seconds;
            } else {
                warm[slot + 2] = tq.seconds;
            }
        }
        // Layout: warm = [seg_scan, seg_idx, exh_scan, exh_idx]
        //         cold = [seg_scan, seg_idx, exh_scan, exh_idx]
        out.push(RandomQueryPoint {
            t_hours,
            v,
            results,
            warm,
            cold,
        });
    }
    out
}

/// Figures 16–24 from the random-query study.
pub fn figs16_24(points: &[RandomQueryPoint], report: &mut Report) {
    report.heading("Figure 16 — coverage of random queries (T in hours, V in degC)");
    let hard_threshold = {
        // "Hard" = top quartile by retrieval volume (the quantity that
        // drives query time for both systems; the paper's hard region is
        // the top-right triangle of query space where the most tuples are
        // retrieved).
        let mut counts: Vec<u64> = points.iter().map(|p| p.results).collect();
        counts.sort_unstable();
        counts[3 * counts.len() / 4].max(1)
    };
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.t_hours),
                format!("{:.2}", p.v),
                format!("{}", p.results),
                if p.results >= hard_threshold {
                    "hard".into()
                } else {
                    "".into()
                },
            ]
        })
        .collect();
    report.table(&["T (h)", "V", "SegDiff results", "class"], &rows);
    report.para(
        "(paper: hard queries cluster at large T / shallow V — the top-right \
         triangular region retrieving the most tuples)",
    );

    report.heading("Figures 17-20 — per-query times with cache (ms)");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.t_hours),
                format!("{:.2}", p.v),
                ms(p.warm[2]),
                ms(p.warm[0]),
                ms(p.warm[3]),
                ms(p.warm[1]),
            ]
        })
        .collect();
    report.table(
        &[
            "T (h)",
            "V",
            "Exh scan (17)",
            "SegDiff scan (18)",
            "Exh index (19)",
            "SegDiff index (20)",
        ],
        &rows,
    );

    fn gmean(
        points: &[RandomQueryPoint],
        num: impl Fn(&RandomQueryPoint) -> f64,
        den: impl Fn(&RandomQueryPoint) -> f64,
    ) -> f64 {
        let logs: Vec<f64> = points
            .iter()
            .filter(|p| den(p) > 0.0 && num(p) > 0.0)
            .map(|p| (num(p) / den(p)).ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    }
    report.heading("Figures 21-24 — time ratios Exh/SegDiff (geometric mean over queries)");
    report.table(
        &["metric", "ratio"],
        &[
            vec![
                "scan, warm (fig 21; paper ~9x)".into(),
                format!("{:.2}", gmean(points, |p| p.warm[2], |p| p.warm[0])),
            ],
            vec![
                "index, warm (fig 22; paper ~10x)".into(),
                format!("{:.2}", gmean(points, |p| p.warm[3], |p| p.warm[1])),
            ],
            vec![
                "scan, cold (fig 23; paper ~9x)".into(),
                format!("{:.2}", gmean(points, |p| p.cold[2], |p| p.cold[0])),
            ],
            vec![
                "index, cold (fig 24; paper ~20x)".into(),
                format!("{:.2}", gmean(points, |p| p.cold[3], |p| p.cold[1])),
            ],
        ],
    );
}

/// One variant of one design choice, as a row of the ablation table.
pub struct AblationRow {
    /// The design choice.
    pub ablation: &'static str,
    /// The variant of it this row ran.
    pub variant: &'static str,
    /// What the variant keeps, as printed.
    pub stored: String,
    /// The same as a number: payload bytes, tree entries or segments.
    pub size: u64,
    /// Mean wall-clock seconds of one query, build or segmentation.
    pub seconds: f64,
    /// Pairs or events returned, entries held, or segments produced.
    pub answers: u64,
}

/// Composite keys of the index-build ablation.
const ABLATION_KEYS: u64 = 50_000;

const CORNERS: &str = "corner reduction, scan of the default query";
const INDEX_BUILD: &str = "B+tree build";
const SEGMENTER: &str = "segmenter at eps = 0.2";
const MOTIVATION: &str = "the three systems of paper §1, default query";

/// Runs the ablations: 1–3 stored corners against all four, a bulk-loaded
/// B+tree against one-at-a-time inserts, the three segmenters under one
/// ε, and the naive on-the-fly search against Exh and SegDiff. Variants
/// that must agree are compared before anything is timed.
///
/// # Panics
///
/// Panics if the two corner stores return different pairs, the two trees
/// hold different entries, naive and Exh return different events, a
/// segmenter breaks Lemma 1's `ε/2`, or the stores are not ordered naive <
/// SegDiff ≪ Exh in size.
pub fn run_ablations(scale: &Scale) -> Vec<AblationRow> {
    use pagestore::{BTree, BufferPool, PageFile};
    use segdiff::ablation::FullCornerIndex;
    use segdiff::naive::NaiveSearch;
    use segmentation::Segmenter;
    use std::hint::black_box;
    use std::time::Instant;

    let series = default_series(scale.subset_days, scale.seed);
    let (eps, w, region) = (0.2, 8.0 * HOUR, default_region());
    let repeats = scale.repeats.max(1);
    let mean = |total: f64| total / repeats as f64;
    let warm = |query: &dyn Fn() -> segdiff::QueryStats| {
        query();
        mean((0..repeats).map(|_| query().wall_seconds).sum())
    };
    let payload = |bytes: u64| format!("{} MiB payload", mib(bytes));
    let base = scratch_dir("ablations");
    std::fs::remove_dir_all(&base).ok();
    let mut rows = Vec::new();

    let seg = build_segdiff(&series, eps, w, scale.pool_pages, &base.join("seg"), false);
    let seg_bytes = seg.index.stats().feature_payload_bytes;
    let seg_scan = || {
        seg.index
            .query_stored_rows(&region, QueryPlan::SeqScan)
            .expect("segdiff query")
    };
    let mut full =
        FullCornerIndex::create(&base.join("full"), eps, w, scale.pool_pages).expect("create");
    full.ingest_series(&series).expect("ingest four-corner");
    full.finish().expect("finish four-corner");
    let full_bytes = full.stats().feature_payload_bytes;
    let (pairs, _) = seg_scan();
    let (full_pairs, _) = full.query(&region).expect("four-corner query");
    assert!(pairs == full_pairs, "corner reduction changed the results");
    assert!(seg_bytes < full_bytes, "corner reduction saved no space");
    let seg_seconds = warm(&|| seg_scan().1);
    rows.push(AblationRow {
        ablation: CORNERS,
        variant: "1-3 corners, range predicates",
        stored: payload(seg_bytes),
        size: seg_bytes,
        seconds: seg_seconds,
        answers: pairs.len() as u64,
    });
    rows.push(AblationRow {
        ablation: CORNERS,
        variant: "4 corners, geometric test",
        stored: payload(full_bytes),
        size: full_bytes,
        seconds: warm(&|| full.query(&region).expect("four-corner query").1),
        answers: full_pairs.len() as u64,
    });

    // Keys arrive scrambled; the bulk build pays for its own sort.
    let keys: Vec<[u8; 16]> = (0..ABLATION_KEYS)
        .map(|i| {
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes());
            k[8..].copy_from_slice(&i.to_be_bytes());
            k
        })
        .collect();
    let trees = base.join("trees");
    std::fs::create_dir_all(&trees).expect("create tree directory");
    let build = |bulk: bool| {
        let path = trees.join("tree.idx");
        std::fs::remove_file(&path).ok();
        let pool = std::sync::Arc::new(BufferPool::new(scale.pool_pages));
        let fid = pool
            .register_file(PageFile::create(&pagestore::OsVfs, &path).expect("create tree file"));
        let start = Instant::now();
        let tree = if bulk {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            BTree::bulk_load(pool, fid, 16, sorted.iter().map(|k| k.as_slice())).expect("bulk load")
        } else {
            let mut tree = BTree::open(pool, fid, 16).expect("open tree");
            for k in &keys {
                tree.insert(k).expect("insert");
            }
            tree
        };
        (tree, start.elapsed().as_secs_f64())
    };
    let entries = |tree: &BTree| {
        let mut held = Vec::new();
        tree.range(&[0; 16], &[0xFF; 16], |key| {
            held.push(<[u8; 16]>::try_from(key).expect("key width"));
            true
        })
        .expect("tree walk");
        held
    };
    let held = entries(&build(true).0);
    assert!(
        held == entries(&build(false).0),
        "bulk-loaded and inserted trees hold different entries"
    );
    for (variant, bulk) in [
        ("bulk load of sorted keys", true),
        ("one-at-a-time inserts", false),
    ] {
        rows.push(AblationRow {
            ablation: INDEX_BUILD,
            variant,
            stored: format!("{} entries", held.len()),
            size: held.len() as u64,
            seconds: mean((0..repeats).map(|_| build(bulk).1).sum()),
            answers: held.len() as u64,
        });
    }

    for alg in Segmenter::all() {
        let pla = alg.segment(&series, eps);
        let err = pla.max_abs_error(&series);
        assert!(err <= eps / 2.0 + 1e-9, "{} breaks Lemma 1", alg.name());
        let start = Instant::now();
        for _ in 0..repeats {
            black_box(alg.segment(black_box(&series), eps));
        }
        let segments = pla.num_segments() as u64;
        rows.push(AblationRow {
            ablation: SEGMENTER,
            variant: alg.name(),
            stored: format!(
                "{segments} segments, r = {:.2}, max error {err:.3}",
                pla.compression_rate(series.len())
            ),
            size: segments,
            seconds: mean(start.elapsed().as_secs_f64()),
            answers: segments,
        });
    }

    let exh = build_exh(&series, w, scale.pool_pages, &base.join("exh"), false);
    let exh_bytes = exh.index.stats().feature_payload_bytes;
    let exh_scan = || {
        exh.index
            .query(&region, QueryPlan::SeqScan)
            .expect("exh query")
    };
    let mut naive = NaiveSearch::create(&base.join("naive"), scale.pool_pages).expect("create");
    naive.ingest_series(&series).expect("ingest naive");
    naive.finish().expect("finish naive");
    let (events, _) = naive.query(&region).expect("naive query");
    assert!(events == exh_scan().0, "naive and Exh disagree");
    assert!(
        naive.payload_bytes() < seg_bytes && seg_bytes * 5 < exh_bytes,
        "store sizes are not naive < SegDiff << Exh"
    );
    rows.push(AblationRow {
        ablation: MOTIVATION,
        variant: "naive, differences on the fly",
        stored: payload(naive.payload_bytes()),
        size: naive.payload_bytes(),
        seconds: warm(&|| naive.query(&region).expect("naive query").1),
        answers: events.len() as u64,
    });
    rows.push(AblationRow {
        ablation: MOTIVATION,
        variant: "Exh scan, every difference stored",
        stored: payload(exh_bytes),
        size: exh_bytes,
        seconds: warm(&|| exh_scan().1),
        answers: events.len() as u64,
    });
    rows.push(AblationRow {
        ablation: MOTIVATION,
        variant: "SegDiff scan",
        stored: payload(seg_bytes),
        size: seg_bytes,
        seconds: seg_seconds,
        answers: pairs.len() as u64,
    });
    std::fs::remove_dir_all(&base).ok();
    rows
}

/// Renders the ablation table.
pub fn ablations_report(rows: &[AblationRow], report: &mut Report) {
    report.heading("Ablations (beyond the paper's evaluation)");
    let mut last = "";
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            // A design choice is named on the first of its rows.
            let ablation = if r.ablation == last { "" } else { r.ablation };
            last = r.ablation;
            vec![
                ablation.to_string(),
                r.variant.to_string(),
                r.stored.clone(),
                format!("{:.3}", r.seconds * 1e3),
                r.answers.to_string(),
            ]
        })
        .collect();
    report.table(&["ablation", "variant", "stored", "ms", "answers"], &cells);
    report.para(
        "Compared before anything was timed: the two corner stores return the \
         same pairs, the two trees hold the same entries, naive and Exh return \
         the same events (SegDiff answers in segment pairs, each covering many), \
         and every segmenter stays within eps/2 of the data (Lemma 1), so \
         Theorem 1 holds over any of them. Times are warm means; a bulk build \
         includes sorting its keys.",
    );
}

/// One recovery point of the durability experiment: the index was built
/// with a given checkpoint interval, the process "crashed" (dropped the
/// index without flushing), and the next open replayed the WAL.
pub struct RecoveryPoint {
    /// Checkpoint trigger, bytes of WAL.
    pub checkpoint_wal_bytes: u64,
    /// WAL size at the simulated crash.
    pub wal_bytes: u64,
    /// Page images replayed on reopen.
    pub replayed_pages: u64,
    /// Wall-clock reopen (recovery included), seconds.
    pub recover_seconds: f64,
}

/// One ingest configuration of the durability experiment.
pub struct IngestMode {
    /// Human-readable configuration ("WAL, fsync off, group 8").
    pub label: String,
    /// Ingest + finish wall time (best of the repeats), seconds.
    pub seconds: f64,
}

/// The durability experiment: WAL ingest overhead across group-commit
/// settings and recovery time as a function of the checkpoint interval.
pub struct DurabilityResult {
    /// Observations ingested per run.
    pub n: u64,
    /// Ingest timings; the first entry is the no-WAL baseline.
    pub modes: Vec<IngestMode>,
    /// Recovery time per checkpoint interval.
    pub recovery: Vec<RecoveryPoint>,
}

/// Runs the durability experiment. Not part of the paper — it
/// characterizes the write-ahead log this reproduction adds: what
/// logging costs at ingest time and how the checkpoint interval bounds
/// replay after a crash.
pub fn run_durability(scale: &Scale) -> DurabilityResult {
    use segdiff::{SegDiffConfig, SegDiffIndex};
    use std::time::Instant;

    let series = default_series(scale.subset_days, scale.seed);
    let w = 8.0 * HOUR;
    let base = || {
        SegDiffConfig::default()
            .with_epsilon(0.2)
            .with_window(w)
            .with_pool_pages(scale.pool_pages)
    };
    let repeats = scale.repeats.clamp(1, 3);
    let ingest = |cfg: &SegDiffConfig, tag: &str| -> f64 {
        // Best-of-repeats: these runs are tens of milliseconds, so one
        // scheduler hiccup would otherwise dominate the overhead column.
        let mut best = f64::INFINITY;
        for _ in 0..repeats {
            let dir = scratch_dir(&format!("durability-{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            let start = Instant::now();
            let mut idx = SegDiffIndex::create(&dir, cfg.clone()).expect("create");
            idx.ingest_series(&series).expect("ingest");
            idx.finish().expect("finish");
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };

    let mut modes = vec![IngestMode {
        label: "no WAL".into(),
        seconds: ingest(&base().with_durable(false), "off"),
    }];
    for group in [1u64, 8, 32] {
        let cfg = base()
            .with_durable(true)
            .with_sync(false)
            .with_group_commit(group);
        modes.push(IngestMode {
            label: format!("WAL, fsync off, group {group}"),
            seconds: ingest(&cfg, &format!("nosync-g{group}")),
        });
    }
    for group in [8u64, 32] {
        let cfg = base()
            .with_durable(true)
            .with_sync(true)
            .with_group_commit(group);
        modes.push(IngestMode {
            label: format!("WAL, fsync on, group {group}"),
            seconds: ingest(&cfg, &format!("sync-g{group}")),
        });
    }

    let mut recovery = Vec::new();
    for checkpoint_mib in [1u64, 2, 4, 8] {
        let checkpoint_wal_bytes = checkpoint_mib << 20;
        let dir = scratch_dir(&format!("durability-crash-{checkpoint_mib}"));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = base()
            .with_durable(true)
            .with_sync(false)
            .with_checkpoint_wal_bytes(checkpoint_wal_bytes);
        let mut idx = SegDiffIndex::create(&dir, cfg).expect("create");
        idx.ingest_series(&series).expect("ingest");
        // Simulated crash: drop without finish(); dirty pages die with
        // the pool, only the WAL survives.
        drop(idx);
        let wal_bytes = std::fs::metadata(dir.join("wal.log"))
            .map(|m| m.len())
            .unwrap_or(0);
        let start = Instant::now();
        let idx = SegDiffIndex::open(&dir, scale.pool_pages).expect("recovering open");
        let recover_seconds = start.elapsed().as_secs_f64();
        let replayed_pages = idx.recovery_report().map(|r| r.replayed_pages).unwrap_or(0);
        idx.verify_consistency()
            .expect("recovered index consistent");
        recovery.push(RecoveryPoint {
            checkpoint_wal_bytes,
            wal_bytes,
            replayed_pages,
            recover_seconds,
        });
    }
    DurabilityResult {
        n: series.len() as u64,
        modes,
        recovery,
    }
}

/// Renders the durability experiment.
pub fn durability_report(r: &DurabilityResult, report: &mut Report) {
    report.heading("Durability: WAL ingest overhead");
    report.para(&format!(
        "Ingest + finish over {} observations (ε = 0.2, w = 8 h), best of \
         repeats. Overhead is relative to the no-WAL build; \"group N\" \
         appends (and in sync mode fsyncs) one batch of page images + \
         commit record per N segment commits.",
        r.n
    ));
    let baseline = r.modes.first().map(|m| m.seconds).unwrap_or(1.0);
    let rows: Vec<Vec<String>> = r
        .modes
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let over = if i == 0 {
                "—".into()
            } else {
                format!("{:+.1}%", (m.seconds / baseline - 1.0) * 100.0)
            };
            vec![m.label.clone(), ms(m.seconds), over]
        })
        .collect();
    report.table(&["mode", "ingest", "overhead"], &rows);
    report.heading("Durability: recovery time vs checkpoint interval");
    report.para(
        "Crash injected after full ingest (index dropped without flushing); \
         the next open replays the WAL tail since the last checkpoint.",
    );
    let rows: Vec<Vec<String>> = r
        .recovery
        .iter()
        .map(|p| {
            vec![
                mib(p.checkpoint_wal_bytes),
                mib(p.wal_bytes),
                p.replayed_pages.to_string(),
                ms(p.recover_seconds),
            ]
        })
        .collect();
    report.table(
        &[
            "checkpoint every",
            "WAL at crash",
            "pages replayed",
            "recovery",
        ],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_eps_sweep_produces_sane_shapes() {
        let scale = Scale::tiny();
        let sweep = run_eps_sweep(&scale);
        assert_eq!(sweep.points.len(), 5);
        // r grows with eps.
        for w in sweep.points.windows(2) {
            assert!(w[1].r > w[0].r, "r must grow with eps");
        }
        // Exh stores more than any SegDiff configuration.
        for p in &sweep.points {
            assert!(sweep.exh_payload > p.seg_payload);
        }
        // Feature size falls as r grows.
        for w in sweep.points.windows(2) {
            assert!(w[1].seg_payload < w[0].seg_payload);
        }
        let mut r = Report::new();
        table3(&sweep, &mut r);
        table4(&sweep, &mut r);
        table5(&sweep, &mut r);
        table6(&sweep, &mut r);
        figs7_to_11(&sweep, &mut r);
        assert!(r.markdown().contains("Table 3"));
    }

    #[test]
    fn tiny_ablations_agree_and_order() {
        // Equal pairs, equal tree entries and equal events are asserted
        // inside the run, on the whole answers; the rows carry the counts.
        let rows = run_ablations(&Scale::tiny());
        let of = |ablation: &str| -> Vec<&AblationRow> {
            rows.iter().filter(|r| r.ablation == ablation).collect()
        };
        let corners = of(CORNERS);
        assert_eq!(corners.len(), 2);
        assert!(corners[0].answers > 0 && corners[0].answers == corners[1].answers);
        assert!(corners[0].size < corners[1].size, "reduction saves space");
        let trees = of(INDEX_BUILD);
        assert_eq!(trees.len(), 2);
        assert!(trees.iter().all(|r| r.answers == ABLATION_KEYS));
        let segmenters = of(SEGMENTER);
        assert_eq!(segmenters.len(), 3);
        assert!(segmenters.iter().all(|r| r.answers > 0));
        let [naive, exh, seg] = of(MOTIVATION)[..] else {
            panic!("three systems")
        };
        assert!(naive.answers > 0 && naive.answers == exh.answers);
        assert!(naive.size < seg.size && seg.size * 5 < exh.size);
        assert!(rows.iter().all(|r| r.seconds > 0.0));
        let mut r = Report::new();
        ablations_report(&rows, &mut r);
        let md = r.markdown();
        assert!(md.contains("## Ablations") && md.contains("ablation |"));
        assert!(md.contains("bottom-up") && md.contains("naive"), "{md}");
    }

    #[test]
    fn tiny_durability_experiment_runs() {
        let scale = Scale::tiny();
        let r = run_durability(&scale);
        assert!(r.n > 0);
        assert_eq!(r.modes.len(), 6, "baseline + 3 nosync + 2 sync modes");
        assert!(r.modes.iter().all(|m| m.seconds > 0.0));
        assert_eq!(r.recovery.len(), 4);
        for p in &r.recovery {
            assert!(p.wal_bytes > 0, "crash must leave a WAL behind");
            assert!(p.replayed_pages > 0, "recovery must replay something");
        }
        let mut rep = Report::new();
        durability_report(&r, &mut rep);
        assert!(rep.markdown().contains("recovery time vs checkpoint"));
    }

    #[test]
    fn tiny_w_sweep_grows_with_w() {
        let scale = Scale::tiny();
        let points = run_w_sweep(&scale);
        assert_eq!(points.len(), 5);
        for w in points.windows(2) {
            assert!(w[1].exh_payload > w[0].exh_payload, "Exh grows with w");
            assert!(w[1].seg_payload >= w[0].seg_payload, "SegDiff grows with w");
        }
        // The advantage widens with w (paper Table 7).
        let first = points[0].exh_payload as f64 / points[0].seg_payload as f64;
        let last = points[4].exh_payload as f64 / points[4].seg_payload as f64;
        assert!(last > first, "r_f should grow with w: {first} -> {last}");
        let mut r = Report::new();
        table7_figs12_13(&points, &mut r);
    }
}
