//! Physical layout of the feature tables.
//!
//! Boundaries with one, two, and three corners go to separate fixed-width
//! tables per search kind (six feature tables in total), so every row is
//! exactly as wide as its corner count requires:
//!
//! | table   | columns                                              |
//! |---------|------------------------------------------------------|
//! | `drop1` | `dt1, dv1, td, tc, tb, ta`                           |
//! | `drop2` | `dt1, dv1, dt2, dv2, td, tc, tb, ta`                 |
//! | `drop3` | `dt1, dv1, dt2, dv2, dt3, dv3, td, tc, tb, ta`       |
//!
//! (`jump1..3` mirror these.) The paper packs rows into `c2 ∈ {5, 6, 7}`
//! columns by recomputing some `Δt`s from three stored time stamps; we
//! store the corner coordinates and all four time stamps explicitly for a
//! simpler scan path and report the paper's `c2` accounting separately
//! (see [`crate::SegDiffStats::paper_feature_bytes`]).

use crate::ingest::FeatureRow;
use crate::result::SegmentPair;
use featurespace::SearchKind;
#[cfg(test)]
use featurespace::{Boundary, FeaturePoint};

/// Names of the drop feature tables by corner count (index 0 = one corner).
pub(crate) const DROP_TABLES: [&str; 3] = ["drop1", "drop2", "drop3"];
/// Names of the jump feature tables by corner count.
pub(crate) const JUMP_TABLES: [&str; 3] = ["jump1", "jump2", "jump3"];
/// Name of the segment catalog table (`t_start, v_start, t_end, v_end`).
pub(crate) const SEGMENTS_TABLE: &str = "segments";

/// Table name for a search kind and corner count (1–3).
pub(crate) fn table_name(kind: SearchKind, corners: usize) -> &'static str {
    match kind {
        SearchKind::Drop => DROP_TABLES[corners - 1],
        SearchKind::Jump => JUMP_TABLES[corners - 1],
    }
}

/// Column names for a feature table with `corners` corner points.
pub(crate) fn table_cols(corners: usize) -> Vec<&'static str> {
    let coord_cols: &[&str] = match corners {
        1 => &["dt1", "dv1"],
        2 => &["dt1", "dv1", "dt2", "dv2"],
        3 => &["dt1", "dv1", "dt2", "dv2", "dt3", "dv3"],
        _ => unreachable!("boundaries have 1-3 corners"),
    };
    let mut cols = coord_cols.to_vec();
    cols.extend(["td", "tc", "tb", "ta"]);
    cols
}

/// Appends a feature row's columns, in its table's column order.
pub(crate) fn encode_row(row: &FeatureRow, out: &mut Vec<f64>) {
    for p in row.boundary.corners() {
        out.push(p.dt);
        out.push(p.dv);
    }
    out.extend([row.t_d, row.t_c, row.t_b, row.t_a]);
}

/// Reconstructs the stored boundary from a row of the `corners`-corner
/// table, the inverse [`encode_row`]'s round-trip test checks. Scans build
/// none: the column kernel reads the decoded columns in place.
#[cfg(test)]
pub(crate) fn boundary_from_row(row: &[f64], corners: usize) -> Boundary {
    let p = |i: usize| FeaturePoint::new(row[2 * i], row[2 * i + 1]);
    match corners {
        1 => Boundary::one(p(0)),
        2 => Boundary::two(p(0), p(1)),
        3 => Boundary::three(p(0), p(1), p(2)),
        _ => unreachable!("boundaries have 1-3 corners"),
    }
}

/// Positions of the four time stamps `td, tc, tb, ta` in a row of the
/// `corners`-corner table: all a result tuple needs of it.
pub(crate) fn stamp_cols(corners: usize) -> std::ops::Range<usize> {
    2 * corners..2 * corners + 4
}

/// The result tuple of a row's [`stamp_cols`] values.
pub(crate) fn pair_from_stamps(stamps: &[f64]) -> SegmentPair {
    SegmentPair {
        t_d: stamps[0],
        t_c: stamps[1],
        t_b: stamps[2],
        t_a: stamps[3],
    }
}

/// A B+tree of a feature table: its name and the columns it is keyed on.
pub(crate) type IndexSpec = (&'static str, &'static [&'static str]);

/// The B+trees of a feature table with `corners` corners — the ones
/// [`crate::QueryPlan::Index`] probes, and no other: the point-query tree
/// `pt1` on the one-corner table, and one line-query tree `ln{j}` per
/// edge `(j, j + 1)` elsewhere, each "on the concatenation of" the
/// involved columns (§4.4). An `ln{j}` entry carries both end points of
/// its edge, so the edge scans evaluate every corner's point query as
/// well and the paper's other `pt*` trees would never be read.
pub(crate) fn index_specs(corners: usize) -> &'static [IndexSpec] {
    match corners {
        1 => &[("pt1", &["dt1", "dv1"])],
        2 => &[("ln1", &["dt1", "dv1", "dt2", "dv2"])],
        3 => &[
            ("ln1", &["dt1", "dv1", "dt2", "dv2"]),
            ("ln2", &["dt2", "dv2", "dt3", "dv3"]),
        ],
        _ => unreachable!("boundaries have 1-3 corners"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row3() -> FeatureRow {
        FeatureRow {
            kind: SearchKind::Drop,
            boundary: Boundary::three(
                FeaturePoint::new(1.0, -1.0),
                FeaturePoint::new(2.0, -2.0),
                FeaturePoint::new(3.0, -3.0),
            ),
            t_d: 10.0,
            t_c: 20.0,
            t_b: 30.0,
            t_a: 40.0,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = row3();
        let mut cols = Vec::new();
        encode_row(&r, &mut cols);
        assert_eq!(cols.len(), 10);
        let b = boundary_from_row(&cols, 3);
        assert_eq!(b, r.boundary);
        let p = pair_from_stamps(&cols[stamp_cols(3)]);
        assert_eq!((p.t_d, p.t_c, p.t_b, p.t_a), (10.0, 20.0, 30.0, 40.0));
    }

    #[test]
    fn col_names_match_widths() {
        assert_eq!(table_cols(1).len(), 6);
        assert_eq!(table_cols(2).len(), 8);
        assert_eq!(table_cols(3).len(), 10);
    }

    #[test]
    fn table_names_by_kind() {
        assert_eq!(table_name(SearchKind::Drop, 1), "drop1");
        assert_eq!(table_name(SearchKind::Jump, 3), "jump3");
    }

    #[test]
    fn index_specs_are_one_point_tree_or_one_line_tree_an_edge() {
        let names = |corners| -> Vec<&str> { index_specs(corners).iter().map(|s| s.0).collect() };
        assert_eq!(names(1), ["pt1"]);
        assert_eq!(names(2), ["ln1"]);
        assert_eq!(names(3), ["ln1", "ln2"]);
        assert_eq!(index_specs(1)[0].1, ["dt1", "dv1"]);
        assert_eq!(index_specs(3)[1].1, ["dt2", "dv2", "dt3", "dv3"]);
        for corners in 1..=3 {
            for (_, cols) in index_specs(corners) {
                assert!(cols.iter().all(|c| table_cols(corners).contains(c)));
            }
        }
    }

    /// The trees `build_indexes` creates are the trees the index plan
    /// scans, for 1, 2 and 3 corners: the catalogue lists exactly
    /// `index_specs`' names, the plan over stored rows answers on them as
    /// the scan does,
    /// and a store that lacks any one of them fails the plan with that
    /// tree's name — so none is created unread, and none is read that was
    /// not created.
    #[test]
    fn the_trees_created_are_the_trees_the_index_plan_scans() {
        use crate::{QueryPlan, SegDiffConfig, SegDiffIndex};
        use featurespace::QueryRegion;
        use sensorgen::{TimeSeries, HOUR};
        let series: TimeSeries = (0..600)
            .map(|i| {
                let v = (i % 16) as f64 * 0.5 - ((i / 37) % 5) as f64;
                (i as f64 * 300.0, v)
            })
            .collect();
        // A region every table's zone summary admits, so the plan probes
        // every table it has trees for.
        let region = QueryRegion::drop(4.0 * HOUR, -0.5);
        let build = |tag: &str| {
            let dir =
                std::env::temp_dir().join(format!("segdiff-specs-{}-{tag}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let config = SegDiffConfig::default().with_durable(false);
            let mut idx = SegDiffIndex::create(&dir, config).unwrap();
            idx.ingest_series(&series).unwrap();
            idx.finish().unwrap();
            (dir, idx)
        };
        let (dir, idx) = build("all");
        idx.build_indexes().unwrap();
        let mut created = Vec::new();
        for corners in 1..=3 {
            let tname = table_name(SearchKind::Drop, corners);
            let table = idx.database().table(tname).unwrap();
            assert!(table.num_rows() > 0, "{tname} is empty");
            let specs: Vec<&str> = index_specs(corners).iter().map(|s| s.0).collect();
            assert_eq!(table.index_names(), specs, "{tname}");
            created.extend(specs.into_iter().map(|tree| (corners, tree)));
        }
        assert_eq!(created.len(), 4, "eight trees a sensor, four a kind");
        let (scan, _) = idx.query_stored_rows(&region, QueryPlan::SeqScan).unwrap();
        let (indexed, _) = idx.query_stored_rows(&region, QueryPlan::Index).unwrap();
        assert!(!scan.is_empty() && scan == indexed);
        std::fs::remove_dir_all(&dir).ok();
        for &(skip_corners, skip) in &created {
            let (dir, idx) = build(&format!("{skip_corners}-{skip}"));
            for &(corners, tree) in created.iter().filter(|&&c| c != (skip_corners, skip)) {
                let (_, cols) = index_specs(corners).iter().find(|s| s.0 == tree).unwrap();
                let tname = table_name(SearchKind::Drop, corners);
                idx.database().create_index(tname, tree, cols).unwrap();
            }
            let err = idx
                .query_stored_rows(&region, QueryPlan::Index)
                .unwrap_err()
                .to_string();
            let tname = table_name(SearchKind::Drop, skip_corners);
            assert!(
                err.contains(skip) && err.contains(tname),
                "without {tname}.{skip}: {err}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
