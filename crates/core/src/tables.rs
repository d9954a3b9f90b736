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
/// table. Production scans evaluate intersection through the columnar
/// batch kernel instead; this scalar path remains the reference the
/// equivalence tests check against.
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

/// Index specifications for a feature table with `corners` corners:
/// one point-query index per corner and one line-query index per edge,
/// mirroring the paper's B-trees "on the concatenation of" the involved
/// columns (§4.4).
pub(crate) fn index_specs(corners: usize) -> Vec<(String, Vec<&'static str>)> {
    let coord = ["dt1", "dv1", "dt2", "dv2", "dt3", "dv3"];
    let mut specs = Vec::new();
    for j in 0..corners {
        specs.push((format!("pt{}", j + 1), vec![coord[2 * j], coord[2 * j + 1]]));
    }
    for j in 0..corners.saturating_sub(1) {
        specs.push((
            format!("ln{}", j + 1),
            vec![
                coord[2 * j],
                coord[2 * j + 1],
                coord[2 * j + 2],
                coord[2 * j + 3],
            ],
        ));
    }
    specs
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
    fn index_specs_cover_corners_and_edges() {
        let s1 = index_specs(1);
        assert_eq!(s1.len(), 1); // pt1
        let s3 = index_specs(3);
        assert_eq!(s3.len(), 5); // pt1..3, ln1..2
        assert!(s3.iter().any(|(n, _)| n == "ln2"));
        let (_, ln1) = s3.iter().find(|(n, _)| n == "ln1").unwrap();
        assert_eq!(ln1, &vec!["dt1", "dv1", "dt2", "dv2"]);
    }
}
