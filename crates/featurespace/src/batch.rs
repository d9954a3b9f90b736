//! Columnar batch predicates: the kernels of §4.4 over struct-of-arrays
//! corner buffers.
//!
//! The row-at-a-time executor materializes one [`crate::FeaturePoint`] per
//! stored corner and calls [`crate::point_in_region`] /
//! [`crate::edge_crosses_region`] per row.
//! These kernels evaluate the same predicates over column slices decoded a
//! page at a time: one pass per corner column, accumulating into a shared
//! match mask. Each pass is straight-line lane arithmetic — `&` where the
//! scalar predicates short-circuit, the search kind fixed outside the
//! loop — so it vectorises instead of mispredicting; a lane whose answer
//! is already known is computed anyway. The scalar predicates stay the
//! single source of truth — the tests assert the batch kernels agree with
//! them bit for bit, degenerate lanes included.
//!
//! The module also hosts [`zone_may_intersect`], the page-level pruning
//! predicate derived from the same conditions: a page whose per-column
//! min/max summary fails it cannot contain any matching row, so a
//! sequential scan may skip it without changing results.

use crate::{QueryRegion, SearchKind};

/// One lane of the point query: [`crate::point_in_region`] with `&` for
/// `&&`, the search kind a compile-time constant.
#[inline(always)]
fn point_lane<const DROP: bool>(dt: f64, dv: f64, t: f64, v: f64) -> bool {
    (dt <= t) & if DROP { dv <= v } else { dv >= v }
}

/// One lane of the line query: [`crate::edge_crosses_region`] as
/// straight-line arithmetic. The interpolation is computed whatever the
/// endpoints are — a lane with `dt1 == dt2` divides by zero and gets an
/// infinity or a NaN — and masked by the four inequalities, of which
/// `dt1 <= t < dt2` excludes exactly those lanes. Where the inequalities
/// hold, the value is the one the scalar predicate computes, from the same
/// operations in the same order.
#[inline(always)]
fn edge_lane<const DROP: bool>(dt1: f64, dv1: f64, dt2: f64, dv2: f64, t: f64, v: f64) -> bool {
    let at_t = dv1 + (dv2 - dv1) / (dt2 - dt1) * (t - dt1);
    (dt1 <= t)
        & (dt2 > t)
        & if DROP {
            (dv1 > v) & (dv2 < v) & (at_t <= v)
        } else {
            (dv1 < v) & (dv2 > v) & (at_t >= v)
        }
}

/// [`crate::point_in_region`] without a data-dependent branch: what one
/// lane of [`points_in_region`] computes, for callers that visit corners
/// one at a time (the index plan's probe).
#[inline]
pub fn point_hits(dt: f64, dv: f64, region: &QueryRegion) -> bool {
    match region.kind {
        SearchKind::Drop => point_lane::<true>(dt, dv, region.t, region.v),
        SearchKind::Jump => point_lane::<false>(dt, dv, region.t, region.v),
    }
}

/// [`crate::edge_crosses_region`] without a data-dependent branch: what
/// one lane of [`edges_cross_region`] computes.
#[inline]
pub fn edge_hits(dt1: f64, dv1: f64, dt2: f64, dv2: f64, region: &QueryRegion) -> bool {
    match region.kind {
        SearchKind::Drop => edge_lane::<true>(dt1, dv1, dt2, dv2, region.t, region.v),
        SearchKind::Jump => edge_lane::<false>(dt1, dv1, dt2, dv2, region.t, region.v),
    }
}

fn points<const DROP: bool>(dts: &[f64], dvs: &[f64], t: f64, v: f64, mask: &mut [bool]) {
    for ((m, &dt), &dv) in mask.iter_mut().zip(dts).zip(dvs) {
        *m |= point_lane::<DROP>(dt, dv, t, v);
    }
}

fn edges<const DROP: bool>(cols: [&[f64]; 4], t: f64, v: f64, mask: &mut [bool]) {
    let [dt1s, dv1s, dt2s, dv2s] = cols;
    for ((((m, &dt1), &dv1), &dt2), &dv2) in mask.iter_mut().zip(dt1s).zip(dv1s).zip(dt2s).zip(dv2s)
    {
        *m |= edge_lane::<DROP>(dt1, dv1, dt2, dv2, t, v);
    }
}

/// OR-accumulates the point query (`point_in_region`) over parallel
/// `(Δt, Δv)` columns into `mask`: one compare pair per lane, no branch,
/// so the loop vectorises.
///
/// # Panics
///
/// Panics unless `dts`, `dvs` and `mask` have equal lengths.
pub fn points_in_region(dts: &[f64], dvs: &[f64], region: &QueryRegion, mask: &mut [bool]) {
    assert!(dts.len() == dvs.len() && dts.len() == mask.len());
    match region.kind {
        SearchKind::Drop => points::<true>(dts, dvs, region.t, region.v, mask),
        SearchKind::Jump => points::<false>(dts, dvs, region.t, region.v, mask),
    }
}

/// OR-accumulates the line query (`edge_crosses_region`) over parallel
/// edge-endpoint columns (`p1 = (dt1s, dv1s)`, `p2 = (dt2s, dv2s)`,
/// `p1.dt <= p2.dt` per lane) into `mask` — the union semantics of
/// [`crate::Boundary::intersects`]. Every lane is computed, set or not:
/// a dead lane costs less than the branch that would skip it.
///
/// # Panics
///
/// Panics unless all five slices have equal lengths.
pub fn edges_cross_region(
    dt1s: &[f64],
    dv1s: &[f64],
    dt2s: &[f64],
    dv2s: &[f64],
    region: &QueryRegion,
    mask: &mut [bool],
) {
    assert!(
        dt1s.len() == dv1s.len()
            && dt1s.len() == dt2s.len()
            && dt1s.len() == dv2s.len()
            && dt1s.len() == mask.len()
    );
    let cols = [dt1s, dv1s, dt2s, dv2s];
    match region.kind {
        SearchKind::Drop => edges::<true>(cols, region.t, region.v, mask),
        SearchKind::Jump => edges::<false>(cols, region.t, region.v, mask),
    }
}

/// Evaluates [`crate::Boundary::intersects`] for a block of stored
/// boundary rows in struct-of-arrays form.
///
/// `cols` holds `2 * corners` column slices in storage order
/// (`Δt₁, Δv₁, …, Δtᶜ, Δvᶜ`), each `len` rows long. `mask` is resized to
/// `len` and overwritten: `mask[i]` is true iff row `i`'s boundary
/// intersects `region` — the union of the point query on every corner and
/// the line query on every adjacent corner pair, exactly as the scalar
/// path computes it.
///
/// # Panics
///
/// Panics unless `corners` is 1–3 and `cols` has `2 * corners` slices of
/// length `len`.
pub fn boundaries_intersect(
    corners: usize,
    cols: &[&[f64]],
    len: usize,
    region: &QueryRegion,
    mask: &mut Vec<bool>,
) {
    assert!((1..=3).contains(&corners), "corners must be 1-3");
    assert_eq!(cols.len(), 2 * corners, "need dt/dv columns per corner");
    for c in cols {
        assert_eq!(c.len(), len);
    }
    mask.clear();
    mask.resize(len, false);
    for j in 0..corners {
        points_in_region(cols[2 * j], cols[2 * j + 1], region, mask);
    }
    for j in 0..corners.saturating_sub(1) {
        edges_cross_region(
            cols[2 * j],
            cols[2 * j + 1],
            cols[2 * j + 2],
            cols[2 * j + 3],
            region,
            mask,
        );
    }
}

/// [`boundaries_intersect`] over owned column buffers, as a columnar
/// page scan decodes them: `cols` holds at least the `2 * corners`
/// corner columns in storage order (trailing columns — the segment
/// endpoints ride along in the same pages — are ignored), each `len`
/// rows long. No transpose, no per-row materialization: the buffers the
/// storage layer decoded into are evaluated in place.
///
/// # Panics
///
/// Panics unless `corners` is 1–3 and `cols` has at least `2 * corners`
/// columns of length `len`.
pub fn boundaries_intersect_cols(
    corners: usize,
    cols: &[Vec<f64>],
    len: usize,
    region: &QueryRegion,
    mask: &mut Vec<bool>,
) {
    assert!((1..=3).contains(&corners), "corners must be 1-3");
    assert!(cols.len() >= 2 * corners, "need dt/dv columns per corner");
    let mut views: [&[f64]; 6] = [&[]; 6];
    for (v, c) in views.iter_mut().zip(cols) {
        *v = c.as_slice();
    }
    boundaries_intersect(corners, &views[..2 * corners], len, region, mask);
}

/// Page-level pruning predicate for zone maps: can *any* row whose corner
/// columns lie within `[mins, maxs]` (per column, storage order
/// `Δt₁, Δv₁, …`) intersect `region`?
///
/// Derived from the §4.4 conditions: every match — point or line — needs
/// some corner with `Δt <= T` and some corner with `Δv <= V` (drop; for
/// the line query the right endpoint satisfies `Δv < V`). So a page can be
/// skipped when every corner column's minimum `Δt` exceeds `T`, or every
/// corner column's minimum `Δv` exceeds `V` (drop) / maximum `Δv` falls
/// short of `V` (jump). Returning `true` never loses a match — the
/// losslessness property the query tests check end to end.
///
/// # Panics
///
/// Panics unless `mins` and `maxs` cover the `2 * corners` corner columns.
pub fn zone_may_intersect(
    corners: usize,
    mins: &[f64],
    maxs: &[f64],
    region: &QueryRegion,
) -> bool {
    assert!((1..=3).contains(&corners), "corners must be 1-3");
    assert!(mins.len() >= 2 * corners && maxs.len() >= 2 * corners);
    let mut zone = ZoneExtent::EMPTY;
    for j in 0..corners {
        zone.min_dt = zone.min_dt.min(mins[2 * j]);
        zone.min_dv = zone.min_dv.min(mins[2 * j + 1]);
        zone.max_dv = zone.max_dv.max(maxs[2 * j + 1]);
    }
    zone.may_intersect(region)
}

/// What [`zone_may_intersect`] reads of a zone: its extremes over all
/// corner columns. The region index takes them once per boundary and
/// tests many regions.
pub(crate) struct ZoneExtent {
    pub min_dt: f64,
    pub min_dv: f64,
    pub max_dv: f64,
}

impl ZoneExtent {
    pub const EMPTY: ZoneExtent = ZoneExtent {
        min_dt: f64::INFINITY,
        min_dv: f64::INFINITY,
        max_dv: f64::NEG_INFINITY,
    };

    pub fn may_intersect(&self, region: &QueryRegion) -> bool {
        self.min_dt <= region.t
            && match region.kind {
                SearchKind::Drop => self.min_dv <= region.v,
                SearchKind::Jump => self.max_dv >= region.v,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edge_crosses_region, point_in_region, Boundary, FeaturePoint};

    fn soa(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let ncols = rows.first().map_or(0, Vec::len);
        (0..ncols)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect()
    }

    fn check_against_scalar(corners: usize, rows: &[Vec<f64>], region: &QueryRegion) {
        let cols = soa(rows);
        let views: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let mut mask = Vec::new();
        boundaries_intersect(corners, &views, rows.len(), region, &mut mask);
        for (i, row) in rows.iter().enumerate() {
            let pts: Vec<FeaturePoint> = (0..corners)
                .map(|j| FeaturePoint::new(row[2 * j], row[2 * j + 1]))
                .collect();
            let b = match corners {
                1 => Boundary::one(pts[0]),
                2 => Boundary::two(pts[0], pts[1]),
                _ => Boundary::three(pts[0], pts[1], pts[2]),
            };
            assert_eq!(mask[i], b.intersects(region), "row {i}: {row:?}");
        }
    }

    #[test]
    fn batch_matches_scalar_boundaries() {
        let region = QueryRegion::drop(10.0, -2.0);
        // Two-corner rows covering point hit, edge hit, and miss.
        let rows2 = vec![
            vec![2.0, -1.0, 12.0, -6.0],  // edge crossing
            vec![5.0, -3.0, 8.0, -4.0],   // corner inside
            vec![11.0, -3.0, 20.0, -6.0], // entirely right of T
            vec![2.0, -1.0, 9.0, -1.5],   // too shallow
        ];
        check_against_scalar(2, &rows2, &region);
        let rows1 = vec![vec![5.0, -3.0], vec![5.0, -1.0]];
        check_against_scalar(1, &rows1, &region);
        let rows3 = vec![
            vec![1.0, -0.5, 6.0, -1.0, 14.0, -5.0],
            vec![1.0, 0.5, 6.0, 1.0, 14.0, 5.0],
        ];
        check_against_scalar(3, &rows3, &region);
        let jump = QueryRegion::jump(10.0, 2.0);
        let rows_j = vec![
            vec![2.0, 1.0, 12.0, 6.0],
            vec![5.0, 3.0, 8.0, 4.0],
            vec![2.0, 1.0, 9.0, 1.5],
        ];
        check_against_scalar(2, &rows_j, &jump);
    }

    /// Runs both kernels and both lane functions over `lanes`
    /// (`[dt1, dv1, dt2, dv2]`, `dt1 <= dt2`) and compares every lane with
    /// the scalar predicates; then checks that a lane already set stays
    /// set (the kernels OR into the mask).
    fn check_lanes_against_scalar(lanes: &[[f64; 4]], region: &QueryRegion) {
        let col = |c: usize| lanes.iter().map(|l| l[c]).collect::<Vec<f64>>();
        let (dt1s, dv1s, dt2s, dv2s) = (col(0), col(1), col(2), col(3));
        let mut points = vec![false; lanes.len()];
        points_in_region(&dt1s, &dv1s, region, &mut points);
        let mut edges = vec![false; lanes.len()];
        edges_cross_region(&dt1s, &dv1s, &dt2s, &dv2s, region, &mut edges);
        for (i, &[dt1, dv1, dt2, dv2]) in lanes.iter().enumerate() {
            let (p1, p2) = (FeaturePoint::new(dt1, dv1), FeaturePoint::new(dt2, dv2));
            let (point, edge) = (
                point_in_region(p1, region),
                edge_crosses_region(p1, p2, region),
            );
            let lane = &lanes[i];
            assert_eq!(points[i], point, "point kernel, {lane:?} in {region:?}");
            assert_eq!(edges[i], edge, "edge kernel, {lane:?} in {region:?}");
            assert_eq!(point_hits(dt1, dv1, region), point, "point lane {lane:?}");
            assert_eq!(
                edge_hits(dt1, dv1, dt2, dv2, region),
                edge,
                "edge lane {lane:?}"
            );
        }
        let preset: Vec<bool> = (0..lanes.len()).map(|i| i % 3 == 0).collect();
        let mut mask = preset.clone();
        points_in_region(&dt1s, &dv1s, region, &mut mask);
        edges_cross_region(&dt1s, &dv1s, &dt2s, &dv2s, region, &mut mask);
        for i in 0..lanes.len() {
            assert_eq!(
                mask[i],
                preset[i] | points[i] | edges[i],
                "lane {i} of the union"
            );
        }
    }

    #[test]
    fn kernels_equal_scalar_predicates_on_degenerate_lanes() {
        // Every combination of values on, next to and far from the
        // region's bounds: corners exactly on T and V, zeros of both
        // signs, equal endpoints (a division by zero in the dead lane),
        // flat edges, and magnitudes whose differences overflow.
        for (t, v) in [(3600.0, -2.0), (5e-324, -5e-324), (1e300, -1e300)] {
            let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
            let dts = [0.0, -0.0, t, next_up(t), t / 2.0, 2.0 * t + 1.0, f64::MAX];
            let dvs = [
                0.0,
                -0.0,
                v,
                -v,
                v - 1.0,
                v + 1.0,
                next_up(v),
                f64::MAX,
                f64::MIN,
                5e-324,
            ];
            let mut lanes = Vec::new();
            for &dt1 in &dts {
                for &dt2 in dts.iter().filter(|&&dt2| dt1 <= dt2) {
                    for &dv1 in &dvs {
                        for &dv2 in &dvs {
                            lanes.push([dt1, dv1, dt2, dv2]);
                        }
                    }
                }
            }
            assert!(lanes.iter().any(|l| l[0] == l[2]) && lanes.iter().any(|l| l[1] == l[3]));
            check_lanes_against_scalar(&lanes, &QueryRegion::drop(t, v));
            check_lanes_against_scalar(&lanes, &QueryRegion::jump(t, -v));
        }
    }

    #[test]
    fn kernels_equal_scalar_predicates_on_random_rows() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(44);
        let regions = [
            QueryRegion::drop(8.0, -1.5),
            QueryRegion::jump(8.0, 1.5),
            QueryRegion::drop(2.0, -6.0),
            QueryRegion::jump(20.0, 0.25),
        ];
        // Odd lengths, so a vectorised loop's remainder lanes are covered.
        for len in [0, 1, 7, 64, 333] {
            let lanes: Vec<[f64; 4]> = (0..len)
                .map(|_| {
                    let (a, b) = (rng.random_range(0.0..16.0), rng.random_range(0.0..16.0));
                    let mut dv = || rng.random_range(-8.0..8.0);
                    [f64::min(a, b), dv(), f64::max(a, b), dv()]
                })
                .collect();
            for region in &regions {
                check_lanes_against_scalar(&lanes, region);
            }
        }
    }

    /// §4.4's point query on corner `j`, as the paper states it (for a
    /// drop; a jump mirrors the comparisons on Δv):
    /// `Δt_j <= T AND Δv_j <= V`.
    fn paper_point_query(dt: f64, dv: f64, region: &QueryRegion) -> bool {
        let (t, v) = (region.t, region.v);
        match region.kind {
            SearchKind::Drop => dt <= t && dv <= v,
            SearchKind::Jump => dt <= t && dv >= v,
        }
    }

    /// §4.4's line query on the edge from corner `j` to corner `k = j + 1`:
    /// both ends outside the region, the edge crossing into it — the last
    /// conjunct is the paper's interpolation condition, verbatim.
    fn paper_line_query(dtj: f64, dvj: f64, dtk: f64, dvk: f64, region: &QueryRegion) -> bool {
        let (t, v) = (region.t, region.v);
        match region.kind {
            SearchKind::Drop => {
                dtj <= t
                    && dvj > v
                    && dtk > t
                    && dvk < v
                    && dvj + (dvk - dvj) / (dtk - dtj) * (t - dtj) <= v
            }
            SearchKind::Jump => {
                dtj <= t
                    && dvj < v
                    && dtk > t
                    && dvk > v
                    && dvj + (dvk - dvj) / (dtk - dtj) * (t - dtj) >= v
            }
        }
    }

    /// The statements of §4.4 *are* the range predicates the index plan
    /// applies to the entries it scans: on random boundaries of one to
    /// three corners, "some corner answers the point query or some edge
    /// answers the line query" selects what `point_hits` / `edge_hits`
    /// select — per corner, per edge, and for the boundary as the plan
    /// combines them (corner 1 and every edge's far corner on the `ln`
    /// entries) — which is also what the scan's kernel answers.
    #[test]
    fn section_4_4_statements_are_the_probe_predicates() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4_4);
        let (mut hits, mut point_hit, mut edge_hit) = (0, 0, 0);
        for _ in 0..20_000 {
            let t = rng.random_range(0.5..12.0);
            let mag = rng.random_range(0.1..6.0);
            let region = if rng.random_range(0..2u32) == 0 {
                QueryRegion::drop(t, -mag)
            } else {
                QueryRegion::jump(t, mag)
            };
            // Corners ascend in Δt; one in twelve coordinates sits exactly
            // on the region's bound.
            let corners = rng.random_range(1..4usize);
            let mut coord = |range: std::ops::Range<f64>, bound: f64| {
                [rng.random_range(range), bound][usize::from(rng.random_range(0..12u32) == 0)]
            };
            let mut dts: Vec<f64> = (0..corners).map(|_| coord(0.0..16.0, region.t)).collect();
            dts.sort_by(f64::total_cmp);
            let row: Vec<f64> = dts
                .iter()
                .flat_map(|&dt| [dt, coord(-8.0..8.0, region.v)])
                .collect();
            let corner = |j: usize| (row[2 * j], row[2 * j + 1]);
            let (mut stated, mut probed) = (false, false);
            for j in 0..corners {
                let (dt, dv) = corner(j);
                let point = paper_point_query(dt, dv, &region);
                assert_eq!(point_hits(dt, dv, &region), point, "corner {j} of {row:?}");
                stated |= point;
                point_hit += usize::from(point);
                // The one-corner table's `pt1` entry.
                probed |= (corners == 1) & point;
            }
            for j in 0..corners - 1 {
                let ((dt1, dv1), (dt2, dv2)) = (corner(j), corner(j + 1));
                let line = paper_line_query(dt1, dv1, dt2, dv2, &region);
                let edge = edge_hits(dt1, dv1, dt2, dv2, &region);
                assert_eq!(edge, line, "edge {j} of {row:?}");
                stated |= line;
                edge_hit += usize::from(line);
                // What the index plan evaluates on this edge's `ln` entry.
                probed |= ((j == 0) & point_hits(dt1, dv1, &region))
                    | point_hits(dt2, dv2, &region)
                    | edge;
            }
            assert_eq!(probed, stated, "{row:?} in {region:?}");
            let cols = soa(std::slice::from_ref(&row));
            let mut mask = Vec::new();
            boundaries_intersect_cols(corners, &cols, 1, &region, &mut mask);
            assert_eq!(mask, [stated], "scan kernel, {row:?} in {region:?}");
            hits += usize::from(stated);
        }
        assert!(hits > 1000 && point_hit > 1000 && edge_hit > 100);
    }

    #[test]
    fn cols_variant_matches_slice_variant_and_ignores_trailing_cols() {
        let region = QueryRegion::drop(10.0, -2.0);
        let rows = vec![
            vec![2.0, -1.0, 12.0, -6.0],
            vec![5.0, -3.0, 8.0, -4.0],
            vec![11.0, -3.0, 20.0, -6.0],
            vec![2.0, -1.0, 9.0, -1.5],
        ];
        let mut cols = soa(&rows);
        let views: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let mut want = Vec::new();
        boundaries_intersect(2, &views, rows.len(), &region, &mut want);
        // Storage pages carry four trailing segment-endpoint columns after
        // the corners; the cols variant must skip them.
        for _ in 0..4 {
            cols.push(vec![99.0; rows.len()]);
        }
        let mut got = Vec::new();
        boundaries_intersect_cols(2, &cols, rows.len(), &region, &mut got);
        assert_eq!(got, want);
        assert!(got.iter().any(|&m| m) && got.iter().any(|&m| !m));
    }

    #[test]
    fn zone_predicate_is_conservative_on_examples() {
        let region = QueryRegion::drop(10.0, -2.0);
        // Page holding a matching row must never be pruned.
        assert!(zone_may_intersect(
            2,
            &[2.0, -1.0, 12.0, -6.0],
            &[2.0, -1.0, 12.0, -6.0],
            &region
        ));
        // All corners far right of T: prune.
        assert!(!zone_may_intersect(
            2,
            &[11.0, -9.0, 20.0, -9.0],
            &[30.0, 0.0, 40.0, 0.0],
            &region
        ));
        // All dv too shallow: prune.
        assert!(!zone_may_intersect(
            2,
            &[1.0, -1.0, 2.0, -1.5],
            &[9.0, 0.0, 9.0, 0.0],
            &region
        ));
        let jump = QueryRegion::jump(10.0, 2.0);
        assert!(zone_may_intersect(1, &[1.0, 0.0], &[5.0, 3.0], &jump));
        assert!(!zone_may_intersect(1, &[1.0, 0.0], &[5.0, 1.0], &jump));
    }

    #[test]
    fn zone_predicate_never_prunes_a_match() {
        // Any single-row page: zone = the row itself; if the row matches,
        // the zone must pass.
        let regions = [QueryRegion::drop(8.0, -1.5), QueryRegion::jump(8.0, 1.5)];
        let mut x = 0.37f64;
        let mut next = move || {
            // Tiny deterministic LCG over [-10, 15].
            x = (x * 9301.0 + 49297.0) % 233280.0;
            x / 233280.0 * 25.0 - 10.0
        };
        for region in &regions {
            for _ in 0..500 {
                let (dt1, dt2) = {
                    let (a, b) = (next().abs(), next().abs());
                    (a.min(b), a.max(b))
                };
                let row = [dt1, next(), dt2, next()];
                let b = Boundary::two(
                    FeaturePoint::new(row[0], row[1]),
                    FeaturePoint::new(row[2], row[3]),
                );
                if b.intersects(region) {
                    assert!(
                        zone_may_intersect(2, &row, &row, region),
                        "pruned a matching row {row:?} for {region:?}"
                    );
                }
            }
        }
    }
}
