//! The branch-free lanes of §4.4 and the one column kernel built on them.
//!
//! A boundary intersects a query region when one of its corners answers
//! the point query or one of its edges answers the line query. Here each
//! query is one *lane*: straight-line arithmetic, `&` where a scalar
//! predicate would short-circuit, the search kind fixed outside the loop,
//! so a lane whose answer is already known is computed anyway and nothing
//! mispredicts. A boundary's corners with the slope of each edge divided
//! once are a `Corners`, and `Corners::hit` ORs their lanes:
//! [`crate::Boundary::intersects`] builds one from its three padded
//! corners, [`boundaries_intersect_cols`] one a row from the
//! struct-of-arrays columns a page scan decodes, and the region index one
//! a boundary for every region it tests, so a stored row, an in-memory
//! boundary and a standing query are tested by the same arithmetic. The
//! index plan's probe, which visits one B+tree entry at a time, calls the
//! lanes itself through [`point_hits`] and [`edge_hits`]. The tests hold
//! every lane to the short-circuit predicates of the paper bit for bit,
//! degenerate lanes included.
//!
//! The module also hosts [`zone_may_intersect`], the page-level pruning
//! predicate derived from the same conditions: a page whose per-column
//! min/max summary fails it cannot contain any matching row, so a
//! sequential scan may skip it without changing results.

use crate::{QueryRegion, SearchKind};

/// One lane of the point query: the corner lies in the region, `&` for
/// `&&`, the search kind a compile-time constant. Deliberately without the
/// `Δt > 0` of the problem statement, as the paper issues it: a match at
/// `Δt = 0` comes only from pairs that also hold events of arbitrarily
/// small positive `Δt`, which Lemma 5's `2ε` tolerance covers.
#[inline(always)]
fn point_lane<const DROP: bool>(dt: f64, dv: f64, t: f64, v: f64) -> bool {
    (dt <= t) & if DROP { dv <= v } else { dv >= v }
}

/// The slope of the edge `(dt1, dv1) → (dt2, dv2)` as [`edge_lane`]
/// interpolates with it. The paper's `Δv₁ + (Δv₂ − Δv₁) / (Δt₂ − Δt₁) ·
/// (T − Δt₁)` divides first, so a lane handed this quotient computes bit
/// for bit what it would dividing itself, and a caller testing one edge
/// against many regions divides once.
#[inline(always)]
fn slope(dt1: f64, dv1: f64, dt2: f64, dv2: f64) -> f64 {
    (dv2 - dv1) / (dt2 - dt1)
}

/// One lane of the line query: the edge `(dt1, dv1) → (dt2, dv2)`
/// (`dt1 <= dt2`) of [`slope`] `slope` has its left end above the region
/// (`Δt₁ <= T`, `Δv₁ > V` for a drop), its right end beyond it
/// (`Δt₂ > T`, `Δv₂ < V`), and its value at `Δt = T` at or below `V`. The
/// interpolation is computed whatever the endpoints are — an edge with
/// `dt1 == dt2` has an infinite or NaN slope — and masked by the four
/// inequalities, of which `dt1 <= t < dt2` excludes exactly those lanes.
#[inline(always)]
fn edge_lane<const DROP: bool>(
    dt1: f64,
    dv1: f64,
    dt2: f64,
    dv2: f64,
    slope: f64,
    t: f64,
    v: f64,
) -> bool {
    let at_t = dv1 + slope * (t - dt1);
    (dt1 <= t)
        & (dt2 > t)
        & if DROP {
            (dv1 > v) & (dv2 < v) & (at_t <= v)
        } else {
            (dv1 < v) & (dv2 > v) & (at_t >= v)
        }
}

/// `C` corners ascending in `Δt`, with the [`slope`] of each edge divided
/// once: what every lane of one boundary reads, whatever region it is
/// tested against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Corners<const C: usize> {
    dt: [f64; C],
    dv: [f64; C],
    /// `slope[j]` is the slope of the edge ending at corner `j`;
    /// `slope[0]` is unused.
    slope: [f64; C],
}

impl<const C: usize> Corners<C> {
    #[inline(always)]
    pub(crate) fn new(dt: [f64; C], dv: [f64; C]) -> Self {
        let slope = std::array::from_fn(|j| match j {
            0 => 0.0,
            _ => slope(dt[j - 1], dv[j - 1], dt[j], dv[j]),
        });
        Self { dt, dv, slope }
    }

    /// The union of the point query on each corner and the line query on
    /// each of the `C − 1` edges, every lane computed. A corner repeated
    /// as padding is exact: it is tested twice, and the edge from it to
    /// itself fails `dt1 <= T < dt2`.
    #[inline(always)]
    pub(crate) fn hit<const DROP: bool>(&self, t: f64, v: f64) -> bool {
        let (dt, dv) = (&self.dt, &self.dv);
        let mut hit = false;
        for j in 0..C {
            hit |= point_lane::<DROP>(dt[j], dv[j], t, v);
        }
        for j in 1..C {
            hit |= edge_lane::<DROP>(dt[j - 1], dv[j - 1], dt[j], dv[j], self.slope[j], t, v);
        }
        hit
    }

    /// [`Self::hit`] of `region`.
    #[inline]
    pub(crate) fn hits(&self, region: &QueryRegion) -> bool {
        match region.kind {
            SearchKind::Drop => self.hit::<true>(region.t, region.v),
            SearchKind::Jump => self.hit::<false>(region.t, region.v),
        }
    }
}

/// The point query on one corner, without a data-dependent branch: for
/// callers that visit corners one at a time (the index plan's probe).
#[inline]
pub fn point_hits(dt: f64, dv: f64, region: &QueryRegion) -> bool {
    Corners::new([dt], [dv]).hits(region)
}

/// The line query on the edge `(dt1, dv1) → (dt2, dv2)`, `dt1 <= dt2`,
/// without a data-dependent branch.
#[inline]
pub fn edge_hits(dt1: f64, dv1: f64, dt2: f64, dv2: f64, region: &QueryRegion) -> bool {
    let slope = slope(dt1, dv1, dt2, dv2);
    match region.kind {
        SearchKind::Drop => edge_lane::<true>(dt1, dv1, dt2, dv2, slope, region.t, region.v),
        SearchKind::Jump => edge_lane::<false>(dt1, dv1, dt2, dv2, slope, region.t, region.v),
    }
}

/// One [`Corners::hit`] per row over `C` corners' columns: a one-corner
/// table does no edge work.
fn rows<const DROP: bool, const C: usize>(cols: &[Vec<f64>], t: f64, v: f64, mask: &mut [bool]) {
    let n = mask.len();
    let dts: [&[f64]; C] = std::array::from_fn(|j| &cols[2 * j][..n]);
    let dvs: [&[f64]; C] = std::array::from_fn(|j| &cols[2 * j + 1][..n]);
    for (i, m) in mask.iter_mut().enumerate() {
        *m = Corners::new(dts.map(|c| c[i]), dvs.map(|c| c[i])).hit::<DROP>(t, v);
    }
}

/// Evaluates [`crate::Boundary::intersects`] for a block of stored
/// boundary rows in struct-of-arrays form, as a columnar page scan decodes
/// them: `cols` holds at least the `2 * corners` corner columns in storage
/// order (`Δt₁, Δv₁, …, Δtᶜ, Δvᶜ`; trailing columns — the segment
/// endpoints ride along in the same pages — are ignored), each `len` rows
/// long. `mask` is resized to `len` and overwritten: `mask[i]` is true iff
/// row `i`'s boundary intersects `region`. No transpose, no per-row
/// materialization: the buffers the storage layer decoded into are
/// evaluated in place.
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
    for c in &cols[..2 * corners] {
        assert_eq!(c.len(), len);
    }
    mask.clear();
    mask.resize(len, false);
    let (t, v) = (region.t, region.v);
    match (region.kind, corners) {
        (SearchKind::Drop, 1) => rows::<true, 1>(cols, t, v, mask),
        (SearchKind::Drop, 2) => rows::<true, 2>(cols, t, v, mask),
        (SearchKind::Drop, _) => rows::<true, 3>(cols, t, v, mask),
        (SearchKind::Jump, 1) => rows::<false, 1>(cols, t, v, mask),
        (SearchKind::Jump, 2) => rows::<false, 2>(cols, t, v, mask),
        (SearchKind::Jump, _) => rows::<false, 3>(cols, t, v, mask),
    }
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
        match region.kind {
            SearchKind::Drop => self.reaches::<true>(region),
            SearchKind::Jump => self.reaches::<false>(region),
        }
    }

    /// [`Self::may_intersect`] of a region known to be a drop iff `DROP`.
    #[inline(always)]
    pub fn reaches<const DROP: bool>(&self, region: &QueryRegion) -> bool {
        self.min_dt <= region.t
            && if DROP {
                self.min_dv <= region.v
            } else {
                self.max_dv >= region.v
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{edge_crosses_region, point_in_region, scalar_intersects};
    use crate::{Boundary, FeaturePoint, RegionIndex, RegionMatchStats};

    fn soa(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let ncols = rows.first().map_or(0, Vec::len);
        (0..ncols)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect()
    }

    /// The boundary whose corners are `row`'s `(Δt, Δv)` pairs.
    fn boundary_of(row: &[f64]) -> Boundary {
        let pts: Vec<FeaturePoint> = row
            .chunks(2)
            .map(|c| FeaturePoint::new(c[0], c[1]))
            .collect();
        match pts[..] {
            [p] => Boundary::one(p),
            [p, q] => Boundary::two(p, q),
            [p, q, r] => Boundary::three(p, q, r),
            _ => unreachable!("boundaries have 1-3 corners"),
        }
    }

    /// Holds `rows` of `corners` corners (ascending in `Δt`) to the scalar
    /// oracle: [`Boundary::intersects`] is the short-circuit union over
    /// its `corners()`, and the kernel's mask — four segment-endpoint
    /// columns riding along, as in a stored page — is
    /// [`Boundary::intersects`] row by row. So is the region index
    /// holding `region` alone, which tests the boundary prepared once.
    fn check_rows(corners: usize, rows: &[Vec<f64>], region: &QueryRegion) {
        let mut cols = soa(rows);
        cols.resize(2 * corners, Vec::new());
        cols.extend((0..4).map(|_| vec![99.0; rows.len()]));
        let mut mask = vec![true; 3];
        boundaries_intersect_cols(corners, &cols, rows.len(), region, &mut mask);
        assert_eq!(mask.len(), rows.len());
        let mut index = RegionIndex::new();
        index.insert(7, *region);
        let (mut ids, mut stats) = (Vec::new(), RegionMatchStats::default());
        for (row, &m) in rows.iter().zip(&mask) {
            let b = boundary_of(row);
            let hit = b.intersects(region);
            let oracle = scalar_intersects(b.corners(), region);
            assert_eq!(hit, oracle, "boundary {row:?} in {region:?}");
            assert_eq!(m, hit, "kernel row {row:?} in {region:?}");
            ids.clear();
            index.matches_kind(region.kind, &b, &mut ids, &mut stats);
            assert_eq!(
                ids,
                [7].repeat(usize::from(hit)),
                "index {row:?} in {region:?}"
            );
        }
    }

    /// Holds the probe's lanes to the scalar predicates on every lane
    /// (`[dt1, dv1, dt2, dv2]`, `dt1 <= dt2`), then [`check_rows`] on the
    /// lanes as one-, two- and three-corner rows (the third corner is the
    /// next lane's far end where it lies further right, else the padding),
    /// and as three-corner rows padded by hand: the lane with its far end
    /// repeated, and with its near end repeated.
    fn check_lanes_against_scalar(lanes: &[[f64; 4]], region: &QueryRegion) {
        for lane @ &[dt1, dv1, dt2, dv2] in lanes {
            let (p1, p2) = (FeaturePoint::new(dt1, dv1), FeaturePoint::new(dt2, dv2));
            let point = point_in_region(p1, region);
            let edge = edge_crosses_region(p1, p2, region);
            assert_eq!(point_hits(dt1, dv1, region), point, "point lane {lane:?}");
            let got = edge_hits(dt1, dv1, dt2, dv2, region);
            assert_eq!(got, edge, "edge lane {lane:?} in {region:?}");
        }
        let ones: Vec<Vec<f64>> = lanes.iter().map(|l| l[..2].to_vec()).collect();
        check_rows(1, &ones, region);
        let twos: Vec<Vec<f64>> = lanes.iter().map(|l| l.to_vec()).collect();
        check_rows(2, &twos, region);
        let threes: Vec<Vec<f64>> = lanes
            .iter()
            .zip(lanes.iter().cycle().skip(1))
            .map(|(l, next)| {
                let far = if next[2] >= l[2] { &next[2..] } else { &l[2..] };
                [&l[..], far].concat()
            })
            .collect();
        check_rows(3, &threes, region);
        let padded: Vec<Vec<f64>> = lanes
            .iter()
            .flat_map(|l| [[&l[..], &l[2..]].concat(), [&l[..2], &l[..]].concat()])
            .collect();
        check_rows(3, &padded, region);
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

    // Property tests sample thousands of cases; under Miri's interpreter
    // that is hours, not seconds, so this one runs natively only.
    #[cfg(not(miri))]
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Random blocks of 1–3-corner boundaries, of odd lengths too so
        /// that a vectorised loop's remainder lanes are covered, one in
        /// twelve coordinates exactly on the region's bound: held to the
        /// scalar oracle by [`check_rows`].
        #[test]
        fn boundaries_and_the_kernel_equal_the_scalar_oracle(
            corners in 1usize..4,
            len in 0usize..70,
            seed in proptest::prelude::any::<u64>(),
            region in (0.5f64..12.0, 0.1f64..6.0, proptest::prelude::any::<bool>()),
        ) {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let (t, mag, drop) = region;
            let region = if drop {
                QueryRegion::drop(t, -mag)
            } else {
                QueryRegion::jump(t, mag)
            };
            let mut coord = |range: std::ops::Range<f64>, bound: f64| {
                [rng.random_range(range), bound][usize::from(rng.random_range(0..12u32) == 0)]
            };
            let rows: Vec<Vec<f64>> = (0..len)
                .map(|_| {
                    let mut dts: Vec<f64> =
                        (0..corners).map(|_| coord(0.0..16.0, region.t)).collect();
                    dts.sort_by(f64::total_cmp);
                    dts.iter().flat_map(|&dt| [dt, coord(-8.0..8.0, region.v)]).collect()
                })
                .collect();
            check_rows(corners, &rows, &region);
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
