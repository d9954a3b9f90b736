//! The two intersection predicates of §4.4 as the paper states them,
//! short-circuit: the oracles the branch-free lanes of [`crate::batch`]
//! (and so [`crate::Boundary::intersects`]) are held to bit for bit.
//!
//! SegDiff reduces "does this parallelogram intersect the query region" to
//! a union of **point queries** (is a stored corner inside the region) and
//! **line queries** (does a boundary edge with both ends outside the region
//! cross into it). Both are simple range conditions over stored columns,
//! which is what makes them indexable.

use crate::{FeaturePoint, QueryRegion, SearchKind};

/// The union of §4.4 over a boundary's corners (ascending in `Δt`): the
/// point query on every corner or the line query on every edge.
pub(crate) fn scalar_intersects(corners: &[FeaturePoint], region: &QueryRegion) -> bool {
    corners.iter().any(|&p| point_in_region(p, region))
        || corners
            .windows(2)
            .any(|w| edge_crosses_region(w[0], w[1], region))
}

/// Point query (paper §4.4): is the stored corner inside the query region?
///
/// This is the *storage-level* predicate — `Δt <= T` and `Δv <= V` for drop
/// search — deliberately without the `Δt > 0` constraint of the problem
/// statement, exactly as the paper issues it. Stored corners always have
/// `Δt >= 0`; a match at `Δt = 0` can only arise from segment pairs that
/// also contain events with arbitrarily small positive `Δt`, which is
/// covered by the `2ε` false-positive tolerance (Lemma 5).
pub(crate) fn point_in_region(p: FeaturePoint, region: &QueryRegion) -> bool {
    match region.kind {
        SearchKind::Drop => p.dt <= region.t && p.dv <= region.v,
        SearchKind::Jump => p.dt <= region.t && p.dv >= region.v,
    }
}

/// Line query (paper §4.4): does the boundary edge `p1 -> p2`
/// (`p1.dt <= p2.dt`) cross the query region while both of its endpoints
/// lie outside it?
///
/// For drop search the condition is: the left end is above the region
/// (`Δt' <= T`, `Δv' > V`), the right end is beyond it (`Δt'' > T`,
/// `Δv'' < V`), and the edge's interpolated value at `Δt = T` is `<= V`.
///
/// # Panics
///
/// Debug-asserts `p1.dt <= p2.dt`.
pub(crate) fn edge_crosses_region(
    p1: FeaturePoint,
    p2: FeaturePoint,
    region: &QueryRegion,
) -> bool {
    debug_assert!(p1.dt <= p2.dt, "edge endpoints must be ordered by dt");
    let (t, v) = (region.t, region.v);
    match region.kind {
        SearchKind::Drop => {
            p1.dt <= t
                && p1.dv > v
                && p2.dt > t
                && p2.dv < v
                && p1.dv + (p2.dv - p1.dv) / (p2.dt - p1.dt) * (t - p1.dt) <= v
        }
        SearchKind::Jump => {
            p1.dt <= t
                && p1.dv < v
                && p2.dt > t
                && p2.dv > v
                && p1.dv + (p2.dv - p1.dv) / (p2.dt - p1.dt) * (t - p1.dt) >= v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_query_drop() {
        let r = QueryRegion::drop(10.0, -2.0);
        assert!(point_in_region(FeaturePoint::new(5.0, -3.0), &r));
        assert!(point_in_region(FeaturePoint::new(10.0, -2.0), &r));
        // Unlike `QueryRegion::contains`, dt = 0 is allowed at storage level.
        assert!(point_in_region(FeaturePoint::new(0.0, -3.0), &r));
        assert!(!point_in_region(FeaturePoint::new(11.0, -3.0), &r));
        assert!(!point_in_region(FeaturePoint::new(5.0, -1.0), &r));
    }

    #[test]
    fn point_query_jump() {
        let r = QueryRegion::jump(10.0, 2.0);
        assert!(point_in_region(FeaturePoint::new(5.0, 3.0), &r));
        assert!(!point_in_region(FeaturePoint::new(5.0, 1.0), &r));
    }

    #[test]
    fn line_query_detects_crossing() {
        let r = QueryRegion::drop(10.0, -2.0);
        // Edge from above-left to below-right, dipping under V before T.
        let p1 = FeaturePoint::new(2.0, -1.0);
        let p2 = FeaturePoint::new(12.0, -6.0);
        // At dt = 10: -1 + (-5/10)*8 = -5 <= -2.
        assert!(edge_crosses_region(p1, p2, &r));
    }

    #[test]
    fn line_query_rejects_late_crossing() {
        let r = QueryRegion::drop(10.0, -2.0);
        // Crosses V only after dt = T.
        let p1 = FeaturePoint::new(9.0, -1.0);
        let p2 = FeaturePoint::new(30.0, -6.0);
        // At dt = 10: -1 + (-5/21)*1 = -1.238 > -2.
        assert!(!edge_crosses_region(p1, p2, &r));
    }

    #[test]
    fn line_query_requires_both_ends_outside() {
        let r = QueryRegion::drop(10.0, -2.0);
        // Right end inside the region: the point query handles this case.
        let p1 = FeaturePoint::new(2.0, -1.0);
        let p2 = FeaturePoint::new(8.0, -4.0);
        assert!(!edge_crosses_region(p1, p2, &r));
    }

    #[test]
    fn line_query_jump_mirror() {
        let r = QueryRegion::jump(10.0, 2.0);
        let p1 = FeaturePoint::new(2.0, 1.0);
        let p2 = FeaturePoint::new(12.0, 6.0);
        assert!(edge_crosses_region(p1, p2, &r));
        let p2_shallow = FeaturePoint::new(12.0, 2.5);
        // At dt = 10: 1 + (1.5/10)*8 = 2.2 >= 2 -> crosses.
        assert!(edge_crosses_region(p1, p2_shallow, &r));
        let p2_late = FeaturePoint::new(40.0, 6.0);
        // At dt = 10: 1 + (5/38)*8 = 2.05 >= 2 -> still crosses.
        assert!(edge_crosses_region(p1, p2_late, &r));
    }
}
