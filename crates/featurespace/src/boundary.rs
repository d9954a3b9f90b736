//! Boundary extraction: the corner analysis of §4.3.1 and the Appendix.

use crate::batch::Corners;
use crate::{FeaturePoint, Parallelogram, QueryRegion, SearchKind};
use segmentation::Segment;

/// The region-facing boundary of a feature parallelogram: a chain of one,
/// two, or three corner points ordered by increasing `Δt`, or none at all
/// when the pair is pruned.
///
/// For drop search this is the lower-left boundary, for jump search the
/// upper-left boundary. These are the rows SegDiff actually stores; the ε
/// shift of Lemma 4 has already been applied by the time a `Boundary` is
/// produced by [`pick_corners`]. The corners are held three wide, the last
/// one repeated as padding, and the padding is exact for
/// [`Boundary::intersects`]: a repeated corner is tested twice, and an edge
/// from a corner to itself (`dt1 == dt2`) fails the line query's
/// `dt1 <= T < dt2`. So every boundary is tested by the same straight-line
/// lanes, whatever its length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// The corners, ascending in `Δt`, the last repeated up to three.
    pts: [FeaturePoint; 3],
    /// How many of `pts` the boundary has (1–3), 0 when it is pruned.
    len: usize,
}

impl Boundary {
    /// `len` of `pts` (padded with the last of them), or a pruned
    /// boundary unless `keep`.
    fn new(pts: [FeaturePoint; 3], len: usize, keep: bool) -> Self {
        Self {
            pts,
            len: len * usize::from(keep),
        }
    }

    /// A degenerate single-corner boundary.
    pub fn one(p: FeaturePoint) -> Self {
        Self::new([p; 3], 1, true)
    }

    /// A two-corner boundary (one edge).
    ///
    /// # Panics
    ///
    /// Debug-asserts the corners are ordered by `Δt`.
    pub fn two(p: FeaturePoint, q: FeaturePoint) -> Self {
        debug_assert!(p.dt <= q.dt);
        Self::new([p, q, q], 2, true)
    }

    /// A three-corner boundary (two edges).
    pub fn three(p: FeaturePoint, q: FeaturePoint, r: FeaturePoint) -> Self {
        debug_assert!(p.dt <= q.dt && q.dt <= r.dt);
        Self::new([p, q, r], 3, true)
    }

    /// The corners, ordered by increasing `Δt`; none when pruned.
    pub fn corners(&self) -> &[FeaturePoint] {
        &self.pts[..self.len]
    }

    /// Number of corners: 1–3, 0 when the pair is pruned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pair is pruned: its shifted parallelogram cannot
    /// contain any drop (jump), and nothing of it is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does this boundary intersect the query region? The union of the
    /// point queries on every corner and the line queries on every edge
    /// (§4.4), `false` when pruned: the branch-free lanes of
    /// [`crate::batch`] on the three padded corners, `|` for `||`, which
    /// is what the storage layer's column kernel evaluates on a stored row.
    #[inline]
    pub fn intersects(&self, region: &QueryRegion) -> bool {
        (self.len > 0) & self.lanes().hits(region)
    }

    /// The three padded corners as the lanes read them, edge slopes
    /// divided: a caller testing one non-pruned boundary against many
    /// regions prepares it once, and each [`Corners::hit`] is then
    /// [`Self::intersects`] bit for bit.
    #[inline]
    pub(crate) fn lanes(&self) -> Corners<3> {
        Corners::new(self.pts.map(|p| p.dt), self.pts.map(|p| p.dv))
    }
}

/// Picks the boundary of the pair whose parallelogram is `para` — earlier
/// segment of slope `k_cd`, later of slope `k_ab` — under tolerance `eps`:
/// the lower-left corners for [`SearchKind::Drop`] shifted down by `eps`,
/// the upper-left for [`SearchKind::Jump`] shifted up (Lemma 4), pruned
/// where the Appendix prunes — an empty boundary. The slopes split the
/// six cases of Table 2 (`k_CD >= 0` or not, then `k_AB` against 0 and
/// against `k_CD`) in the order the paper lists them.
#[inline]
pub fn pick_corners(
    para: &Parallelogram,
    k_cd: f64,
    k_ab: f64,
    eps: f64,
    kind: SearchKind,
) -> Boundary {
    let one = |p: FeaturePoint, keep: bool| Boundary::new([p; 3], 1, keep);
    let two = |p: FeaturePoint, q: FeaturePoint, keep: bool| Boundary::new([p, q, q], 2, keep);
    // A chain through `mid` to `ad`: all three corners while `mid` holds an
    // event itself (`mid_holds`), else the edge (`mid`, `ad`) while `ad`
    // does (`ad_holds`) — "drop II" / "jump II" of the Appendix.
    let chain = |bc: FeaturePoint, mid: FeaturePoint, ad: FeaturePoint, mid_holds, ad_holds| {
        if mid_holds {
            Boundary::new([bc, mid, ad], 3, true)
        } else {
            two(mid, ad, ad_holds)
        }
    };
    match kind {
        SearchKind::Drop => {
            let [bc, bd, ac, ad] = [para.bc, para.bd, para.ac, para.ad].map(|c| c.shifted(-eps));
            if k_cd >= 0.0 {
                if k_ab <= 0.0 {
                    two(bc, ac, ac.dv <= 0.0) // case 1: (BC, AC)
                } else {
                    one(bc, bc.dv <= 0.0) // cases 2, 3: BC alone
                }
            } else if k_ab >= 0.0 {
                two(bc, bd, bd.dv <= 0.0) // case 4: (BC, BD)
            } else {
                // Case 5 chains through AC, case 6 through BD.
                let mid = if k_ab <= k_cd { ac } else { bd };
                chain(bc, mid, ad, mid.dv <= 0.0, ad.dv <= 0.0)
            }
        }
        SearchKind::Jump => {
            let [bc, bd, ac, ad] = [para.bc, para.bd, para.ac, para.ad].map(|c| c.shifted(eps));
            if k_cd >= 0.0 {
                if k_ab <= 0.0 {
                    two(bc, bd, bd.dv > 0.0) // case 1: (BC, BD)
                } else {
                    // Case 2 chains through AC, case 3 through BD.
                    let mid = if k_ab >= k_cd { ac } else { bd };
                    chain(bc, mid, ad, mid.dv >= 0.0, ad.dv > 0.0)
                }
            } else if k_ab >= 0.0 {
                two(bc, ac, ac.dv > 0.0) // case 4: (BC, AC)
            } else {
                one(bc, bc.dv > 0.0) // cases 5, 6: BC alone
            }
        }
    }
}

/// Picks the boundary for events *within* the segment `seg`: both event
/// points on one segment give exactly the feature segment through the
/// origin, `(0, 0) → (duration, Δv)` (the parallelogram of a segment with
/// itself degenerates, §4.2), ε-shifted, and pruned when the segment
/// cannot hold a drop (jump): at `ε = 0` a non-falling (non-rising)
/// segment keeps nothing.
#[inline]
pub fn pick_self_corners(seg: &Segment, eps: f64, kind: SearchKind) -> Boundary {
    let far = FeaturePoint::new(seg.duration(), seg.delta_v());
    // Only a boundary that dips below (rises above) zero can ever reach
    // V < 0 (V > 0).
    let (dy, keep) = match kind {
        SearchKind::Drop => (-eps, far.dv.min(0.0) - eps < 0.0),
        SearchKind::Jump => (eps, far.dv.max(0.0) + eps > 0.0),
    };
    let (origin, far) = (FeaturePoint::new(0.0, 0.0).shifted(dy), far.shifted(dy));
    Boundary::new([origin, far, far], 2, keep)
}

/// Extracts the stored boundary for the pair (earlier `cd`, later `ab`)
/// under error tolerance `eps` ([`pick_corners`]), or `None` when the
/// shifted parallelogram cannot contain any drop (jump) and nothing needs
/// to be stored — the pruning conditions of the Appendix.
///
/// The returned corners are already ε-shifted: down by `eps` for
/// [`SearchKind::Drop`], up by `eps` for [`SearchKind::Jump`] (Lemma 4).
///
/// # Panics
///
/// Panics unless `ab` starts at or after `cd` ends
/// ([`Parallelogram::from_pair`]).
pub fn extract_boundary(
    cd: &Segment,
    ab: &Segment,
    eps: f64,
    kind: SearchKind,
) -> Option<Boundary> {
    debug_assert!(eps >= 0.0);
    let para = Parallelogram::from_pair(cd, ab);
    Some(pick_corners(&para, cd.slope(), ab.slope(), eps, kind)).filter(|b| !b.is_empty())
}

/// The boundary for events occurring *within* a single segment
/// ([`pick_self_corners`]): the ε-shifted two-corner boundary, or `None`
/// when the segment cannot contain a drop (jump).
pub fn extract_self_boundary(seg: &Segment, eps: f64, kind: SearchKind) -> Option<Boundary> {
    debug_assert!(eps >= 0.0);
    Some(pick_self_corners(seg, eps, kind)).filter(|b| !b.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::SlopeCase;
    use crate::intersect::scalar_intersects;
    use proptest::prelude::*;

    /// cd rising, ab falling: case 1.
    fn case1_pair() -> (Segment, Segment) {
        (
            Segment::new(0.0, 1.0, 10.0, 4.0),
            Segment::new(25.0, 6.0, 40.0, 2.0),
        )
    }

    #[test]
    fn case1_drop_boundary_is_bc_ac() {
        let (cd, ab) = case1_pair();
        let b = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
        let para = Parallelogram::from_pair(&cd, &ab);
        assert_eq!(b.corners(), &[para.bc, para.ac]);
    }

    #[test]
    fn case1_jump_boundary_is_bc_bd() {
        let (cd, ab) = case1_pair();
        let b = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
        let para = Parallelogram::from_pair(&cd, &ab);
        assert_eq!(b.corners(), &[para.bc, para.bd]);
    }

    #[test]
    fn epsilon_shift_applied() {
        let (cd, ab) = case1_pair();
        let b0 = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
        let b1 = extract_boundary(&cd, &ab, 0.5, SearchKind::Drop).unwrap();
        for (p0, p1) in b0.corners().iter().zip(b1.corners()) {
            assert_eq!(p1.dt, p0.dt);
            assert!((p1.dv - (p0.dv - 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn pruning_drops_hopeless_pairs() {
        // Both segments rise and ab sits far above cd: every feature dv > 0.
        let cd = Segment::new(0.0, 0.0, 10.0, 1.0); // k = 0.1
        let ab = Segment::new(20.0, 10.0, 30.0, 13.0); // k = 0.3, case 2
        assert!(extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).is_none());
        assert!(extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).is_some());
    }

    #[test]
    fn case5_degrades_to_two_corners() {
        // Both falling steeply, ab below cd -> AC already a drop vs BC a jump?
        // Construct: cd falls from 10 to 8; ab falls from 9 to 1 (steeper).
        let cd = Segment::new(0.0, 10.0, 10.0, 8.0); // k = -0.2
        let ab = Segment::new(10.0, 9.0, 20.0, 1.0); // k = -0.8 <= k_cd: case 5
        let para = Parallelogram::from_pair(&cd, &ab);
        // bc.dv = 9 - 8 = 1 > 0 (a jump), ac.dv = 1 - 8 = -7 <= 0.
        assert!(para.bc.dv > 0.0 && para.ac.dv < 0.0);
        let b = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
        assert_eq!(b.len(), 3); // drop I: AC itself is a drop
                                // Now lift ab so AC becomes a jump but AD stays a drop.
        let ab2 = Segment::new(10.0, 19.0, 20.0, 9.5); // ac.dv = 1.5, ad.dv = -0.5
        let para2 = Parallelogram::from_pair(&cd, &ab2);
        assert!(para2.ac.dv > 0.0 && para2.ad.dv < 0.0);
        let b2 = extract_boundary(&cd, &ab2, 0.0, SearchKind::Drop).unwrap();
        assert_eq!(b2.len(), 2); // drop II: only (AC, AD)
        assert_eq!(b2.corners(), &[para2.ac, para2.ad]);
    }

    #[test]
    fn corner_counts_match_case_table() {
        let (cd, ab) = case1_pair();
        let case = SlopeCase::classify(cd.slope(), ab.slope());
        assert_eq!(case, SlopeCase::C1);
        let b = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
        assert_eq!(b.len(), case.drop_corner_count());
    }

    #[test]
    fn self_boundary_of_falling_segment() {
        let seg = Segment::new(0.0, 10.0, 3600.0, 5.0); // 5-unit drop in 1 h
        let b = extract_self_boundary(&seg, 0.0, SearchKind::Drop).unwrap();
        assert_eq!(
            b.corners(),
            &[FeaturePoint::new(0.0, 0.0), FeaturePoint::new(3600.0, -5.0)]
        );
        // A 3-unit drop within 1 h is found via the line/point queries.
        let region = QueryRegion::drop(3600.0, -3.0);
        assert!(b.intersects(&region));
        // A 6-unit drop is not contained in this segment.
        let deep = QueryRegion::drop(3600.0, -6.0);
        assert!(!b.intersects(&deep));
        // Rising segments store no drop boundary at eps = 0.
        let rise = Segment::new(0.0, 0.0, 100.0, 5.0);
        assert!(extract_self_boundary(&rise, 0.0, SearchKind::Drop).is_none());
        assert!(extract_self_boundary(&rise, 0.0, SearchKind::Jump).is_some());
    }

    #[test]
    fn self_boundary_interior_drop_detected_via_line_query() {
        // Drop of 5 over 2 h: a 3-unit drop needs 1.2 h, so T = 1 h misses
        // it but T = 1.5 h finds it (crossing detected by the line query).
        let seg = Segment::new(0.0, 10.0, 7200.0, 5.0);
        let b = extract_self_boundary(&seg, 0.0, SearchKind::Drop).unwrap();
        assert!(!b.intersects(&QueryRegion::drop(3600.0, -3.0)));
        assert!(b.intersects(&QueryRegion::drop(5400.0, -3.0)));
    }

    #[test]
    fn boundary_intersects_unions_point_and_line() {
        let b = Boundary::two(FeaturePoint::new(2.0, -1.0), FeaturePoint::new(12.0, -6.0));
        // Point query hit: right corner inside.
        assert!(b.intersects(&QueryRegion::drop(20.0, -5.0)));
        // Line query hit: both corners outside, edge crosses.
        assert!(b.intersects(&QueryRegion::drop(10.0, -2.0)));
        // Miss entirely.
        assert!(!b.intersects(&QueryRegion::drop(1.0, -5.0)));
    }

    #[test]
    fn boundary_constructors_and_accessors() {
        let p = FeaturePoint::new(1.0, 2.0);
        let q = FeaturePoint::new(3.0, 1.0);
        let r = FeaturePoint::new(5.0, 0.0);
        assert_eq!(Boundary::one(p).len(), 1);
        assert_eq!(Boundary::two(p, q).len(), 2);
        assert_eq!(Boundary::three(p, q, r).corners(), &[p, q, r]);
        assert!(!Boundary::one(p).is_empty());
        let pruned = Boundary::new([p, q, q], 2, false);
        assert!(pruned.is_empty() && pruned.corners().is_empty());
        assert!(!pruned.intersects(&QueryRegion::jump(10.0, 0.5)));
    }

    /// The paper's six-case table as the Appendix states it, case by case:
    /// the reference [`pick_corners`] is held to.
    fn case_table(cd: &Segment, ab: &Segment, eps: f64, kind: SearchKind) -> Option<Boundary> {
        let para = Parallelogram::from_pair(cd, ab);
        let case = SlopeCase::classify(cd.slope(), ab.slope());
        let (bc, bd, ac, ad) = (para.bc, para.bd, para.ac, para.ad);
        match kind {
            SearchKind::Drop => {
                let b = match case {
                    SlopeCase::C1 => (ac.dv - eps <= 0.0).then(|| Boundary::two(bc, ac)),
                    SlopeCase::C2 | SlopeCase::C3 => {
                        (bc.dv - eps <= 0.0).then(|| Boundary::one(bc))
                    }
                    SlopeCase::C4 => (bd.dv - eps <= 0.0).then(|| Boundary::two(bc, bd)),
                    SlopeCase::C5 => {
                        if ac.dv - eps <= 0.0 {
                            Some(Boundary::three(bc, ac, ad))
                        } else if ad.dv - eps <= 0.0 {
                            Some(Boundary::two(ac, ad))
                        } else {
                            None
                        }
                    }
                    SlopeCase::C6 => {
                        if bd.dv - eps <= 0.0 {
                            Some(Boundary::three(bc, bd, ad))
                        } else if ad.dv - eps <= 0.0 {
                            Some(Boundary::two(bd, ad))
                        } else {
                            None
                        }
                    }
                };
                b.map(|b| shifted(b, -eps))
            }
            SearchKind::Jump => {
                let b = match case {
                    SlopeCase::C1 => (bd.dv + eps > 0.0).then(|| Boundary::two(bc, bd)),
                    SlopeCase::C2 => {
                        if ac.dv + eps >= 0.0 {
                            Some(Boundary::three(bc, ac, ad))
                        } else if ad.dv + eps > 0.0 {
                            Some(Boundary::two(ac, ad))
                        } else {
                            None
                        }
                    }
                    SlopeCase::C3 => {
                        if bd.dv + eps >= 0.0 {
                            Some(Boundary::three(bc, bd, ad))
                        } else if ad.dv + eps > 0.0 {
                            Some(Boundary::two(bd, ad))
                        } else {
                            None
                        }
                    }
                    SlopeCase::C4 => (ac.dv + eps > 0.0).then(|| Boundary::two(bc, ac)),
                    SlopeCase::C5 | SlopeCase::C6 => (bc.dv + eps > 0.0).then(|| Boundary::one(bc)),
                };
                b.map(|b| shifted(b, eps))
            }
        }
    }

    /// `b` with every corner shifted vertically by `dy` (Lemma 4).
    fn shifted(b: Boundary, dy: f64) -> Boundary {
        Boundary {
            pts: b.pts.map(|p| p.shifted(dy)),
            ..b
        }
    }

    /// The self pair as §4.2 states it: the origin and the far end, pruned
    /// unless the shifted segment dips below (rises above) zero.
    fn self_reference(seg: &Segment, eps: f64, kind: SearchKind) -> Option<Boundary> {
        let origin = FeaturePoint::new(0.0, 0.0);
        let far = FeaturePoint::new(seg.duration(), seg.delta_v());
        let two = Boundary::two(origin, far);
        match kind {
            SearchKind::Drop => (far.dv.min(0.0) - eps < 0.0).then(|| shifted(two, -eps)),
            SearchKind::Jump => (far.dv.max(0.0) + eps > 0.0).then(|| shifted(two, eps)),
        }
    }

    fn bits(b: Option<Boundary>) -> Option<Vec<(u64, u64)>> {
        b.map(|b| {
            let corners = b.corners().iter();
            corners.map(|p| (p.dt.to_bits(), p.dv.to_bits())).collect()
        })
    }

    /// Regions on the pick's own corners — `T` exactly a corner's `Δt`,
    /// `V` exactly a corner's `Δv`, each of the nine combinations, where
    /// `<=` and `<` part — and on `(t, v)`.
    fn regions_on(b: Option<Boundary>, kind: SearchKind, t: f64, v: f64) -> Vec<QueryRegion> {
        let mut ts = vec![t];
        let mut vs = vec![v];
        for p in b.iter().flat_map(|b| b.corners()) {
            ts.push(p.dt);
            vs.push(p.dv);
        }
        let mut out = Vec::new();
        for &t in ts.iter().filter(|&&t| t > 0.0) {
            for &v in &vs {
                match kind {
                    SearchKind::Drop if v < 0.0 => out.push(QueryRegion::drop(t, v)),
                    SearchKind::Jump if v > 0.0 => out.push(QueryRegion::jump(t, v)),
                    _ => {}
                }
            }
        }
        out
    }

    /// Holds the pick of (`cd`, `ab`) and of `ab`'s self pair to the case
    /// table bit for bit, and its padded lanes to the scalar oracle on
    /// regions through every corner.
    fn check_pair(cd: &Segment, ab: &Segment, eps: f64, t: f64, v: f64) -> TestCaseResult {
        for kind in [SearchKind::Drop, SearchKind::Jump] {
            let para = Parallelogram::from_pair(cd, ab);
            let pairs = [
                (
                    pick_corners(&para, cd.slope(), ab.slope(), eps, kind),
                    case_table(cd, ab, eps, kind),
                ),
                (
                    pick_self_corners(ab, eps, kind),
                    self_reference(ab, eps, kind),
                ),
            ];
            for (pick, want) in pairs {
                prop_assert_eq!(
                    bits(Some(pick).filter(|b| !b.is_empty())),
                    bits(want),
                    "{:?} {:?} {:?}",
                    kind,
                    cd,
                    ab
                );
                if let Some(last) = pick.len().checked_sub(1) {
                    let pad = &pick.pts[last..];
                    prop_assert!(
                        pad.iter().all(|p| p == &pad[0]),
                        "padded with the last corner"
                    );
                }
                for region in regions_on(want, kind, t, v) {
                    let hit = want.is_some_and(|b| scalar_intersects(b.corners(), &region));
                    let got = pick.intersects(&region);
                    prop_assert_eq!(got, hit, "{:?} on {:?}", region, pick);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 2048 }))]

        /// The pick is the case table on random pairs: arbitrary values,
        /// durations and gaps, adjacent pairs (gap 0) included.
        #[test]
        fn the_pick_is_the_case_table_on_random_pairs(
            v in (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0),
            d in (0.1f64..100.0, 0.0f64..50.0, 0.1f64..100.0, any::<bool>()),
            eps in 0.0f64..2.0,
            region in (0.1f64..250.0, 0.01f64..60.0),
        ) {
            let (gap, t) = (if d.3 { d.1 } else { 0.0 }, region.0);
            let cd = Segment::new(0.0, v.0, d.0, v.1);
            let ab = Segment::new(d.0 + gap, v.2, d.0 + gap + d.2, v.3);
            check_pair(&cd, &ab, eps, t, -region.1)?;
            check_pair(&cd, &ab, eps, t, region.1)?;
        }

        /// The pick is the case table on its ties, on a grid of quarters
        /// where every subtraction is exact: `k_AB == k_CD` (the C2/C3 and
        /// C5/C6 splits), zero slopes, and a corner whose `Δv` is exactly
        /// `±ε` (jump C2/C3 keep their chain at `>=`, every other test is
        /// `>` or `<=`).
        #[test]
        fn the_pick_is_the_case_table_on_its_ties(
            v in (-16i32..16, -16i32..16, -16i32..16, -16i32..16),
            d in (1i32..16, 0i32..8, 1i32..16),
            tie in (0usize..4, 0usize..4, any::<bool>()),
            slope in -8i32..8,
            eps in 0i32..5,
            region in (1i32..120, 1i32..40),
        ) {
            let q = |n: i32| f64::from(n) * 0.25;
            let eps = q(eps);
            let (vd, mut vc, mut vb, mut va) = (q(v.0), q(v.1), q(v.2), q(v.3));
            let (d1, gap, d2) = (q(d.0), q(d.1), q(d.2));
            let (sign, slope) = (if tie.2 { 1.0 } else { -1.0 }, q(slope));
            match tie.0 {
                // The later segment parallel to the earlier one, of
                // another length, so that AC and BD differ.
                0 => {
                    vc = vd + slope * d1;
                    va = vb + slope * d2;
                }
                // One or both segments flat.
                1 => {
                    vc = vd;
                    if tie.2 {
                        va = vb;
                    }
                }
                // A corner exactly ±ε: BC, BD, AC or AD.
                2 => match tie.1 {
                    0 => vb = vc + sign * eps,
                    1 => vb = vd + sign * eps,
                    2 => va = vc + sign * eps,
                    _ => va = vd + sign * eps,
                },
                // Parallel, and AC — the middle corner of jump case 2's
                // and drop case 5's chain — exactly ±ε.
                _ => {
                    vc = vd + slope * d1;
                    va = vc + sign * eps;
                    vb = va - slope * d2;
                }
            }
            let cd = Segment::new(0.0, vd, d1, vc);
            let ab = Segment::new(d1 + gap, vb, d1 + gap + d2, va);
            check_pair(&cd, &ab, eps, q(region.0), -q(region.1))?;
            check_pair(&cd, &ab, eps, q(region.0), q(region.1))?;
            // Parallel cases really are ties.
            if tie.0 == 0 || tie.0 == 3 {
                prop_assert_eq!(cd.slope().to_bits(), ab.slope().to_bits());
            }
        }
    }
}
