//! Feature parallelograms (paper §4.2, Lemma 3).

use crate::FeaturePoint;
use segmentation::Segment;

/// The feature parallelogram of two data segments `CD` (earlier) and `AB`
/// (later, `t_B >= t_C`).
///
/// With `D`/`C` the start/end of the earlier segment and `B`/`A` the
/// start/end of the later one, the four corners are the feature points of
/// the four endpoint pairs:
///
/// * `bc = (t_B - t_C, v_B - v_C)` — closest pair,
/// * `bd = (t_B - t_D, v_B - v_D)`,
/// * `ac = (t_A - t_C, v_A - v_C)`,
/// * `ad = (t_A - t_D, v_A - v_D)` — farthest pair.
///
/// Lemma 3: this quadrangle is a parallelogram, and it contains the feature
/// point of every pair with one point on `CD` and the other on `AB`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parallelogram {
    /// Corner for the pair (C, B).
    pub bc: FeaturePoint,
    /// Corner for the pair (D, B).
    pub bd: FeaturePoint,
    /// Corner for the pair (C, A).
    pub ac: FeaturePoint,
    /// Corner for the pair (D, A).
    pub ad: FeaturePoint,
}

impl Parallelogram {
    /// Builds the parallelogram for the earlier segment `cd` and the later
    /// segment `ab`.
    ///
    /// # Panics
    ///
    /// Panics unless `ab.t_start >= cd.t_end` (the segments must not
    /// overlap in time; Lemma 3's precondition `t_B >= t_C`).
    pub fn from_pair(cd: &Segment, ab: &Segment) -> Self {
        assert!(
            ab.t_start >= cd.t_end,
            "later segment must start at or after the earlier segment ends"
        );
        Self::between(cd, ab)
    }

    /// [`Parallelogram::from_pair`] without its order check, for a caller
    /// that has checked a whole run's order once: a search over a sensor's
    /// segments, whose order is checked as they are decoded.
    #[inline]
    pub fn between(cd: &Segment, ab: &Segment) -> Self {
        let (t_d, v_d) = (cd.t_start, cd.v_start);
        let (t_c, v_c) = (cd.t_end, cd.v_end);
        let (t_b, v_b) = (ab.t_start, ab.v_start);
        let (t_a, v_a) = (ab.t_end, ab.v_end);
        Self {
            bc: FeaturePoint::of_pair(t_c, v_c, t_b, v_b),
            bd: FeaturePoint::of_pair(t_d, v_d, t_b, v_b),
            ac: FeaturePoint::of_pair(t_c, v_c, t_a, v_a),
            ad: FeaturePoint::of_pair(t_d, v_d, t_a, v_a),
        }
    }

    /// The four corners in the paper's order `(BC, BD, AD, AC)`.
    pub fn corners(&self) -> [FeaturePoint; 4] {
        [self.bc, self.bd, self.ad, self.ac]
    }

    /// Whether `p` lies inside the parallelogram (within `tol` of it).
    ///
    /// Solves `p = bc + s * (bd - bc) + r * (ac - bc)` and checks
    /// `s, r ∈ [0, 1]`; degenerate parallelograms (equal slopes, or a
    /// segment paired with itself) fall back to a distance check against
    /// the diagonal `bc → ad`.
    pub fn contains(&self, p: FeaturePoint, tol: f64) -> bool {
        let u = self.bd - self.bc;
        let w = self.ac - self.bc;
        let q = p - self.bc;
        let det = u.dt * w.dv - u.dv * w.dt;
        let scale = (u.dt.abs() + w.dt.abs() + u.dv.abs() + w.dv.abs()).max(1.0);
        if det.abs() <= 1e-9 * scale * scale {
            // Degenerate: corners are collinear; the region is the segment
            // from bc to ad.
            return point_segment_distance(p, self.bc, self.ad) <= tol;
        }
        let s = (q.dt * w.dv - q.dv * w.dt) / det;
        let r = (u.dt * q.dv - u.dv * q.dt) / det;
        let eps = tol / scale.max(1e-12);
        (-eps..=1.0 + eps).contains(&s) && (-eps..=1.0 + eps).contains(&r)
    }
}

/// Distance from `p` to the segment `a -> b` in feature space.
fn point_segment_distance(p: FeaturePoint, a: FeaturePoint, b: FeaturePoint) -> f64 {
    let ab = b - a;
    let len2 = ab.dt * ab.dt + ab.dv * ab.dv;
    if len2 == 0.0 {
        return p.distance(&a);
    }
    let t = ((p.dt - a.dt) * ab.dt + (p.dv - a.dv) * ab.dv) / len2;
    let t = t.clamp(0.0, 1.0);
    let proj = FeaturePoint::new(a.dt + t * ab.dt, a.dv + t * ab.dv);
    p.distance(&proj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Segment, Segment) {
        // CD rises, AB falls; separated in time.
        let cd = Segment::new(0.0, 1.0, 10.0, 4.0); // D=(0,1), C=(10,4)
        let ab = Segment::new(25.0, 6.0, 40.0, 2.0); // B=(25,6), A=(40,2)
        (cd, ab)
    }

    #[test]
    fn corners_match_definitions() {
        let (cd, ab) = pair();
        let p = Parallelogram::from_pair(&cd, &ab);
        assert_eq!(p.bc, FeaturePoint::new(15.0, 2.0)); // B - C
        assert_eq!(p.bd, FeaturePoint::new(25.0, 5.0)); // B - D
        assert_eq!(p.ac, FeaturePoint::new(30.0, -2.0)); // A - C
        assert_eq!(p.ad, FeaturePoint::new(40.0, 1.0)); // A - D
    }

    #[test]
    fn is_a_parallelogram() {
        // Opposite sides are equal vectors: BD - BC == AD - AC.
        let (cd, ab) = pair();
        let p = Parallelogram::from_pair(&cd, &ab);
        let e1 = p.bd - p.bc;
        let e2 = p.ad - p.ac;
        assert!((e1.dt - e2.dt).abs() < 1e-12);
        assert!((e1.dv - e2.dv).abs() < 1e-12);
        // And the side (BC, BD) has CD's duration and slope (Lemma 3 proof).
        assert_eq!(e1.dt, cd.duration());
        assert!((e1.dv / e1.dt - cd.slope()).abs() < 1e-12);
    }

    #[test]
    fn contains_feature_points_of_cross_pairs() {
        let (cd, ab) = pair();
        let p = Parallelogram::from_pair(&cd, &ab);
        for i in 0..=10 {
            for j in 0..=10 {
                let tc = cd.t_start + cd.duration() * i as f64 / 10.0;
                let tb = ab.t_start + ab.duration() * j as f64 / 10.0;
                let q = FeaturePoint::of_pair(tc, cd.value_at(tc), tb, ab.value_at(tb));
                assert!(p.contains(q, 1e-9), "({i},{j}) -> {q:?} escaped");
            }
        }
    }

    #[test]
    fn excludes_far_points() {
        let (cd, ab) = pair();
        let p = Parallelogram::from_pair(&cd, &ab);
        assert!(!p.contains(FeaturePoint::new(0.0, 0.0), 1e-9));
        assert!(!p.contains(FeaturePoint::new(100.0, 0.0), 1e-9));
        assert!(!p.contains(FeaturePoint::new(27.0, 6.0), 1e-9));
    }

    #[test]
    fn degenerate_equal_slopes() {
        // Parallel segments: the parallelogram collapses to a segment.
        let cd = Segment::new(0.0, 0.0, 10.0, 1.0);
        let ab = Segment::new(20.0, 5.0, 30.0, 6.0);
        let p = Parallelogram::from_pair(&cd, &ab);
        // Midpoint of the bc -> ad diagonal is inside.
        let mid = FeaturePoint::new((p.bc.dt + p.ad.dt) / 2.0, (p.bc.dv + p.ad.dv) / 2.0);
        assert!(p.contains(mid, 1e-9));
        assert!(!p.contains(FeaturePoint::new(mid.dt, mid.dv + 1.0), 1e-3));
    }

    #[test]
    fn adjacent_segments_share_endpoint() {
        let cd = Segment::new(0.0, 0.0, 10.0, 2.0);
        let ab = Segment::new(10.0, 2.0, 30.0, -1.0);
        let p = Parallelogram::from_pair(&cd, &ab);
        assert_eq!(p.bc, FeaturePoint::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "later segment")]
    fn rejects_overlapping_pair() {
        let cd = Segment::new(0.0, 0.0, 10.0, 2.0);
        let ab = Segment::new(5.0, 1.0, 30.0, -1.0);
        Parallelogram::from_pair(&cd, &ab);
    }
}
