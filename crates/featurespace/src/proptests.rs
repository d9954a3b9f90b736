//! Property tests for the feature-space geometry.
//!
//! The central claims (Lemma 3 and the case analysis of §4.3.1) are checked
//! empirically here:
//!
//! 1. the four corners really form a parallelogram;
//! 2. every cross-pair feature point lies inside it;
//! 3. **exactness at ε = 0**: the extracted 1–3 corner boundary intersects a
//!    query region iff the full parallelogram does — no false negatives
//!    against sampled events, and every reported intersection has a witness
//!    point inside both the parallelogram and the region;
//! 4. growing ε never loses results (monotonicity of the shift + prune).

use crate::intersect::{edge_crosses_region, point_in_region};
use crate::{extract_boundary, FeaturePoint, Parallelogram, QueryRegion};
use proptest::prelude::*;
use segmentation::Segment;

/// A random non-overlapping segment pair (earlier cd, later ab).
fn arb_pair() -> impl Strategy<Value = (Segment, Segment)> {
    (
        -50.0f64..50.0, // v_d
        -50.0f64..50.0, // v_c
        -50.0f64..50.0, // v_b
        -50.0f64..50.0, // v_a
        0.1f64..100.0,  // cd duration
        0.0f64..50.0,   // gap
        0.1f64..100.0,  // ab duration
    )
        .prop_map(|(vd, vc, vb, va, d1, gap, d2)| {
            let cd = Segment::new(0.0, vd, d1, vc);
            let ab = Segment::new(d1 + gap, vb, d1 + gap + d2, va);
            (cd, ab)
        })
}

fn arb_region() -> impl Strategy<Value = QueryRegion> {
    (0.1f64..250.0, 0.01f64..60.0, any::<bool>()).prop_map(|(t, mag, is_drop)| {
        if is_drop {
            QueryRegion::drop(t, -mag)
        } else {
            QueryRegion::jump(t, mag)
        }
    })
}

/// Feature points of a grid of cross pairs (point on cd, point on ab).
fn grid_features(cd: &Segment, ab: &Segment, steps: usize) -> Vec<FeaturePoint> {
    let mut out = Vec::with_capacity((steps + 1) * (steps + 1));
    for i in 0..=steps {
        let tc = cd.t_start + cd.duration() * i as f64 / steps as f64;
        for j in 0..=steps {
            let tb = ab.t_start + ab.duration() * j as f64 / steps as f64;
            out.push(FeaturePoint::of_pair(
                tc,
                cd.value_at(tc),
                tb,
                ab.value_at(tb),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corners_form_parallelogram((cd, ab) in arb_pair()) {
        let p = Parallelogram::from_pair(&cd, &ab);
        let e1 = p.bd - p.bc;
        let e2 = p.ad - p.ac;
        prop_assert!((e1.dt - e2.dt).abs() < 1e-9);
        prop_assert!((e1.dv - e2.dv).abs() < 1e-9);
    }

    #[test]
    fn lemma3_cross_pairs_inside((cd, ab) in arb_pair()) {
        let p = Parallelogram::from_pair(&cd, &ab);
        for q in grid_features(&cd, &ab, 7) {
            prop_assert!(p.contains(q, 1e-6), "{q:?} escaped {p:?}");
        }
    }

    /// No false negatives at eps = 0: if any sampled cross-pair event falls
    /// in the region, the stored boundary must report an intersection.
    #[test]
    fn boundary_complete_at_eps0((cd, ab) in arb_pair(), region in arb_region()) {
        let features = grid_features(&cd, &ab, 7);
        let hit = features.iter().any(|&q| region.contains(q));
        if hit {
            let b = extract_boundary(&cd, &ab, 0.0, region.kind);
            prop_assert!(b.is_some(), "pruned a pair with an in-region event");
            prop_assert!(b.unwrap().intersects(&region));
        }
    }

    /// Soundness at eps = 0: a reported intersection has a witness feature
    /// point inside both the parallelogram and the (closed) region.
    #[test]
    fn boundary_sound_at_eps0((cd, ab) in arb_pair(), region in arb_region()) {
        let Some(b) = extract_boundary(&cd, &ab, 0.0, region.kind) else { return Ok(()); };
        if !b.intersects(&region) {
            return Ok(());
        }
        let para = Parallelogram::from_pair(&cd, &ab);
        // Find the witness: an in-region corner, or an edge crossing point.
        let mut witness = b
            .corners()
            .iter()
            .copied()
            .find(|&p| point_in_region(p, &region));
        if witness.is_none() {
            for w in b.corners().windows(2) {
                if edge_crosses_region(w[0], w[1], &region) {
                    let (p1, p2) = (w[0], w[1]);
                    let dv_at_t = p1.dv + (p2.dv - p1.dv) / (p2.dt - p1.dt) * (region.t - p1.dt);
                    witness = Some(FeaturePoint::new(region.t, dv_at_t));
                    break;
                }
            }
        }
        let w = witness.expect("intersects implies a witness");
        prop_assert!(para.contains(w, 1e-6), "witness {w:?} outside parallelogram");
        // The witness satisfies the storage-level region conditions.
        prop_assert!(point_in_region(w, &region));
    }

    /// Growing eps never loses a result (the shift + prune are monotone).
    #[test]
    fn epsilon_monotone((cd, ab) in arb_pair(), region in arb_region(), eps in 0.0f64..5.0) {
        let b0 = extract_boundary(&cd, &ab, 0.0, region.kind);
        let b1 = extract_boundary(&cd, &ab, eps, region.kind);
        if let Some(b0) = b0 {
            if b0.intersects(&region) {
                prop_assert!(b1.is_some(), "eps = {eps} pruned a matching pair");
                prop_assert!(b1.unwrap().intersects(&region));
            }
        }
    }

    /// The reduced 1-3 corner boundary and the exact four-corner geometric
    /// test agree on every pair and region: the corner reduction of §4.3.1
    /// loses nothing and admits nothing extra.
    #[test]
    fn reduced_equals_full_corners(
        (cd, ab) in arb_pair(),
        region in arb_region(),
        eps in 0.0f64..2.0,
    ) {
        let full = crate::extract_full_corners(&cd, &ab, eps, region.kind)
            .map(|c| crate::full_corners_intersect(&c, &region))
            .unwrap_or(false);
        let reduced = extract_boundary(&cd, &ab, eps, region.kind)
            .map(|b| b.intersects(&region))
            .unwrap_or(false);
        prop_assert_eq!(full, reduced);
    }

    /// The self-pair boundary is exact for within-segment events.
    #[test]
    fn self_boundary_exact(
        v0 in -50.0f64..50.0,
        dv in -50.0f64..50.0,
        dur in 0.1f64..100.0,
        region in arb_region(),
    ) {
        let seg = Segment::new(0.0, v0, dur, v0 + dv);
        let b = crate::extract_self_boundary(&seg, 0.0, region.kind);
        // Sample within-segment events.
        let mut hit = false;
        for i in 0..=10 {
            for j in (i + 1)..=10 {
                let t1 = dur * i as f64 / 10.0;
                let t2 = dur * j as f64 / 10.0;
                let q = FeaturePoint::of_pair(t1, seg.value_at(t1), t2, seg.value_at(t2));
                hit |= region.contains(q);
            }
        }
        if hit {
            prop_assert!(b.is_some());
            prop_assert!(b.unwrap().intersects(&region));
        }
    }
}
