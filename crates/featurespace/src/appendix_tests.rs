//! Case-by-case verification of the Appendix: for each of the six slope
//! cases we build a concrete segment pair, confirm the classification, and
//! check that the extracted drop/jump boundaries use exactly the corners
//! the paper lists in Table 2 (including the sub-cases that degrade to
//! fewer corners).

use crate::cases::SlopeCase;
use crate::{extract_boundary, Parallelogram, QueryRegion, SearchKind};
use segmentation::Segment;

fn classify(cd: &Segment, ab: &Segment) -> SlopeCase {
    SlopeCase::classify(cd.slope(), ab.slope())
}

/// Case 1: k_CD >= 0, k_AB <= 0.
fn case1() -> (Segment, Segment) {
    (
        Segment::new(0.0, 0.0, 10.0, 2.0),   // rising
        Segment::new(15.0, 1.0, 25.0, -2.0), // falling
    )
}

/// Case 2: k_CD >= 0, k_AB >= k_CD.
fn case2() -> (Segment, Segment) {
    (
        Segment::new(0.0, 0.0, 10.0, 1.0),  // slope 0.1
        Segment::new(15.0, 0.0, 25.0, 5.0), // slope 0.5
    )
}

/// Case 3: k_CD >= 0, 0 < k_AB < k_CD.
fn case3() -> (Segment, Segment) {
    (
        Segment::new(0.0, 0.0, 10.0, 5.0),  // slope 0.5
        Segment::new(15.0, 0.0, 25.0, 1.0), // slope 0.1
    )
}

/// Case 4: k_CD < 0, k_AB >= 0.
fn case4() -> (Segment, Segment) {
    (
        Segment::new(0.0, 3.0, 10.0, 0.0),  // falling
        Segment::new(15.0, 1.0, 25.0, 4.0), // rising
    )
}

/// Case 5: k_CD < 0, k_AB <= k_CD.
fn case5() -> (Segment, Segment) {
    (
        Segment::new(0.0, 3.0, 10.0, 2.0),   // slope -0.1
        Segment::new(15.0, 2.0, 25.0, -3.0), // slope -0.5
    )
}

/// Case 6: k_CD < 0, k_CD < k_AB < 0.
fn case6() -> (Segment, Segment) {
    (
        Segment::new(0.0, 5.0, 10.0, 0.0),  // slope -0.5
        Segment::new(15.0, 2.0, 25.0, 1.0), // slope -0.1
    )
}

#[test]
fn classifications_are_correct() {
    assert_eq!(classify(&case1().0, &case1().1), SlopeCase::C1);
    assert_eq!(classify(&case2().0, &case2().1), SlopeCase::C2);
    assert_eq!(classify(&case3().0, &case3().1), SlopeCase::C3);
    assert_eq!(classify(&case4().0, &case4().1), SlopeCase::C4);
    assert_eq!(classify(&case5().0, &case5().1), SlopeCase::C5);
    assert_eq!(classify(&case6().0, &case6().1), SlopeCase::C6);
}

#[test]
fn case1_corners_per_table2() {
    let (cd, ab) = case1();
    let p = Parallelogram::from_pair(&cd, &ab);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc, p.ac], "drop: BC, AC");
    let jump = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
    assert_eq!(jump.corners(), &[p.bc, p.bd], "jump: BC, BD");
}

#[test]
fn case2_corners_per_table2() {
    let (cd, ab) = case2();
    let p = Parallelogram::from_pair(&cd, &ab);
    // Drop: single corner BC (pruned unless BC can dip to zero; here
    // bc.dv = 0 - 1 = -1 <= 0, so stored).
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc], "drop: BC");
    // Jump I: AC denotes a jump (ac.dv = 5 - 1 = 4 >= 0): BC, AC, AD.
    assert!(p.ac.dv >= 0.0);
    let jump = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
    assert_eq!(jump.corners(), &[p.bc, p.ac, p.ad], "jump I: BC, AC, AD");
}

#[test]
fn case2_jump_ii_degrades() {
    // Push AB far below CD so AC is a (strict) drop but AD still a jump.
    let cd = Segment::new(0.0, 0.0, 10.0, 1.0);
    let ab = Segment::new(15.0, -8.0, 25.0, 0.5); // slope 0.85 >= 0.1: case 2
    let p = Parallelogram::from_pair(&cd, &ab);
    assert!(p.ac.dv < 0.0 && p.ad.dv > 0.0);
    let jump = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
    assert_eq!(jump.corners(), &[p.ac, p.ad], "jump II: AC, AD");
}

#[test]
fn case3_corners_per_table2() {
    let (cd, ab) = case3();
    let p = Parallelogram::from_pair(&cd, &ab);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc], "drop: BC");
    // Jump I with BD in place of AC (bd.dv = 0 - 0 = 0 >= 0).
    let jump = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
    assert_eq!(jump.corners(), &[p.bc, p.bd, p.ad], "jump I: BC, BD, AD");
}

#[test]
fn case4_corners_per_table2() {
    let (cd, ab) = case4();
    let p = Parallelogram::from_pair(&cd, &ab);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc, p.bd], "drop: BC, BD");
    let jump = extract_boundary(&cd, &ab, 0.0, SearchKind::Jump).unwrap();
    assert_eq!(jump.corners(), &[p.bc, p.ac], "jump: BC, AC");
}

#[test]
fn case5_corners_per_table2() {
    let (cd, ab) = case5();
    let p = Parallelogram::from_pair(&cd, &ab);
    // Drop I: ac.dv = -3 - 2 = -5 <= 0: BC, AC, AD.
    assert!(p.ac.dv <= 0.0);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc, p.ac, p.ad], "drop I: BC, AC, AD");
    // Jump: single corner BC (bc.dv = 2 - 2 = 0; prune needs + eps > 0, so
    // at eps = 0 it is pruned — check with a small eps instead).
    let jump = extract_boundary(&cd, &ab, 0.1, SearchKind::Jump).unwrap();
    assert_eq!(jump.len(), 1, "jump: BC only");
    assert_eq!(jump.corners()[0].dt, p.bc.dt);
}

#[test]
fn case5_drop_ii_degrades() {
    // Lift AB so AC becomes a jump while AD stays a drop.
    let cd = Segment::new(0.0, 3.0, 10.0, 2.0); // slope -0.1
    let ab = Segment::new(15.0, 9.0, 25.0, 2.5); // slope -0.65 <= -0.1: case 5
    let p = Parallelogram::from_pair(&cd, &ab);
    assert!(p.ac.dv > 0.0 && p.ad.dv < 0.0);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.ac, p.ad], "drop II: AC, AD");
}

#[test]
fn case6_corners_per_table2() {
    let (cd, ab) = case6();
    let p = Parallelogram::from_pair(&cd, &ab);
    // Drop I with BD in place of AC: bd.dv = 2 - 5 = -3 <= 0.
    assert!(p.bd.dv <= 0.0);
    let drop = extract_boundary(&cd, &ab, 0.0, SearchKind::Drop).unwrap();
    assert_eq!(drop.corners(), &[p.bc, p.bd, p.ad], "drop I: BC, BD, AD");
    let jump = extract_boundary(&cd, &ab, 0.1, SearchKind::Jump).unwrap();
    assert_eq!(jump.len(), 1, "jump: BC only");
}

#[test]
fn boundaries_face_the_right_way() {
    // For every case the drop boundary must be the *lower-left frontier*:
    // no sampled point of the parallelogram may lie strictly below-left of
    // every boundary corner's reach. We verify operationally: any region
    // that contains a sampled parallelogram point must intersect the
    // boundary (this is the per-case version of the global proptest).
    let pairs = [case1(), case2(), case3(), case4(), case5(), case6()];
    for (cd, ab) in &pairs {
        for kind in [SearchKind::Drop, SearchKind::Jump] {
            for i in 0..=6 {
                for j in 0..=6 {
                    let tc = cd.t_start + cd.duration() * i as f64 / 6.0;
                    let tb = ab.t_start + ab.duration() * j as f64 / 6.0;
                    let dt = tb - tc;
                    let dv = ab.value_at(tb) - cd.value_at(tc);
                    if dt <= 0.0 {
                        continue;
                    }
                    // Nudge the thresholds so the sampled point — which
                    // lies exactly on the parallelogram boundary — sits
                    // strictly inside the region despite float rounding.
                    let region = match kind {
                        SearchKind::Drop if dv < -1e-6 => QueryRegion::drop(dt + 1e-9, dv + 1e-9),
                        SearchKind::Jump if dv > 1e-6 => QueryRegion::jump(dt + 1e-9, dv - 1e-9),
                        _ => continue,
                    };
                    let b = extract_boundary(cd, ab, 0.0, kind).unwrap_or_else(|| {
                        panic!("pruned a matching pair in {:?}", classify(cd, ab))
                    });
                    assert!(
                        b.intersects(&region),
                        "case {:?} {kind:?}: boundary missed sampled point ({dt}, {dv})",
                        classify(cd, ab)
                    );
                }
            }
        }
    }
}
