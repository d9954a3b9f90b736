//! The six slope cases of Table 2, as the paper tabulates them: the
//! reference [`crate::pick_corners`]'s own split of the slopes is tested
//! against.

/// Classification of a segment pair by the slopes `k_CD` (earlier segment)
/// and `k_AB` (later segment). The case determines which parallelogram
/// corners form the lower-left (drop) and upper-left (jump) boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SlopeCase {
    /// `k_CD >= 0`, `k_AB <= 0`.
    C1,
    /// `k_CD >= 0`, `k_AB >= k_CD` (both non-negative).
    C2,
    /// `k_CD >= 0`, `0 < k_AB < k_CD`.
    C3,
    /// `k_CD < 0`, `k_AB >= 0`.
    C4,
    /// `k_CD < 0`, `k_AB <= k_CD` (both negative).
    C5,
    /// `k_CD < 0`, `k_CD < k_AB < 0`.
    C6,
}

impl SlopeCase {
    /// Classifies by the two slopes. Ties on the boundaries between cases
    /// are broken deterministically (the case regions overlap only where
    /// the resulting boundaries coincide, so the choice does not affect
    /// correctness).
    pub fn classify(k_cd: f64, k_ab: f64) -> SlopeCase {
        if k_cd >= 0.0 {
            if k_ab <= 0.0 {
                SlopeCase::C1
            } else if k_ab >= k_cd {
                SlopeCase::C2
            } else {
                SlopeCase::C3
            }
        } else if k_ab >= 0.0 {
            SlopeCase::C4
        } else if k_ab <= k_cd {
            SlopeCase::C5
        } else {
            SlopeCase::C6
        }
    }

    /// Number of corner points stored for drop search in this case
    /// (Table 2; the three-corner drop cases are 5/6, two-corner 1/4,
    /// one-corner 2/3). Case 5/6 may degrade to two corners at extraction
    /// time; this returns the maximum.
    pub fn drop_corner_count(&self) -> usize {
        match self {
            SlopeCase::C2 | SlopeCase::C3 => 1,
            SlopeCase::C1 | SlopeCase::C4 => 2,
            SlopeCase::C5 | SlopeCase::C6 => 3,
        }
    }

    /// Number of corner points stored for jump search (maximum).
    pub fn jump_corner_count(&self) -> usize {
        match self {
            SlopeCase::C5 | SlopeCase::C6 => 1,
            SlopeCase::C1 | SlopeCase::C4 => 2,
            SlopeCase::C2 | SlopeCase::C3 => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_table_2() {
        assert_eq!(SlopeCase::classify(1.0, -1.0), SlopeCase::C1);
        assert_eq!(SlopeCase::classify(1.0, 0.0), SlopeCase::C1);
        assert_eq!(SlopeCase::classify(1.0, 2.0), SlopeCase::C2);
        assert_eq!(SlopeCase::classify(1.0, 1.0), SlopeCase::C2);
        assert_eq!(SlopeCase::classify(1.0, 0.5), SlopeCase::C3);
        assert_eq!(SlopeCase::classify(-1.0, 0.5), SlopeCase::C4);
        assert_eq!(SlopeCase::classify(-1.0, 0.0), SlopeCase::C4);
        assert_eq!(SlopeCase::classify(-1.0, -2.0), SlopeCase::C5);
        assert_eq!(SlopeCase::classify(-1.0, -1.0), SlopeCase::C5);
        assert_eq!(SlopeCase::classify(-1.0, -0.5), SlopeCase::C6);
    }

    #[test]
    fn classification_is_total() {
        // Any (finite) pair of slopes maps to some case.
        for &k1 in &[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0] {
            for &k2 in &[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0] {
                let _ = SlopeCase::classify(k1, k2);
            }
        }
    }

    #[test]
    fn corner_counts_match_paper() {
        // Drop: case 2 needs one corner, case 1 two, case 5 up to three.
        assert_eq!(SlopeCase::C2.drop_corner_count(), 1);
        assert_eq!(SlopeCase::C1.drop_corner_count(), 2);
        assert_eq!(SlopeCase::C5.drop_corner_count(), 3);
        // Jump is the mirror image.
        assert_eq!(SlopeCase::C5.jump_corner_count(), 1);
        assert_eq!(SlopeCase::C4.jump_corner_count(), 2);
        assert_eq!(SlopeCase::C2.jump_corner_count(), 3);
    }
}
