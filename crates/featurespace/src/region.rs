//! Query regions: the image of a user's search in feature space.

use crate::FeaturePoint;

/// Whether the user searches for drops or jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchKind {
    /// `Δv <= V < 0` within `0 < Δt <= T`.
    Drop,
    /// `Δv >= V > 0` within `0 < Δt <= T`.
    Jump,
}

impl SearchKind {
    /// Stable display name (`drop` / `jump`).
    pub fn name(&self) -> &'static str {
        match self {
            SearchKind::Drop => "drop",
            SearchKind::Jump => "jump",
        }
    }

    /// The kind a wire word names: the inverse of [`SearchKind::name`].
    pub fn parse(word: &str) -> Result<SearchKind, String> {
        [SearchKind::Drop, SearchKind::Jump]
            .into_iter()
            .find(|kind| kind.name() == word)
            .ok_or_else(|| format!("kind must be \"drop\" or \"jump\", got {word:?}"))
    }
}

/// A query region (paper §3): all feature points satisfying the user's
/// thresholds `T` (time span) and `V` (change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRegion {
    /// Drop or jump search.
    pub kind: SearchKind,
    /// Time-span threshold `T > 0`.
    pub t: f64,
    /// Change threshold `V` (`< 0` for drops, `> 0` for jumps).
    pub v: f64,
}

impl QueryRegion {
    /// A `kind` search for changes of at least `|v|` within `t` seconds,
    /// if it is one: `t` positive and finite, `v` finite with the kind's
    /// sign (negative for drops, positive for jumps). The one check of
    /// what a valid search is; every front end builds its region here.
    pub fn new(kind: SearchKind, t: f64, v: f64) -> Result<Self, String> {
        if !(t > 0.0 && t.is_finite()) {
            return Err(format!(
                "T must be positive and finite in seconds, got {t:?}"
            ));
        }
        let (signed, sign) = match kind {
            SearchKind::Drop => (v < 0.0, "negative"),
            SearchKind::Jump => (v > 0.0, "positive"),
        };
        if !(signed && v.is_finite()) {
            let kind = kind.name();
            return Err(format!("V must be {sign} for {kind} search, got {v:?}"));
        }
        Ok(Self { kind, t, v })
    }

    /// A drop-search region: events with `Δv <= v` within `Δt <= t`.
    ///
    /// # Panics
    ///
    /// Panics unless `t > 0` and `v < 0`.
    pub fn drop(t: f64, v: f64) -> Self {
        Self::new(SearchKind::Drop, t, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A jump-search region: events with `Δv >= v` within `Δt <= t`.
    ///
    /// # Panics
    ///
    /// Panics unless `t > 0` and `v > 0`.
    pub fn jump(t: f64, v: f64) -> Self {
        Self::new(SearchKind::Jump, t, v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether a feature point satisfies the search conditions, including
    /// the `Δt > 0` constraint of the problem statement.
    pub fn contains(&self, p: FeaturePoint) -> bool {
        if !(p.dt > 0.0 && p.dt <= self.t) {
            return false;
        }
        match self.kind {
            SearchKind::Drop => p.dv <= self.v,
            SearchKind::Jump => p.dv >= self.v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_region_membership() {
        let r = QueryRegion::drop(3600.0, -3.0);
        assert!(r.contains(FeaturePoint::new(1800.0, -4.0)));
        assert!(r.contains(FeaturePoint::new(3600.0, -3.0)));
        assert!(!r.contains(FeaturePoint::new(3601.0, -4.0))); // too slow
        assert!(!r.contains(FeaturePoint::new(1800.0, -2.9))); // too shallow
        assert!(!r.contains(FeaturePoint::new(0.0, -4.0))); // dt must be > 0
    }

    #[test]
    fn jump_region_membership() {
        let r = QueryRegion::jump(3600.0, 3.0);
        assert!(r.contains(FeaturePoint::new(60.0, 3.5)));
        assert!(!r.contains(FeaturePoint::new(60.0, 2.5)));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn drop_rejects_positive_v() {
        QueryRegion::drop(10.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn jump_rejects_negative_v() {
        QueryRegion::jump(10.0, -3.0);
    }
}
