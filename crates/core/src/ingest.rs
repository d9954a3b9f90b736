//! Online feature extraction — Algorithm 1 of the paper.

use featurespace::{extract_boundary, extract_self_boundary, Boundary, SearchKind};
use segmentation::Segment;
use std::collections::VecDeque;

/// One extracted feature row, ready for storage: the ε-shifted boundary
/// corners plus the four absolute time stamps identifying the segment pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureRow {
    /// Drop or jump feature.
    pub kind: SearchKind,
    /// The 1–3 corner boundary (already ε-shifted).
    pub boundary: Boundary,
    /// Start of the earlier segment (truncated to the window if needed).
    pub t_d: f64,
    /// End of the earlier segment.
    pub t_c: f64,
    /// Start of the later segment.
    pub t_b: f64,
    /// End of the later segment.
    pub t_a: f64,
}

impl FeatureRow {
    /// The boundary corner `Δv` of largest magnitude: roughly how big the
    /// drop or jump was.
    pub(crate) fn peak_dv(&self) -> f64 {
        let dvs = self.boundary.corners().iter().map(|c| c.dv);
        dvs.fold(0.0, |a, dv| if dv.abs() > a.abs() { dv } else { a })
    }
}

/// The online feature extractor (Algorithm 1).
///
/// Fed one data segment at a time (in temporal order, segments contiguous),
/// it pairs the new segment `AB` with every earlier segment `CD` whose
/// extent intersects the window `[t_B - w, t_A]` — truncating `CD` at the
/// window start when it protrudes — plus the degenerate *self pair* that
/// summarizes events inside `AB` itself. For every pair and both search
/// kinds, the case analysis of §4.3.1 yields at most one boundary row.
///
/// Both the segmentation process and this extractor are online: features
/// can be extracted as data is collected, so new data is searchable with
/// no delay (paper §4.3.2).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    epsilon: f64,
    window: f64,
    prev: VecDeque<Segment>,
    pairs_emitted: u64,
}

impl FeatureExtractor {
    /// Creates an extractor with tolerance `epsilon` and window `w` seconds.
    pub fn new(epsilon: f64, window: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be >= 0"
        );
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive"
        );
        Self {
            epsilon,
            window,
            prev: VecDeque::new(),
            pairs_emitted: 0,
        }
    }

    /// Number of segment pairs considered so far (including self pairs).
    pub fn pairs_emitted(&self) -> u64 {
        self.pairs_emitted
    }

    /// Number of earlier segments currently retained in the window.
    pub fn window_len(&self) -> usize {
        self.prev.len()
    }

    /// Re-installs an already-processed segment into the window *without*
    /// emitting feature rows. Used when resuming an index from disk: the
    /// stored segments whose extent can still pair with future segments are
    /// primed back in, so ingestion continues exactly where it left off.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of temporal order.
    pub fn prime_segment(&mut self, seg: Segment) {
        if let Some(last) = self.prev.back() {
            assert!(
                seg.t_start >= last.t_end,
                "segments must arrive in temporal order"
            );
        }
        self.prev.push_back(seg);
    }

    /// Processes the next data segment, appending feature rows to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `ab` does not start at or after the end of the previous
    /// segment (the segmentation process emits contiguous segments).
    pub fn push_segment(&mut self, ab: Segment, out: &mut Vec<FeatureRow>) {
        if let Some(last) = self.prev.back() {
            assert!(
                ab.t_start >= last.t_end,
                "segments must arrive in temporal order"
            );
        }
        let win_start = ab.t_start - self.window;
        // Evict segments that no longer intersect the window.
        while let Some(front) = self.prev.front() {
            if front.t_end <= win_start {
                self.prev.pop_front();
            } else {
                break;
            }
        }
        // Cross pairs with every retained segment, then the self pair:
        // events inside `ab` itself.
        for cd in &self.prev {
            self.pairs_emitted +=
                u64::from(pair_rows(Some(cd), &ab, self.epsilon, self.window, out));
        }
        self.pairs_emitted += u64::from(pair_rows(None, &ab, self.epsilon, self.window, out));
        self.prev.push_back(ab);
    }
}

/// Appends the rows Algorithm 1 stores for the segment pair (`cd`, `ab`)
/// — `cd` truncated at the window start ([`in_window`]), `None` for the
/// self pair of `ab` — one per search kind whose boundary is not pruned,
/// drop first. Returns `false`, appending nothing, when the window leaves
/// nothing of `cd`.
pub(crate) fn pair_rows(
    cd: Option<&Segment>,
    ab: &Segment,
    epsilon: f64,
    window: f64,
    out: &mut Vec<FeatureRow>,
) -> bool {
    let cd = match cd.map(|cd| in_window(cd, ab, window)) {
        Some(Some(cd)) => Some(cd),
        Some(None) => return false, // zero overlap after truncation
        None => None,
    };
    for kind in [SearchKind::Drop, SearchKind::Jump] {
        out.extend(pair_row(cd.as_ref(), ab, epsilon, kind));
    }
    true
}

/// The earlier segment `cd` as Algorithm 1 pairs it with `ab`: truncated
/// at the window start `ab.t_start − window`, `None` when nothing of it is
/// left.
pub(crate) fn in_window(cd: &Segment, ab: &Segment, window: f64) -> Option<Segment> {
    cd.truncate_left(ab.t_start - window)
}

/// The `kind` half of [`pair_rows`]: the row stored for (`cd`, `ab`), `cd`
/// already [`in_window`] (`None` for the self pair of `ab`), or `None`
/// when its boundary is pruned.
///
/// The one place a row's corners are computed: ingest stores what it
/// returns, built from `featurespace`'s corner pick
/// ([`featurespace::pick_corners`]), and a search picks its corners with
/// the same function from the stored segments and tests them in place,
/// so the two cannot drift.
pub(crate) fn pair_row(
    cd: Option<&Segment>,
    ab: &Segment,
    epsilon: f64,
    kind: SearchKind,
) -> Option<FeatureRow> {
    let (t_d, t_c) = cd.map_or((ab.t_start, ab.t_end), |cd| (cd.t_start, cd.t_end));
    let boundary = match cd {
        Some(cd) => extract_boundary(cd, ab, epsilon, kind),
        None => extract_self_boundary(ab, epsilon, kind),
    }?;
    Some(FeatureRow {
        kind,
        boundary,
        t_d,
        t_c,
        t_b: ab.t_start,
        t_a: ab.t_end,
    })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
        // Contiguous random segments (shared endpoints).
        (2usize..40, any::<u64>()).prop_map(|(n, seed)| {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = 0.0;
            let mut v = 0.0;
            let mut segs = Vec::with_capacity(n);
            for _ in 0..n {
                let t2 = t + 1.0 + rng.random::<f64>() * 5000.0;
                let v2 = v + (rng.random::<f64>() - 0.5) * 10.0;
                segs.push(Segment::new(t, v, t2, v2));
                t = t2;
                v = v2;
            }
            segs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Window invariants: every retained segment intersects the current
        /// window; every emitted row's pair lies inside it; corner dt never
        /// exceeds w plus the two segment lengths.
        #[test]
        fn window_invariants(segs in arb_segments(), w in 100.0f64..20_000.0, eps in 0.0f64..1.0) {
            let mut ex = FeatureExtractor::new(eps, w);
            let mut rows = Vec::new();
            for &s in &segs {
                rows.clear();
                ex.push_segment(s, &mut rows);
                let win_start = s.t_start - w;
                for r in &rows {
                    prop_assert!(r.t_d >= win_start - 1e-9, "pair start before window");
                    prop_assert!(r.t_a <= s.t_end + 1e-9);
                    prop_assert!(r.t_d <= r.t_c && r.t_c <= r.t_b || (r.t_d, r.t_c) == (r.t_b, r.t_a));
                    for p in r.boundary.corners() {
                        prop_assert!(p.dt >= 0.0);
                        prop_assert!(p.dt <= w + s.duration() + 1e-6, "dt {} beyond window", p.dt);
                    }
                }
            }
            // Retention: all buffered segments still intersect the last window.
            let last = segs.last().unwrap();
            prop_assert!(ex.window_len() >= 1);
            prop_assert!(ex.pairs_emitted() >= segs.len() as u64, "self pairs counted");
            let _ = last;
        }

        /// The order the standing-query dedup rests on: over a whole
        /// stream, the rows of each kind come out in strictly increasing
        /// `(t_b, t_d)`.
        #[test]
        fn rows_of_a_kind_strictly_increase_in_tb_td(segs in arb_segments(), w in 100.0f64..20_000.0, eps in 0.0f64..1.0) {
            let mut ex = FeatureExtractor::new(eps, w);
            let mut rows = Vec::new();
            for &s in &segs {
                ex.push_segment(s, &mut rows);
            }
            for kind in [SearchKind::Drop, SearchKind::Jump] {
                let at: Vec<(f64, f64)> = rows.iter().filter(|r| r.kind == kind).map(|r| (r.t_b, r.t_d)).collect();
                for pair in at.windows(2) {
                    prop_assert!(pair[0] < pair[1], "{kind:?} rows out of order: {:?} then {:?}", pair[0], pair[1]);
                }
            }
        }

        /// Rows are deterministic: extracting twice gives identical rows.
        #[test]
        fn extraction_is_deterministic(segs in arb_segments(), w in 100.0f64..20_000.0) {
            let run = || {
                let mut ex = FeatureExtractor::new(0.3, w);
                let mut all = Vec::new();
                for &s in &segs {
                    ex.push_segment(s, &mut all);
                }
                all
            };
            prop_assert_eq!(run(), run());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use featurespace::QueryRegion;

    fn extract_all(segments: &[Segment], eps: f64, w: f64) -> Vec<FeatureRow> {
        let mut ex = FeatureExtractor::new(eps, w);
        let mut out = Vec::new();
        for &s in segments {
            ex.push_segment(s, &mut out);
        }
        out
    }

    #[test]
    fn pairs_all_segments_within_window() {
        // Three 10-second contiguous segments, window easily spans all.
        let segs = [
            Segment::new(0.0, 0.0, 10.0, 5.0),
            Segment::new(10.0, 5.0, 20.0, 2.0),
            Segment::new(20.0, 2.0, 30.0, 4.0),
        ];
        let mut ex = FeatureExtractor::new(0.0, 100.0);
        let mut out = Vec::new();
        for &s in &segs {
            ex.push_segment(s, &mut out);
        }
        // Pairs: (s0 self), (s0,s1), (s1 self), (s0,s2), (s1,s2), (s2 self).
        assert_eq!(ex.pairs_emitted(), 6);
        assert_eq!(ex.window_len(), 3);
    }

    #[test]
    fn window_eviction_and_truncation() {
        let segs = [
            Segment::new(0.0, 0.0, 10.0, 1.0),
            Segment::new(10.0, 1.0, 20.0, 0.0),
            Segment::new(20.0, 0.0, 100.0, 3.0),
        ];
        // Window of 15 s: when the third segment (t_b = 20) arrives,
        // win_start = 5; the first segment (ends at 10) is retained but
        // truncated, the second fully retained.
        let rows = extract_all(&segs, 0.0, 15.0);
        let truncated: Vec<&FeatureRow> = rows
            .iter()
            .filter(|r| r.t_b == 20.0 && r.t_c == 10.0)
            .collect();
        assert!(!truncated.is_empty(), "pair with first segment exists");
        for r in truncated {
            assert_eq!(r.t_d, 5.0, "first segment truncated at win start");
        }
        // Now a fourth segment far in the future evicts everything.
        let mut ex = FeatureExtractor::new(0.0, 15.0);
        let mut out = Vec::new();
        for &s in &segs {
            ex.push_segment(s, &mut out);
        }
        ex.push_segment(Segment::new(1000.0, 0.0, 1010.0, 1.0), &mut out);
        assert_eq!(ex.window_len(), 1, "only the new segment remains");
    }

    #[test]
    fn self_rows_mark_same_segment() {
        let segs = [Segment::new(0.0, 10.0, 3600.0, 5.0)];
        let rows = extract_all(&segs, 0.0, 7200.0);
        // A falling segment yields a drop self row (and no jump row at eps 0).
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.kind, SearchKind::Drop);
        assert_eq!((r.t_d, r.t_c), (r.t_b, r.t_a));
        assert!(r.boundary.intersects(&QueryRegion::drop(3600.0, -3.0)));
    }

    #[test]
    fn epsilon_zero_prunes_aggressively() {
        // Monotone rise: the only drop rows that survive at eps = 0 are the
        // degenerate adjacent-pair corners at (0, 0) — the paper's prune is
        // `Δv - ε <= 0` — and none of them can match any real drop region.
        let segs = [
            Segment::new(0.0, 0.0, 10.0, 1.0),
            Segment::new(10.0, 1.0, 20.0, 3.0),
            Segment::new(20.0, 3.0, 30.0, 7.0),
        ];
        let rows = extract_all(&segs, 0.0, 100.0);
        assert!(rows.iter().any(|r| r.kind == SearchKind::Jump));
        let region = QueryRegion::drop(100.0, -0.5);
        for r in rows.iter().filter(|r| r.kind == SearchKind::Drop) {
            assert!(
                !r.boundary.intersects(&region),
                "a monotone rise produced a matchable drop row: {r:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "temporal order")]
    fn rejects_out_of_order_segments() {
        let mut ex = FeatureExtractor::new(0.0, 100.0);
        let mut out = Vec::new();
        ex.push_segment(Segment::new(10.0, 0.0, 20.0, 1.0), &mut out);
        ex.push_segment(Segment::new(5.0, 0.0, 9.0, 1.0), &mut out);
    }

    #[test]
    fn rows_carry_shifted_corners() {
        let segs = [
            Segment::new(0.0, 5.0, 10.0, 6.0),
            Segment::new(10.0, 6.0, 20.0, 2.0),
        ];
        let eps = 0.5;
        let rows = extract_all(&segs, eps, 100.0);
        let with_eps: Vec<_> = rows.iter().filter(|r| r.kind == SearchKind::Drop).collect();
        let plain = extract_all(&segs, 0.0, 100.0);
        let without: Vec<_> = plain
            .iter()
            .filter(|r| r.kind == SearchKind::Drop)
            .collect();
        // Any drop row present at eps 0 must exist shifted down at eps 0.5
        // for the same pair.
        for w in &without {
            let m = with_eps
                .iter()
                .find(|r| (r.t_b, r.t_c) == (w.t_b, w.t_c))
                .expect("pair survived");
            for (a, b) in m.boundary.corners().iter().zip(w.boundary.corners()) {
                assert!((a.dv - (b.dv - eps)).abs() < 1e-12);
            }
        }
    }
}
