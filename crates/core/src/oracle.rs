//! Brute-force ground truth for validating the paper's guarantees.
//!
//! The oracle enumerates events directly from the raw series (model G) with
//! no approximation. The test suite uses it to check Theorem 1:
//!
//! * **completeness** — every true event among sampled observations must be
//!   covered by some returned segment pair ([`find_missed_event`] returns
//!   `None`);
//! * **bounded false positives** — every returned pair must contain an
//!   event with `Δv <= V + 2ε` within `Δt <= T`
//!   ([`pair_extreme_change`] vs the threshold).
//!
//! [`check_prefix`] holds a store that survived a crash to both, and to
//! the store's own consistency: the one checker of crash recovery.

use crate::result::SegmentPair;
use crate::{QueryPlan, SegDiffIndex};
use featurespace::{QueryRegion, SearchKind};
use sensorgen::TimeSeries;

/// All true events among *sampled* observation pairs: `(t1, t2)` with
/// `0 < t2 - t1 <= T` and `Δv` beyond the threshold. Quadratic in the
/// window population — intended for test-sized data.
pub fn true_events(series: &TimeSeries, region: &QueryRegion) -> Vec<(f64, f64)> {
    let ts = series.times();
    let vs = series.values();
    let mut out = Vec::new();
    for i in 0..ts.len() {
        for j in (i + 1)..ts.len() {
            let dt = ts[j] - ts[i];
            if dt > region.t {
                break;
            }
            let dv = vs[j] - vs[i];
            let hit = match region.kind {
                SearchKind::Drop => dv <= region.v,
                SearchKind::Jump => dv >= region.v,
            };
            if hit {
                out.push((ts[i], ts[j]));
            }
        }
    }
    out
}

/// Returns the first true event not covered by any result pair, or `None`
/// when recall is perfect.
pub fn find_missed_event(events: &[(f64, f64)], results: &[SegmentPair]) -> Option<(f64, f64)> {
    events
        .iter()
        .find(|&&(t1, t2)| !results.iter().any(|p| p.covers(t1, t2)))
        .copied()
}

/// The most extreme change reachable inside a returned pair: the minimum
/// (drop) or maximum (jump) of `G(t2) - G(t1)` over `t1 ∈ [t_d, t_c]`,
/// `t2 ∈ [t_b, t_a]`, `0 < t2 - t1 <= T`, where `G` is the linear
/// interpolation of the raw series.
///
/// Exact: `G(t2) - G(t1)` is affine on each cell between sampled
/// observations, so its extreme over the feasible part of a cell lies on
/// a corner — two sample times or interval ends, or one of them and the
/// instant `T` away from it — and every such corner is evaluated (plus
/// `grid` evenly spaced points per interval, which can only agree).
/// Returns `None` when no pair of instants satisfies `Δt <= T` (cannot
/// happen for pairs produced by the framework).
pub fn pair_extreme_change(
    series: &TimeSeries,
    pair: &SegmentPair,
    region: &QueryRegion,
    grid: usize,
) -> Option<f64> {
    let mut earlier = candidate_times(series, pair.t_d, pair.t_c, grid);
    let mut later = candidate_times(series, pair.t_b, pair.t_a, grid);
    let shifted = |times: &[f64], by: f64, lo: f64, hi: f64| -> Vec<f64> {
        let moved = times.iter().map(|t| t + by);
        moved.filter(|t| (lo..=hi).contains(t)).collect()
    };
    let ends = shifted(&later, -region.t, pair.t_d, pair.t_c);
    let starts = shifted(&earlier, region.t, pair.t_b, pair.t_a);
    for (times, extra) in [(&mut earlier, ends), (&mut later, starts)] {
        times.extend(extra);
        times.sort_by(f64::total_cmp);
        times.dedup();
    }
    // When the two intervals meet, events with Δt -> 0+ exist and their
    // Δv -> 0 by continuity of G: zero is an infimum no corner attains,
    // so seed it explicitly.
    let overlap = pair.t_d.max(pair.t_b) <= pair.t_c.min(pair.t_a);
    let mut best: Option<f64> = if overlap { Some(0.0) } else { None };
    for &t1 in &earlier {
        let Some(v1) = series.interpolate(t1) else {
            continue;
        };
        for &t2 in &later {
            // `t1 + T - t1` may round past `T`: a corner on `Δt = T` stays.
            let dt = t2 - t1;
            if dt <= 0.0 || dt > region.t * (1.0 + 1e-12) {
                continue;
            }
            let Some(v2) = series.interpolate(t2) else {
                continue;
            };
            let dv = v2 - v1;
            best = Some(match (best, region.kind) {
                (None, _) => dv,
                (Some(b), SearchKind::Drop) => b.min(dv),
                (Some(b), SearchKind::Jump) => b.max(dv),
            });
        }
    }
    best
}

/// What [`check_prefix`] saw of a store that passed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCheck {
    /// Segments stored: the prefix of the input the store holds.
    pub segments: usize,
    /// True events in that prefix, over every region checked.
    pub events: usize,
    /// Result pairs, over every region checked.
    pub results: usize,
}

/// Checks a store — typically one just reopened after a crash — against
/// the series it was fed, and returns what it saw, or the first violation:
///
/// 1. **prefix consistency**: [`SegDiffIndex::verify_consistency`] — the
///    segment chain is unbroken and every feature table is what
///    extraction over those segments produces, so the store is what a
///    crash-free ingest of some prefix of the input would have built;
/// 2. **Theorem 1 over that prefix**: every true event of each region
///    among the observations up to the last stored segment's end is
///    covered by a result pair;
/// 3. **Lemma 5**: every result pair holds a change within `2ε` of the
///    region's `V` ([`pair_extreme_change`], exactly);
/// 4. **one answer**: a search ([`SegDiffIndex::query`]) on either plan
///    and [`QueryPlan::Index`] over the stored rows
///    ([`SegDiffIndex::query_stored_rows`]) return exactly what
///    [`QueryPlan::SeqScan`] over the stored rows does (the store's trees
///    must exist).
pub fn check_prefix(
    idx: &SegDiffIndex,
    series: &TimeSeries,
    regions: &[QueryRegion],
) -> Result<PrefixCheck, String> {
    idx.verify_consistency()
        .map_err(|e| format!("prefix inconsistent: {e}"))?;
    let segments = idx.segments().map_err(|e| e.to_string())?;
    let mut seen = PrefixCheck {
        segments: segments.len(),
        ..PrefixCheck::default()
    };
    let Some(last) = segments.last() else {
        return Ok(seen);
    };
    let mut prefix = TimeSeries::new();
    for (t, v) in series.iter().take_while(|&(t, _)| t <= last.t_end) {
        prefix.push(t, v);
    }
    let eps = idx.config().epsilon;
    for region in regions {
        let stored = |plan| idx.query_stored_rows(region, plan);
        let generated = |plan| idx.query(region, plan);
        let answer = |r: pagestore::Result<(Vec<SegmentPair>, _)>| r.map_err(|e| e.to_string());
        let (scan, _) = answer(stored(QueryPlan::SeqScan))?;
        for (how, other) in [
            ("index", stored(QueryPlan::Index)),
            ("a search by scan", generated(QueryPlan::SeqScan)),
            ("a search by index", generated(QueryPlan::Index)),
        ] {
            let (other, _) = answer(other)?;
            if other != scan {
                return Err(format!(
                    "plans disagree on {region:?}: {} pairs by scan, {} by {how}",
                    scan.len(),
                    other.len()
                ));
            }
        }
        let events = true_events(&prefix, region);
        if let Some(missed) = find_missed_event(&events, &scan) {
            return Err(format!(
                "Theorem 1 violated on {region:?}: true event {missed:?} in the prefix \
                 (t <= {}) is not covered by any of {} results",
                last.t_end,
                scan.len()
            ));
        }
        for pair in &scan {
            let reach = pair_extreme_change(&prefix, pair, region, 0);
            let within = reach.is_some_and(|dv| match region.kind {
                SearchKind::Drop => dv <= region.v + 2.0 * eps + 1e-9,
                SearchKind::Jump => dv >= region.v - 2.0 * eps - 1e-9,
            });
            if !within {
                return Err(format!(
                    "Lemma 5 violated on {region:?}: pair {pair:?} reaches {reach:?}, \
                     beyond V by more than 2ε = {}",
                    2.0 * eps
                ));
            }
        }
        seen.events += events.len();
        seen.results += scan.len();
    }
    Ok(seen)
}

/// Sampled observations within `[lo, hi]`, its ends, and `grid` points
/// evenly spaced between.
fn candidate_times(series: &TimeSeries, lo: f64, hi: f64, grid: usize) -> Vec<f64> {
    let mut out: Vec<f64> = series
        .times()
        .iter()
        .copied()
        .filter(|&t| lo <= t && t <= hi)
        .collect();
    out.extend([lo, hi]);
    for k in 1..grid {
        out.push(lo + (hi - lo) * k as f64 / grid as f64);
    }
    out.sort_by(f64::total_cmp);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use featurespace::QueryRegion;

    fn series() -> TimeSeries {
        TimeSeries::from_parts(vec![0.0, 300.0, 600.0, 900.0], vec![10.0, 6.0, 6.0, 8.0])
    }

    #[test]
    fn true_events_enumerated() {
        let s = series();
        let ev = true_events(&s, &QueryRegion::drop(600.0, -3.5));
        assert_eq!(ev, vec![(0.0, 300.0), (0.0, 600.0)]);
        let ev = true_events(&s, &QueryRegion::jump(600.0, 2.0));
        assert_eq!(ev, vec![(300.0, 900.0), (600.0, 900.0)]);
    }

    #[test]
    fn missed_event_detection() {
        let events = vec![(0.0, 300.0), (600.0, 900.0)];
        let covers_first = SegmentPair {
            t_d: 0.0,
            t_c: 100.0,
            t_b: 250.0,
            t_a: 400.0,
        };
        assert_eq!(
            find_missed_event(&events, &[covers_first]),
            Some((600.0, 900.0))
        );
        let covers_both = SegmentPair {
            t_d: 0.0,
            t_c: 700.0,
            t_b: 200.0,
            t_a: 1000.0,
        };
        assert_eq!(
            find_missed_event(&events, &[covers_first, covers_both]),
            None
        );
    }

    #[test]
    fn extreme_change_on_known_shape() {
        let s = series();
        let pair = SegmentPair {
            t_d: 0.0,
            t_c: 300.0,
            t_b: 300.0,
            t_a: 600.0,
        };
        let region = QueryRegion::drop(600.0, -1.0);
        let min = pair_extreme_change(&s, &pair, &region, 32).unwrap();
        assert!(
            (min - (-4.0)).abs() < 1e-9,
            "steepest drop is -4, got {min}"
        );
        let region = QueryRegion::jump(600.0, 1.0);
        let max = pair_extreme_change(&s, &pair, &region, 32).unwrap();
        // Earlier in [0,300] (falling from 10), later in [300,600] (flat 6):
        // the max change is 6 - 6 = 0 at t1 = 300.
        assert!(max.abs() < 1e-9, "max change should be 0, got {max}");
    }

    #[test]
    fn extreme_change_respects_t() {
        let s = series();
        let pair = SegmentPair {
            t_d: 0.0,
            t_c: 0.0,
            t_b: 900.0,
            t_a: 900.0,
        };
        // dt = 900 > T = 600: no reachable event.
        let region = QueryRegion::drop(600.0, -1.0);
        assert_eq!(pair_extreme_change(&s, &pair, &region, 8), None);
    }
}
