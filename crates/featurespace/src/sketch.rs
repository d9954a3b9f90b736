//! `f32` sketches of sealed corner `Δv`s, and the band a sketch cannot
//! settle.
//!
//! A stored boundary's corners decide only *whether* its segment pair
//! meets a region (Theorem 1, Lemma 5); the answer is the pair's time
//! stamps. So a sealed row may keep a coarser `Δv` than ingest computed,
//! provided a search can tell when the coarse value is not enough. The
//! [`round`]ing of a `Δv` is the nearest `f32` on the far side of every
//! region of its kind — rounded toward −∞ for drops, toward +∞ for jumps —
//! widened back to `f64`: a sealed corner lies at least as deep as the
//! exact one, at most one `f32` ulp from it, and its 52-bit mantissa ends
//! in 29 zero bits the columnar page strips.
//!
//! A search asks two questions of a row on a sealed page — the lanes of
//! [`crate::batch`], each tested twice:
//!
//! * **admitted** — may the exact row intersect the region? Lowering a
//!   drop corner's `Δv` can only add intersections: the point lane is
//!   monotone in `Δv`, and an edge lane a lower first corner turns off
//!   (`dv1 > V` no longer holds) leaves that corner inside the region,
//!   where its point lane fires. One thing is not monotone: the edge's
//!   interpolation, computed in `f64`, may round a lower corner pair to a
//!   value a few `f64` ulps *above* the exact pair's. So the edge lane
//!   compares it with `V + α`, `α` a bound on that rounding from the
//!   lane's own ends. A row not [`admitted`] is no answer. Zone pruning
//!   ([`crate::batch::zone_may_intersect`] over the sketched minima and
//!   maxima) needs no such slack: an exact hit has a corner at or below
//!   `V`, and that corner's sketch lies lower still.
//! * **certain** — does the exact row surely intersect the region? Each
//!   lane is tested on the region eroded by `δ` (`V − δ` for drops,
//!   `V + δ` for jumps), `δ` bounding one `f32` ulp of the `Δv`s the lane
//!   reads plus the interpolation's rounding — taken from `V` for a point
//!   lane, from the lane's own ends for an edge lane. The exact corners
//!   lie within it of the sketched ones, so a sketched lane inside the
//!   eroded region puts an exact lane — that one, or the first corner's
//!   point lane — inside the region itself. A [`certain`] row is an
//!   answer. Only admitted rows are asked, one at a time.
//!
//! A row admitted and not certain lies in the band: its exact boundary is
//! recomputed from the two segments it was extracted from, and decided on
//! that. Jumps mirror every step.
//!
//! The rule is idempotent — a sketch is its own sketch — so a row sealed
//! again keeps its bits, and an exact `Δv` (what a store sealed before
//! sketches holds) is a valid sketch of itself.

use crate::{QueryRegion, SearchKind};

/// `δ` per unit of `|Δv|`: one `f32` ulp (at most 2⁻²³ of the value)
/// with the interpolation's rounding, a few 2⁻⁵³, folded in by doubling.
const CERTAIN_REL: f64 = 1.0 / (1u64 << 22) as f64;
/// `δ`'s floor: two `f32` steps below `f32::MIN_POSITIVE`, where the ulp
/// stops shrinking with the value.
const F32_STEP: f64 = 2.0 * 1.401_298_464_324_817e-45;
/// `α` per unit of `|Δv|`: the interpolation's `f64` rounding, a few
/// ulps (2⁻⁵³) of the values it combines, with room to spare.
const ADMIT_REL: f64 = 1.0 / (1u64 << 44) as f64;

/// The `f32` sketch of a stored `Δv` in a `kind` table: the nearest `f32`
/// at or below `dv` for drops, at or above it for jumps, as an `f64`.
/// Values exact in `f32` (`±0` included, sign kept) are returned as they
/// are, and so is a value `f32` cannot bound — NaN, an infinity, or a
/// magnitude beyond `f32::MAX` — so the sketch is idempotent and never
/// more than one `f32` ulp from `dv`.
pub fn round(kind: SearchKind, dv: f64) -> f64 {
    if dv.is_nan() || dv.abs() > f64::from(f32::MAX) {
        return dv;
    }
    let near = dv as f32;
    let widened = f64::from(near);
    f64::from(match kind {
        SearchKind::Drop if widened > dv => next_down(near),
        SearchKind::Jump if widened < dv => -next_down(-near),
        _ => near,
    })
}

/// The `f32` next below `x` (finite, above `f32::MIN`).
fn next_down(x: f32) -> f32 {
    let bits = x.to_bits();
    f32::from_bits(match x {
        _ if x == 0.0 => 0x8000_0001, // the least negative subnormal
        _ if x > 0.0 => bits - 1,
        _ => bits + 1,
    })
}

/// `a` at or past `b` in the direction of the search: `a <= b` for drops,
/// `a >= b` for jumps.
#[inline(always)]
fn reaches<const DROP: bool>(a: f64, b: f64) -> bool {
    if DROP {
        a <= b
    } else {
        a >= b
    }
}

/// `a` strictly past `b` in the direction of the search.
#[inline(always)]
fn past<const DROP: bool>(a: f64, b: f64) -> bool {
    if DROP {
        a < b
    } else {
        a > b
    }
}

/// `v` moved by `d` in the direction of the search: deeper into it for
/// `d > 0`, shallower for `d < 0`.
#[inline(always)]
fn deeper<const DROP: bool>(v: f64, d: f64) -> f64 {
    if DROP {
        v - d
    } else {
        v + d
    }
}

/// An edge lane's interpolation at `t`, computed as [`crate::batch`]
/// computes it, and the lane's `|Δv₁| + |Δv₂|`, which bounds its rounding
/// and its ends' `f32` ulps.
#[inline(always)]
fn interpolate(dt1: f64, dv1: f64, dt2: f64, dv2: f64, t: f64) -> (f64, f64) {
    let at_t = dv1 + (dv2 - dv1) / (dt2 - dt1) * (t - dt1);
    (at_t, dv1.abs() + dv2.abs())
}

/// One edge lane of [`admitted`]: the exact lane with the interpolation
/// compared to `V` moved `α` shallower. Its `dv1 > V` is not asked:
/// where that fails, the first corner's point lane admits the row.
#[inline(always)]
fn edge_admits<const DROP: bool>(dt1: f64, dv1: f64, dt2: f64, dv2: f64, t: f64, v: f64) -> bool {
    let (at_t, ends) = interpolate(dt1, dv1, dt2, dv2, t);
    let shallower = deeper::<DROP>(v, -(ends * ADMIT_REL + f64::MIN_POSITIVE));
    (dt1 <= t) & (dt2 > t) & past::<DROP>(dv2, v) & reaches::<DROP>(at_t, shallower)
}

fn admitted_of<const DROP: bool>(
    corners: usize,
    cols: &[Vec<f64>],
    len: usize,
    t: f64,
    v: f64,
    out: &mut [bool],
) {
    for j in 0..corners {
        let (dts, dvs) = (&cols[2 * j][..len], &cols[2 * j + 1][..len]);
        for ((m, &dt), &dv) in out.iter_mut().zip(dts).zip(dvs) {
            *m |= (dt <= t) & reaches::<DROP>(dv, v);
        }
    }
    for j in 0..corners - 1 {
        let (dt1s, dv1s) = (&cols[2 * j][..len], &cols[2 * j + 1][..len]);
        let (dt2s, dv2s) = (&cols[2 * j + 2][..len], &cols[2 * j + 3][..len]);
        let ends = dt1s.iter().zip(dv1s).zip(dt2s).zip(dv2s);
        for (m, (((&dt1, &dv1), &dt2), &dv2)) in out.iter_mut().zip(ends) {
            *m |= edge_admits::<DROP>(dt1, dv1, dt2, dv2, t, v);
        }
    }
}

/// The rows of a sealed page whose exact boundary may intersect `region`,
/// tested on the page's decoded corner columns (storage order
/// `Δt₁, Δv₁, …` of `corners` corners, `len` rows each; trailing columns
/// are ignored, as [`crate::batch::boundaries_intersect_cols`] ignores
/// them): `out` is resized to `len` and overwritten, `true` for a row
/// that may be an answer. A row left `false` is none. One vectorised
/// pass, the cost of the exact kernel's plus the edges' slack.
///
/// # Panics
///
/// Panics unless `corners` is 1–3 and `cols` has at least `2 * corners`
/// columns of length `len`.
pub fn admitted(
    corners: usize,
    cols: &[Vec<f64>],
    len: usize,
    region: &QueryRegion,
    out: &mut Vec<bool>,
) {
    assert!((1..=3).contains(&corners), "corners must be 1-3");
    assert!(cols.len() >= 2 * corners, "need dt/dv columns per corner");
    out.clear();
    out.resize(len, false);
    let (t, v) = (region.t, region.v);
    match region.kind {
        SearchKind::Drop => admitted_of::<true>(corners, cols, len, t, v, out),
        SearchKind::Jump => admitted_of::<false>(corners, cols, len, t, v, out),
    }
}

fn certain_of<const DROP: bool>(
    corners: usize,
    cols: &[Vec<f64>],
    r: usize,
    t: f64,
    v: f64,
) -> bool {
    let corner = |j: usize| (cols[2 * j][r], cols[2 * j + 1][r]);
    // Points: `δ` from `V` alone. A sketched corner at or past `V − δ`
    // lies within an `f32` ulp of its exact value, which is then at or
    // past `V` — near `V` the ulp is `V`'s, and far from it the corner is
    // deep whatever its ulp.
    let eroded = deeper::<DROP>(v, v.abs() * CERTAIN_REL + F32_STEP);
    let point = |j| {
        let (dt, dv) = corner(j);
        dt <= t && reaches::<DROP>(dv, eroded)
    };
    // Edges: `δ` from the lane's ends. Its `dv1 > V` is not asked: where
    // the exact one fails, the exact first corner is itself inside.
    let edge = |j| {
        let ((dt1, dv1), (dt2, dv2)) = (corner(j), corner(j + 1));
        let (at_t, ends) = interpolate(dt1, dv1, dt2, dv2, t);
        let eroded = deeper::<DROP>(v, ends * CERTAIN_REL + F32_STEP);
        dt1 <= t && dt2 > t && past::<DROP>(dv2, eroded) && reaches::<DROP>(at_t, eroded)
    };
    (0..corners).any(point) || (0..corners - 1).any(edge)
}

/// Whether the exact boundary of row `r` of a sealed page (its decoded
/// corner columns, as [`admitted`] takes them) surely intersects `region`:
/// the row's lanes tested on the region eroded by `δ`. A row it accepts
/// is an answer; an [`admitted`] row it does not lies in the band.
///
/// # Panics
///
/// Panics unless `corners` is 1–3 and `cols` has at least `2 * corners`
/// columns longer than `r`.
pub fn certain(corners: usize, cols: &[Vec<f64>], r: usize, region: &QueryRegion) -> bool {
    assert!((1..=3).contains(&corners), "corners must be 1-3");
    let (t, v) = (region.t, region.v);
    match region.kind {
        SearchKind::Drop => certain_of::<true>(corners, cols, r, t, v),
        SearchKind::Jump => certain_of::<false>(corners, cols, r, t, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::boundaries_intersect;

    const KINDS: [SearchKind; 2] = [SearchKind::Drop, SearchKind::Jump];

    fn next_up(x: f32) -> f32 {
        -next_down(-x)
    }

    /// Values across the `f64` range: zeros of both signs, `f32`-exact
    /// ones, f64 subnormals below `f32`'s least step, `f32`'s extremes and
    /// values beyond them, and pseudo-random full-mantissa ones.
    fn samples() -> Vec<f64> {
        let mut out = vec![
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            -0.1,
            1.0 / 3.0,
            -1e-300,
            1e-300,
            5e-324,
            f64::from(f32::MAX),
            -f64::from(f32::MAX),
            f64::from(f32::MIN_POSITIVE),
            1.401_298_464_324_817e-45,
            3.5e38,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..if cfg!(miri) { 64 } else { 20_000 } {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A sign, an exponent in ±40 and a full mantissa.
            let exp = 1023 - 40 + (x >> 52) % 80;
            out.push(f64::from_bits(
                (x & (1 << 63)) | (exp << 52) | (x & ((1 << 52) - 1)),
            ));
        }
        out
    }

    #[test]
    fn sketch_rounds_toward_the_far_side_of_its_kind() {
        for x in samples() {
            let (lo, hi) = (round(SearchKind::Drop, x), round(SearchKind::Jump, x));
            assert!(lo <= x && x <= hi, "{x:e}: drop {lo:e}, jump {hi:e}");
            if x.abs() <= f64::from(f32::MAX) {
                // Adjacent f32s: one ulp apart, or equal when x is exact.
                let (lo32, hi32) = (lo as f32, hi as f32);
                assert_eq!((f64::from(lo32), f64::from(hi32)), (lo, hi), "{x:e}");
                assert!(lo == hi || next_up(lo32) == hi32, "{x:e}: {lo:e} .. {hi:e}");
                assert!(
                    x < f64::from(next_up(lo32)),
                    "{x:e}: drop error above an ulp"
                );
                assert!(
                    x > f64::from(next_down(hi32)),
                    "{x:e}: jump error above an ulp"
                );
            }
        }
    }

    #[test]
    fn sketch_is_idempotent_and_keeps_exact_values_bit_for_bit() {
        for x in samples() {
            for kind in KINDS {
                let s = round(kind, x);
                assert_eq!(round(kind, s).to_bits(), s.to_bits(), "{kind:?} {x:e}");
                let exact = x.is_nan() || x.abs() > f64::from(f32::MAX) || {
                    let f = x as f32;
                    f64::from(f).to_bits() == x.to_bits()
                };
                if exact {
                    assert_eq!(s.to_bits(), x.to_bits(), "{kind:?} {x:e} moved");
                }
            }
        }
        assert!(round(SearchKind::Drop, f64::NAN).is_nan());
    }

    #[test]
    fn zeros_and_extreme_magnitudes() {
        for kind in KINDS {
            assert_eq!(round(kind, 0.0).to_bits(), 0.0f64.to_bits());
            assert_eq!(round(kind, -0.0).to_bits(), (-0.0f64).to_bits());
            assert_eq!(round(kind, 1e300), 1e300, "beyond f32: exact");
            assert_eq!(round(kind, -1e300), -1e300);
        }
        let least = f64::from(f32::from_bits(1));
        assert_eq!(round(SearchKind::Drop, 1e-300), 0.0);
        assert_eq!(round(SearchKind::Jump, 1e-300), least);
        assert_eq!(round(SearchKind::Drop, -1e-300), -least);
        assert_eq!(
            round(SearchKind::Jump, -1e-300).to_bits(),
            (-0.0f64).to_bits()
        );
        let max = f64::from(f32::MAX);
        assert_eq!(round(SearchKind::Jump, max), max);
        assert_eq!(round(SearchKind::Drop, -max), -max);
        assert!(round(SearchKind::Drop, max * 0.999_999_99) < max);
    }

    /// The two promises, on pages of random boundaries rounded the
    /// way a seal rounds them (`Δv` magnitudes from 2⁻³⁰ to 2³⁰) and
    /// regions placed on, next to and far from their corners: a row the
    /// exact kernel accepts is admitted, a certain row is one the exact
    /// kernel accepts, and no row is certain without being admitted.
    #[test]
    fn admitted_never_misses_and_certain_never_invents() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut banded, mut hits) = (0, 0);
        for _ in 0..if cfg!(miri) { 40 } else { 12_000 } {
            let kind = KINDS[usize::from(unit() < 0.5)];
            let corners = 1 + (unit() * 3.0) as usize;
            let scale = (2.0f64).powi((unit() * 60.0) as i32 - 30);
            let rows = 1 + (unit() * 9.0) as usize;
            let row = |unit: &mut dyn FnMut() -> f64| {
                let mut dts: Vec<f64> = (0..corners).map(|_| unit() * 8.0).collect();
                dts.sort_by(f64::total_cmp);
                dts.iter()
                    .flat_map(|&dt| [dt, (unit() - 0.5) * 16.0 * scale])
                    .collect::<Vec<f64>>()
            };
            let exact: Vec<Vec<f64>> = (0..rows).map(|_| row(&mut unit)).collect();
            let sketched: Vec<Vec<f64>> = exact
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    for dv in r.iter_mut().skip(1).step_by(2) {
                        *dv = round(kind, *dv);
                    }
                    r
                })
                .collect();
            // T on a corner's Δt or anywhere; V on an exact Δv, its
            // sketch, one or two f32 ulps past either, or anywhere.
            let (i, j) = (
                (unit() * rows as f64) as usize,
                2 * (unit() * corners as f64) as usize,
            );
            let t = [exact[i][j], unit() * 8.0][usize::from(unit() < 0.3)].max(1e-3);
            let on = [exact[i][j + 1], sketched[i][j + 1]][usize::from(unit() < 0.5)] as f32;
            let v = match (unit() * 6.0) as u32 {
                0 => exact[i][j + 1],
                1 => f64::from(on),
                2 => f64::from(next_up(on)),
                3 => f64::from(next_down(on)),
                4 => f64::from(next_up(next_up(on))),
                _ => f64::from(next_down(next_down(on))),
            };
            let region = QueryRegion { kind, t, v };
            let cols = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
                (0..2 * corners)
                    .map(|c| rows.iter().map(|r| r[c]).collect())
                    .collect()
            };
            let (exact_cols, sketched_cols) = (cols(&exact), cols(&sketched));
            let views: Vec<&[f64]> = exact_cols.iter().map(Vec::as_slice).collect();
            let mut truth = Vec::new();
            boundaries_intersect(corners, &views, rows, &region, &mut truth);
            let mut got = vec![true; 3];
            admitted(corners, &sketched_cols, rows, &region, &mut got);
            assert_eq!(got.len(), rows);
            for (r, ((&truth, &admitted), exact)) in truth.iter().zip(&got).zip(&exact).enumerate()
            {
                let certain = certain(corners, &sketched_cols, r, &region);
                assert!(
                    admitted || !certain,
                    "certain, not admitted: {exact:?} in {region:?}"
                );
                assert!(!truth || admitted, "missed {exact:?} in {region:?}");
                assert!(!certain || truth, "invented {exact:?} in {region:?}");
                banded += usize::from(admitted && !certain);
                hits += usize::from(truth);
            }
        }
        if !cfg!(miri) {
            assert!(
                banded > 100 && hits > 1000,
                "{banded} in the band, {hits} hits"
            );
        }
    }

    /// Without a sketch to doubt — `Δv`s exact in `f32`, far from `V` —
    /// every row the exact kernel accepts is certain, every other row is
    /// rejected, and a jump page answers as the mirrored drop page does.
    #[test]
    fn rows_far_from_the_band_are_decided_outright() {
        let cols = vec![
            vec![1.0, 1.0, 5.0, 20.0],
            vec![-4.0, -0.5, -0.5, -9.0],
            vec![6.0, 2.0, 12.0, 30.0],
            vec![-9.0, -1.0, -6.0, -1.0],
        ];
        let drop = QueryRegion::drop(10.0, -3.0);
        let views: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let mut truth = Vec::new();
        boundaries_intersect(2, &views, 4, &drop, &mut truth);
        assert_eq!(truth, [true, false, true, false]);
        let verdicts = |cols: &[Vec<f64>], region: &QueryRegion| {
            let mut got = Vec::new();
            admitted(2, cols, 4, region, &mut got);
            let sure: Vec<bool> = (0..4).map(|r| certain(2, cols, r, region)).collect();
            (got, sure)
        };
        assert_eq!(verdicts(&cols, &drop), (truth.clone(), truth));
        let mirrored: Vec<Vec<f64>> = cols
            .iter()
            .enumerate()
            .map(|(c, col)| {
                col.iter()
                    .map(|&x| if c % 2 == 1 { -x } else { x })
                    .collect()
            })
            .collect();
        assert_eq!(
            verdicts(&mirrored, &QueryRegion::jump(10.0, 3.0)),
            verdicts(&cols, &drop)
        );
    }
}
