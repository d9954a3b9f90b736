//! An index over *registered query regions*: the dual of the historical
//! query path.
//!
//! Historical search indexes stored features and probes them with one
//! region; standing queries invert this — thousands of regions are
//! registered up front and every newly committed feature boundary must
//! find the regions it intersects. A linear scan is O(regions) per
//! feature; this index makes it O(matching + occupied cells).
//!
//! Regions are bucketed on a logarithmic grid over `(T, |V|)`: cell
//! `(i, j)` holds regions with `T ∈ [2ⁱ, 2ⁱ⁺¹)` and `|V| ∈ [2ʲ, 2ʲ⁺¹)`,
//! per [`SearchKind`]. Each cell's *representative* is the most
//! permissive region any member could be — `T` at the cell's upper bound,
//! `|V|` at its lower bound — so [`zone_may_intersect`] on the
//! representative is a sound coarse test: if it fails, no member region
//! can intersect the boundary (the ε shift is already folded into the
//! boundary corners, so cell bounds need no shift of their own). The
//! cells of one kind sit under one more representative, the most
//! permissive of theirs, which lets a boundary that reaches none of them
//! skip them all with a single test. A kind's cells are one flat `Vec`,
//! walked front to back; insert and remove find a cell by its key.
//!
//! Cells that survive refine member by member with the lanes of
//! [`Boundary::intersects`], the branch-free predicate every search tests
//! a boundary with. A match prepares the boundary once — its three padded
//! corners, each edge's slope divided — and every member test is then
//! [`Boundary::intersects`] bit for bit without the division.
//! [`RegionIndex::matches_brute`] runs [`Boundary::intersects`] itself
//! over every member, and the property tests assert both paths return
//! identical sets.
//!
//! A feature row is searched through the boundary of its own kind — the
//! lower-left one shifted down by ε for a drop, the upper-left one
//! shifted up for a jump (paper Lemma 4) — so it answers only regions
//! of that kind. [`RegionIndex::matches_kind`] is the call that matches
//! a row: it reads one kind's cells. [`RegionIndex::matches`] reads
//! both, for callers that hold a bare boundary.
//!
//! [`zone_may_intersect`]: crate::batch::zone_may_intersect

use crate::batch::{Corners, ZoneExtent};
use crate::{Boundary, QueryRegion, SearchKind};

/// Work counters for one [`RegionIndex::matches_kind`] call, accumulated
/// across calls so ingest paths can expose O(matching) evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionMatchStats {
    /// Grid cells whose representative was zone-tested.
    pub cells_visited: u64,
    /// Member regions tested with the exact intersection predicate.
    pub regions_tested: u64,
}

#[derive(Debug)]
struct Cell {
    /// The cell's `(T, |V|)` buckets.
    key: (i32, i32),
    /// Most permissive region representable in this cell: `T` at the
    /// upper cell bound, `|V|` at the lower. Sound for pruning because
    /// the zone test is monotone in both thresholds.
    rep: QueryRegion,
    members: Vec<(u64, QueryRegion)>,
}

/// The cells of one [`SearchKind`], under one more representative: the
/// most permissive region of *any* cell, so a boundary that cannot reach
/// it skips all of them at once.
#[derive(Debug, Default)]
struct KindGrid {
    /// The occupied cells, in no particular order: a match walks them
    /// front to back.
    cells: Vec<Cell>,
    /// `None` while `cells` is empty.
    rep: Option<QueryRegion>,
}

impl KindGrid {
    /// Appends the ids of the members the boundary intersects; `extent`
    /// is its zone and `lanes` its prepared corners, the grid's kind a
    /// drop iff `DROP`. Each member test is [`Boundary::intersects`] bit
    /// for bit, with the boundary's edge slopes divided once for all of
    /// them.
    fn matches<const DROP: bool>(
        &self,
        extent: &ZoneExtent,
        lanes: &Corners<3>,
        out: &mut Vec<u64>,
        stats: &mut RegionMatchStats,
    ) {
        if !self.rep.is_some_and(|rep| extent.reaches::<DROP>(&rep)) {
            return;
        }
        for cell in &self.cells {
            stats.cells_visited += 1;
            if !extent.reaches::<DROP>(&cell.rep) {
                continue;
            }
            stats.regions_tested += cell.members.len() as u64;
            for (id, region) in &cell.members {
                if lanes.hit::<DROP>(region.t, region.v) {
                    out.push(*id);
                }
            }
        }
    }

    fn widest(&self) -> Option<QueryRegion> {
        let mut cells = self.cells.iter().map(|c| c.rep);
        let first = cells.next()?;
        Some(cells.fold(first, |a, b| QueryRegion {
            kind: a.kind,
            t: a.t.max(b.t),
            v: if a.v.abs() <= b.v.abs() { a.v } else { b.v },
        }))
    }

    /// The position of the cell `key` in `cells`.
    fn find(&self, key: (i32, i32)) -> Option<usize> {
        self.cells.iter().position(|c| c.key == key)
    }
}

/// A logarithmic `(T, |V|)` grid over registered query regions,
/// supporting exact "which regions does this boundary intersect" lookups
/// in O(matching + occupied cells) instead of O(all regions).
#[derive(Debug, Default)]
pub struct RegionIndex {
    /// Indexed by `SearchKind as usize`.
    kinds: [KindGrid; 2],
    len: usize,
}

/// Clamped `floor(log2(x))` for a positive finite threshold.
fn bucket(x: f64) -> i32 {
    debug_assert!(x > 0.0);
    (x.log2().floor()).clamp(-1074.0, 1022.0) as i32
}

/// The most permissive region in cell `(bt, bv)`: largest `T`, smallest
/// `|V|`. Built as a struct literal — the upper `T` bound may exceed what
/// the checked constructors accept, and only the zone test ever sees it.
fn representative(kind: SearchKind, bt: i32, bv: i32) -> QueryRegion {
    let t = f64::exp2(f64::from(bt) + 1.0);
    let t = if t.is_finite() { t } else { f64::MAX };
    let mag = f64::exp2(f64::from(bv));
    let v = match kind {
        SearchKind::Drop => -mag,
        SearchKind::Jump => mag,
    };
    QueryRegion { kind, t, v }
}

fn cell_key(region: &QueryRegion) -> (i32, i32) {
    (bucket(region.t), bucket(region.v.abs()))
}

/// The zone of one boundary: its per-column min and max coincide with
/// the corner itself.
fn extent(boundary: &Boundary) -> ZoneExtent {
    let mut zone = ZoneExtent::EMPTY;
    for p in boundary.corners() {
        zone.min_dt = zone.min_dt.min(p.dt);
        zone.min_dv = zone.min_dv.min(p.dv);
        zone.max_dv = zone.max_dv.max(p.dv);
    }
    zone
}

impl RegionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers `region` under the caller-chosen `id`. Ids are opaque to
    /// the index; registering the same id twice stores it twice.
    pub fn insert(&mut self, id: u64, region: QueryRegion) {
        let grid = &mut self.kinds[region.kind as usize];
        let key = cell_key(&region);
        let at = grid.find(key).unwrap_or_else(|| {
            grid.cells.push(Cell {
                key,
                rep: representative(region.kind, key.0, key.1),
                members: Vec::new(),
            });
            grid.cells.len() - 1
        });
        grid.cells[at].members.push((id, region));
        grid.rep = grid.widest();
        self.len += 1;
    }

    /// Removes the registration `(id, region)`; returns whether it was
    /// present. The region must match what was inserted — it names the
    /// cell to search.
    pub fn remove(&mut self, id: u64, region: &QueryRegion) -> bool {
        let grid = &mut self.kinds[region.kind as usize];
        let Some(at) = grid.find(cell_key(region)) else {
            return false;
        };
        let members = &mut grid.cells[at].members;
        let Some(pos) = members.iter().position(|(mid, _)| *mid == id) else {
            return false;
        };
        members.swap_remove(pos);
        self.len -= 1;
        if members.is_empty() {
            grid.cells.swap_remove(at);
            grid.rep = grid.widest();
        }
        true
    }

    /// Appends to `out` the ids of every registered region of `kind` the
    /// boundary intersects, via the grid: zone-test the kind's
    /// representative, then each of its occupied cells', then refine
    /// surviving cells member by member with the exact predicate. Work
    /// counters accumulate into `stats`.
    ///
    /// A feature row answers only regions of its own kind (the paper
    /// shifts a drop's boundary down by ε and a jump's up), so this is
    /// the call that matches one: the registry passes the row's kind.
    /// Lossless by construction — returns exactly the ids of `kind`
    /// [`Self::matches_brute`] returns, in unspecified order.
    pub fn matches_kind(
        &self,
        kind: SearchKind,
        boundary: &Boundary,
        out: &mut Vec<u64>,
        stats: &mut RegionMatchStats,
    ) {
        self.matches_of(Some(kind), boundary, out, stats);
    }

    /// [`Self::matches_kind`] over both kinds: every registered region
    /// the boundary intersects, whatever its kind.
    pub fn matches(&self, boundary: &Boundary, out: &mut Vec<u64>, stats: &mut RegionMatchStats) {
        self.matches_of(None, boundary, out, stats);
    }

    /// The grids of `kind` (both for `None`) against `boundary`, prepared
    /// once.
    fn matches_of(
        &self,
        kind: Option<SearchKind>,
        boundary: &Boundary,
        out: &mut Vec<u64>,
        stats: &mut RegionMatchStats,
    ) {
        // A pruned boundary's zone is empty: it reaches no cell.
        if boundary.is_empty() {
            return;
        }
        let (extent, lanes) = (extent(boundary), boundary.lanes());
        let [drops, jumps] = &self.kinds;
        if kind != Some(SearchKind::Jump) {
            drops.matches::<true>(&extent, &lanes, out, stats);
        }
        if kind != Some(SearchKind::Drop) {
            jumps.matches::<false>(&extent, &lanes, out, stats);
        }
    }

    /// Reference implementation: the exact predicate over *every*
    /// registered region, no pruning. The property tests assert
    /// [`Self::matches`] agrees with this bit for bit.
    pub fn matches_brute(&self, boundary: &Boundary) -> Vec<u64> {
        let mut out = Vec::new();
        for cell in self.kinds.iter().flat_map(|g| &g.cells) {
            for (id, region) in &cell.members {
                if boundary.intersects(region) {
                    out.push(*id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeaturePoint;
    use std::collections::HashMap;

    /// Tiny deterministic LCG, same recurrence the batch tests use.
    struct Lcg(f64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = (self.0 * 9301.0 + 49297.0) % 233280.0;
            self.0 / 233280.0
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next() * (hi - lo)
        }
    }

    fn random_region(rng: &mut Lcg) -> QueryRegion {
        // Thresholds spanning several log-buckets in both axes.
        let t = f64::exp2(rng.range(-2.0, 6.0));
        let mag = f64::exp2(rng.range(-3.0, 3.0));
        if rng.next() < 0.5 {
            QueryRegion::drop(t, -mag)
        } else {
            QueryRegion::jump(t, mag)
        }
    }

    fn random_boundary(rng: &mut Lcg) -> Boundary {
        let mut dts = [
            rng.range(0.0, 40.0),
            rng.range(0.0, 40.0),
            rng.range(0.0, 40.0),
        ];
        dts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let dv = |rng: &mut Lcg| rng.range(-8.0, 8.0);
        match (rng.next() * 3.0) as u32 {
            0 => Boundary::one(FeaturePoint::new(dts[0], dv(rng))),
            1 => Boundary::two(
                FeaturePoint::new(dts[0], dv(rng)),
                FeaturePoint::new(dts[1], dv(rng)),
            ),
            _ => Boundary::three(
                FeaturePoint::new(dts[0], dv(rng)),
                FeaturePoint::new(dts[1], dv(rng)),
                FeaturePoint::new(dts[2], dv(rng)),
            ),
        }
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = RegionIndex::new();
        assert!(idx.is_empty());
        let r1 = QueryRegion::drop(10.0, -2.0);
        let r2 = QueryRegion::jump(10.0, 2.0);
        idx.insert(1, r1);
        idx.insert(2, r2);
        assert_eq!(idx.len(), 2);
        assert!(idx.remove(1, &r1));
        assert!(!idx.remove(1, &r1));
        assert!(!idx.remove(2, &r1)); // wrong cell: jump vs drop
        assert!(idx.remove(2, &r2));
        assert!(idx.is_empty());
    }

    #[test]
    fn matches_finds_registered_regions() {
        let mut idx = RegionIndex::new();
        idx.insert(7, QueryRegion::drop(20.0, -5.0));
        idx.insert(8, QueryRegion::drop(1.0, -5.0));
        idx.insert(9, QueryRegion::jump(20.0, 5.0));
        // Right corner lies inside region 7 only.
        let b = Boundary::two(FeaturePoint::new(2.0, -1.0), FeaturePoint::new(12.0, -6.0));
        let mut out = Vec::new();
        let mut stats = RegionMatchStats::default();
        idx.matches(&b, &mut out, &mut stats);
        assert_eq!(out, vec![7]);
        assert_eq!(sorted(idx.matches_brute(&b)), vec![7]);
        assert!(stats.cells_visited >= 1);
    }

    /// The grid's own bookkeeping against the regions registered: no
    /// empty cell, no key held by two cells, each member in the cell of
    /// its region, and each kind's representative the widest of its
    /// cells' — recomputed from the live regions, not from the grid.
    fn assert_consistent(idx: &RegionIndex, live: &HashMap<u64, QueryRegion>) {
        assert_eq!(idx.len(), live.len());
        for (k, grid) in idx.kinds.iter().enumerate() {
            for (at, cell) in grid.cells.iter().enumerate() {
                assert!(!cell.members.is_empty(), "an empty cell stays");
                assert_eq!(grid.find(cell.key), Some(at), "cell {:?} twice", cell.key);
                for (id, region) in &cell.members {
                    assert_eq!((live[id], cell_key(region)), (*region, cell.key));
                }
            }
            let widest = live
                .values()
                .filter(|r| r.kind as usize == k)
                .map(|r| {
                    let (bt, bv) = cell_key(r);
                    representative(r.kind, bt, bv)
                })
                .reduce(|a, b| QueryRegion {
                    t: a.t.max(b.t),
                    v: if a.v.abs() <= b.v.abs() { a.v } else { b.v },
                    ..a
                });
            assert_eq!(grid.rep, widest, "kind {k}'s representative");
        }
    }

    #[test]
    fn indexed_matching_equals_brute_force() {
        // The losslessness property: for random region sets and random
        // boundaries, the grid path returns exactly the brute-force set,
        // and each kind's path exactly the brute-force ids of that kind.
        // Between match rounds registered regions leave at random (every
        // tenth round all of them) and new ones arrive, so cells empty
        // and come back and the kinds' representatives move.
        let mut rng = Lcg(0.41);
        let rounds = if cfg!(miri) { 3 } else { 60 };
        let boundaries_per_round = if cfg!(miri) { 5 } else { 80 };
        let mut idx = RegionIndex::new();
        let mut live: HashMap<u64, QueryRegion> = HashMap::new();
        let mut next_id = 0u64;
        for round in 0..rounds {
            let leave = if round % 10 == 9 { 1.0 } else { 0.5 };
            let mut ids: Vec<u64> = live.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                if rng.next() < leave {
                    let region = live.remove(&id).unwrap();
                    assert!(idx.remove(id, &region));
                }
            }
            let n_regions = 1 + (round * 7) % 50;
            while live.len() < n_regions {
                let region = random_region(&mut rng);
                idx.insert(next_id, region);
                live.insert(next_id, region);
                next_id += 1;
            }
            assert_consistent(&idx, &live);
            for _ in 0..boundaries_per_round {
                let b = random_boundary(&mut rng);
                let brute = idx.matches_brute(&b);
                let mut out = Vec::new();
                let mut stats = RegionMatchStats::default();
                idx.matches(&b, &mut out, &mut stats);
                assert_eq!(
                    sorted(out),
                    sorted(brute.clone()),
                    "index diverged from brute force for {b:?}"
                );
                for kind in [SearchKind::Drop, SearchKind::Jump] {
                    let mut out = Vec::new();
                    idx.matches_kind(kind, &b, &mut out, &mut stats);
                    let of_kind = brute.iter().filter(|id| live[*id].kind == kind);
                    assert_eq!(
                        sorted(out),
                        sorted(of_kind.copied().collect()),
                        "{kind:?} diverged from brute force for {b:?}"
                    );
                }
            }
        }
        assert!(next_id > 500, "the churn registered too few regions");
    }

    #[test]
    fn other_kind_is_skipped_wholesale() {
        // A boundary that never dips below zero cannot reach any drop
        // cell: the kind-level representative rejects them all unvisited,
        // and asking for drops alone visits nothing.
        let mut idx = RegionIndex::new();
        for id in 0..40 {
            idx.insert(
                id,
                QueryRegion::drop(f64::exp2((id % 8) as f64), -1.0 - id as f64),
            );
        }
        idx.insert(100, QueryRegion::jump(20.0, 2.0));
        let b = Boundary::two(FeaturePoint::new(1.0, 0.5), FeaturePoint::new(9.0, 3.0));
        let visit = |kind: Option<SearchKind>| {
            let mut out = Vec::new();
            let mut stats = RegionMatchStats::default();
            match kind {
                Some(kind) => idx.matches_kind(kind, &b, &mut out, &mut stats),
                None => idx.matches(&b, &mut out, &mut stats),
            }
            (out, stats.cells_visited)
        };
        assert_eq!(visit(None), (vec![100], 1), "only the jump cell is visited");
        assert_eq!(visit(Some(SearchKind::Jump)), (vec![100], 1));
        assert_eq!(visit(Some(SearchKind::Drop)), (vec![], 0));
        // Removing the shallowest drop regions narrows the representative.
        assert!(idx.remove(0, &QueryRegion::drop(1.0, -1.0)));
        assert_eq!(sorted(idx.matches_brute(&b)), vec![100]);
    }

    #[test]
    fn grid_prunes_non_matching_cells() {
        // 1000 deep-drop regions a shallow boundary cannot reach: the
        // grid must test far fewer regions than the brute scan would.
        let mut idx = RegionIndex::new();
        for id in 0..1000 {
            idx.insert(id, QueryRegion::drop(100.0, -64.0 - (id % 7) as f64));
        }
        idx.insert(9999, QueryRegion::drop(100.0, -0.5));
        let b = Boundary::two(FeaturePoint::new(1.0, -0.2), FeaturePoint::new(9.0, -1.0));
        let mut out = Vec::new();
        let mut stats = RegionMatchStats::default();
        idx.matches(&b, &mut out, &mut stats);
        assert_eq!(out, vec![9999]);
        assert!(
            stats.regions_tested < 100,
            "expected pruning, tested {} regions",
            stats.regions_tested
        );
    }
}
