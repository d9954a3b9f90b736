//! Search results.

/// One search result: the time extents of the two data segments involved in
/// at least one matching event.
///
/// This is the paper's result tuple `((t_D, t_C), (t_B, t_A))`: the drop
/// (jump) *starts* somewhere in `[t_d, t_c]` and *ends* somewhere in
/// `[t_b, t_a]`. When the event lies within a single segment the two
/// intervals coincide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentPair {
    /// Start of the earlier segment (possibly truncated to the window).
    pub t_d: f64,
    /// End of the earlier segment.
    pub t_c: f64,
    /// Start of the later segment.
    pub t_b: f64,
    /// End of the later segment.
    pub t_a: f64,
}

impl SegmentPair {
    /// Whether the event pair `(t1, t2)` is covered by this result:
    /// `t1 ∈ [t_d, t_c]` and `t2 ∈ [t_b, t_a]`.
    pub fn covers(&self, t1: f64, t2: f64) -> bool {
        self.t_d <= t1 && t1 <= self.t_c && self.t_b <= t2 && t2 <= self.t_a
    }

    /// Whether this result refers to a single segment (a within-segment
    /// event).
    pub fn is_self_pair(&self) -> bool {
        self.t_d == self.t_b && self.t_c == self.t_a
    }

    /// A stable key for deduplication and sorting.
    pub(crate) fn key(&self) -> (u64, u64, u64, u64) {
        (
            self.t_d.to_bits(),
            self.t_c.to_bits(),
            self.t_b.to_bits(),
            self.t_a.to_bits(),
        )
    }
}

/// Per-sensor result lists keyed by global sensor id — the shape
/// shards produce and [`merge_sharded`] consumes.
pub type ShardResults = Vec<(u32, Vec<SegmentPair>)>;

/// The order of [`sort_dedup`]: the four time stamps, each by
/// `f64::total_cmp`. Two pairs compare equal only when they are the same
/// bits, so any sort by it, stable or not, yields one output.
pub(crate) fn canonical_order(a: &SegmentPair, b: &SegmentPair) -> std::cmp::Ordering {
    a.t_d
        .total_cmp(&b.t_d)
        .then(a.t_c.total_cmp(&b.t_c))
        .then(a.t_b.total_cmp(&b.t_b))
        .then(a.t_a.total_cmp(&b.t_a))
}

/// Sorts by time — `t_d`, then `t_c`, `t_b`, `t_a`, each by
/// `f64::total_cmp` — and removes duplicates in place. Input already
/// strictly in that order, as a search generates it, is left as it is after
/// one pass that says so: `total_cmp` tells two pairs apart unless they are
/// the same bits, so a strictly ascending list holds no duplicate. Any
/// other input is sorted and deduplicated; the check stops at the first
/// pair that is not above the one before.
///
/// Public because this is the determinism contract distributed execution
/// relies on: every per-sensor result list is in this canonical order, so
/// a shard union only has to concatenate lists in sensor order to be
/// byte-identical to single-process execution ([`merge_sharded`]).
pub fn sort_dedup(results: &mut Vec<SegmentPair>) {
    // `t_d` settles almost every comparison, so it is compared alone
    // first: a long ascending run costs one compare a pair.
    let ascending = results.is_sorted_by(|a, b| match a.t_d.total_cmp(&b.t_d) {
        std::cmp::Ordering::Equal => canonical_order(a, b).is_lt(),
        first => first.is_lt(),
    });
    if ascending {
        return;
    }
    results.sort_by(canonical_order);
    results.dedup_by_key(|p| p.key());
}

/// Merges per-sensor result lists gathered from shards into the exact
/// flat list a single process produces.
///
/// Each element is `(global sensor id, that sensor's results)` where the
/// per-sensor list is already in [`sort_dedup`] order (queries always
/// return it that way). The single-process transect fan-out flattens
/// per-sensor lists in ascending sensor order, so the distributed union
/// is lossless and deterministic: sort the parts by sensor id and
/// concatenate. Duplicate sensor ids are a routing bug; the later part
/// wins deterministically (stable sort, last occurrence kept) rather
/// than double-counting.
pub fn merge_sharded(mut parts: ShardResults) -> Vec<SegmentPair> {
    parts.sort_by_key(|(id, _)| *id);
    parts.dedup_by(|later, earlier| {
        if later.0 == earlier.0 {
            earlier.1 = std::mem::take(&mut later.1);
            true
        } else {
            false
        }
    });
    let total = parts.iter().map(|(_, r)| r.len()).sum();
    let mut merged = Vec::with_capacity(total);
    for (_, mut results) in parts {
        merged.append(&mut results);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(t: f64) -> SegmentPair {
        SegmentPair {
            t_d: t,
            t_c: t + 1.0,
            t_b: t + 2.0,
            t_a: t + 3.0,
        }
    }

    #[test]
    fn covers_inclusive() {
        let p = SegmentPair {
            t_d: 0.0,
            t_c: 10.0,
            t_b: 20.0,
            t_a: 30.0,
        };
        assert!(p.covers(0.0, 30.0));
        assert!(p.covers(10.0, 20.0));
        assert!(!p.covers(11.0, 25.0));
        assert!(!p.covers(5.0, 31.0));
    }

    #[test]
    fn self_pair_detection() {
        let s = SegmentPair {
            t_d: 5.0,
            t_c: 9.0,
            t_b: 5.0,
            t_a: 9.0,
        };
        assert!(s.is_self_pair());
        let c = SegmentPair {
            t_d: 0.0,
            t_c: 5.0,
            t_b: 5.0,
            t_a: 9.0,
        };
        assert!(!c.is_self_pair());
    }

    #[test]
    fn merge_sharded_orders_by_sensor_id() {
        // Parts arrive in arbitrary shard order; the merge is the
        // sensor-ascending concatenation.
        let parts = vec![
            (7u32, vec![pair(70.0)]),
            (0u32, vec![pair(0.0), pair(1.0)]),
            (3u32, vec![]),
            (4u32, vec![pair(40.0)]),
        ];
        let merged = merge_sharded(parts);
        assert_eq!(merged, vec![pair(0.0), pair(1.0), pair(40.0), pair(70.0)]);
    }

    #[test]
    fn merge_sharded_drops_duplicate_sensors() {
        let parts = vec![
            (2u32, vec![pair(1.0)]),
            (2u32, vec![pair(9.0)]),
            (5u32, vec![pair(5.0)]),
        ];
        let merged = merge_sharded(parts);
        assert_eq!(merged, vec![pair(9.0), pair(5.0)]);
    }

    /// The plain sort and dedup, with no sorted-prefix check: the reference.
    fn sort_dedup_plain(results: &mut Vec<SegmentPair>) {
        results.sort_by(canonical_order);
        results.dedup_by_key(|p| p.key());
    }

    fn assert_same_as_plain(input: &[SegmentPair], what: &str) {
        let (mut got, mut want) = (input.to_vec(), input.to_vec());
        sort_dedup(&mut got);
        sort_dedup_plain(&mut want);
        let bits = |v: &[SegmentPair]| v.iter().map(SegmentPair::key).collect::<Vec<_>>();
        assert!(bits(&got) == bits(&want), "{what}, n = {}", input.len());
    }

    #[test]
    fn sort_dedup_equals_the_plain_sort_on_every_shape_of_input() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1808);
        // Pairs as a query yields them: `ties` later segments per earlier
        // one, so `t_d` repeats and `t_b` tells the repeats apart.
        let mut tied = |n: usize, t0: f64, span: f64, ties: usize| -> Vec<SegmentPair> {
            (0..n)
                .map(|_| {
                    let t_d = t0 + (rng.random_range(0.0..span) / 300.0).floor() * 300.0;
                    let t_b = t_d + 300.0 * rng.random_range(0..ties) as f64;
                    SegmentPair {
                        t_d,
                        t_c: t_d + 600.0,
                        t_b,
                        t_a: t_b + 900.0,
                    }
                })
                .collect()
        };
        // Short, around 64, and long.
        let lens = (0..4).chain(61..68);
        for n in lens.chain([200, 1200, 5000]) {
            let random = tied(n, 0.0, 2.6e6, 11);
            assert_same_as_plain(&random, "random");
            let mut sorted = random.clone();
            sort_dedup_plain(&mut sorted);
            assert_same_as_plain(&sorted, "already sorted");
            sorted.reverse();
            assert_same_as_plain(&sorted, "reversed");
            assert_same_as_plain(&tied(n, 7200.0, 1.0, 40), "one t_d");
            let mut clusters = tied(n / 2, 0.0, 3000.0, 5);
            clusters.extend(tied(n - n / 2, 1e9, 3000.0, 5));
            assert_same_as_plain(&clusters, "two clusters");
            assert_same_as_plain(&tied(n, -2.6e6, 2.6e6, 11), "negative times");
            assert_same_as_plain(&tied(n, -3000.0, 6000.0, 3), "around zero");
            let mut dups = tied(n / 3 + 1, 0.0, 9e4, 4);
            dups.extend(dups.clone());
            dups.extend(dups.clone());
            dups.truncate(n);
            assert_same_as_plain(&dups, "duplicates");
            // In order and still holding duplicates: not strictly
            // ascending, so the check must not return early.
            dups.sort_by(canonical_order);
            assert_same_as_plain(&dups, "sorted duplicates");
            // Strictly ascending, which returns after the check, and the
            // same with one pair repeated beside itself — first, in the
            // middle, last — which must take the sort-and-dedup branch.
            let mut strict = tied(n, 0.0, 2.6e6, 11);
            sort_dedup_plain(&mut strict);
            assert_same_as_plain(&strict, "strictly ascending");
            for at in [0, strict.len() / 2, strict.len().saturating_sub(1)] {
                if let Some(&p) = strict.get(at) {
                    let mut twice = strict.clone();
                    twice.insert(at, p);
                    assert_same_as_plain(&twice, "ascending, one pair twice");
                }
            }
            // One far outlier.
            let mut skewed = tied(n, 0.0, 9e4, 11);
            if let Some(p) = skewed.first_mut() {
                p.t_d = 1e18;
            }
            assert_same_as_plain(&skewed, "skewed");
            // Zeros of both signs, which total_cmp tells apart and `==`
            // does not, in every field.
            let zeros: Vec<SegmentPair> = (0..n)
                .map(|i| {
                    let z = |bit: usize| if i >> bit & 1 == 0 { 0.0 } else { -0.0 };
                    SegmentPair {
                        t_d: if i % 5 == 4 {
                            (i % 7) as f64 - 3.0
                        } else {
                            z(0)
                        },
                        t_c: z(1),
                        t_b: z(2),
                        t_a: z(3),
                    }
                })
                .collect();
            assert_same_as_plain(&zeros, "signed zeros");
            // The same in order: `-0.0` before `0.0` is sorted, and two
            // such pairs are not duplicates.
            let mut zeros = zeros;
            zeros.sort_by(canonical_order);
            assert_same_as_plain(&zeros, "sorted signed zeros");
            // A spread that overflows, or a `t_d` that is not a number
            // at all.
            for odd in [
                f64::MAX,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
            ] {
                let mut v = tied(n, -1e300, 1e5, 11);
                if let Some(p) = v.last_mut() {
                    p.t_d = odd;
                }
                assert_same_as_plain(&v, "non-finite spread");
            }
        }
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let a = SegmentPair {
            t_d: 0.0,
            t_c: 1.0,
            t_b: 2.0,
            t_a: 3.0,
        };
        let b = SegmentPair {
            t_d: 0.0,
            t_c: 1.0,
            t_b: 4.0,
            t_a: 5.0,
        };
        let mut v = vec![b, a, a, b, a];
        sort_dedup(&mut v);
        assert_eq!(v, vec![a, b]);
    }
}
