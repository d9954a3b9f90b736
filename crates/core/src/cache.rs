//! Epoch-tagged LRU cache of query results.
//!
//! A serving workload repeats a small set of hot queries, so generating
//! each one's rows again from the resident `segments` run is pure waste.
//! The cache keys results by the *normalized* query parameters plus the
//! index **epoch** — a counter the index bumps on every ingest mutation
//! and on `build_indexes`. Because the epoch is part of the key, a result
//! cached before a re-ingest can never be returned afterwards: the new
//! epoch simply misses, and the stale entry ages out through LRU. No
//! invalidation broadcast is needed, which keeps the read path a single
//! short critical section.

use crate::query::QueryPlan;
use crate::result::SegmentPair;
use featurespace::{QueryRegion, SearchKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: search kind, thresholds (bit-normalized), plan and epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    kind: u8,
    v_bits: u64,
    t_bits: u64,
    plan: QueryPlan,
    epoch: u64,
}

impl CacheKey {
    /// Builds the key for a query. Thresholds are normalized before
    /// hashing (`-0.0` folds onto `+0.0`) so textually different but
    /// semantically identical requests share an entry.
    pub fn new(region: &QueryRegion, plan: QueryPlan, epoch: u64) -> Self {
        CacheKey {
            kind: match region.kind {
                SearchKind::Drop => 0,
                SearchKind::Jump => 1,
            },
            v_bits: (region.v + 0.0).to_bits(),
            t_bits: (region.t + 0.0).to_bits(),
            plan,
            epoch,
        }
    }
}

struct Entry {
    results: Arc<Vec<SegmentPair>>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    /// Monotonic use-stamp; the entry with the smallest stamp is the LRU
    /// victim. Capacity is small, so eviction scans the map directly.
    seq: u64,
}

/// Global-registry counters for the cache (`cache.*`), shared by every
/// cache in the process.
struct CacheMetrics {
    hit: Arc<obs::Counter>,
    miss: Arc<obs::Counter>,
    insert: Arc<obs::Counter>,
    evict: Arc<obs::Counter>,
}

impl CacheMetrics {
    fn new() -> Self {
        let r = obs::global();
        CacheMetrics {
            hit: r.counter("cache.hit"),
            miss: r.counter("cache.miss"),
            insert: r.counter("cache.insert"),
            evict: r.counter("cache.evict"),
        }
    }
}

/// An LRU-bounded, epoch-tagged map from query parameters to results.
///
/// Results are held behind `Arc`, so a hit costs one clone of a pointer
/// — the segment pairs themselves are shared, never copied.
pub struct QueryCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    metrics: CacheMetrics,
}

impl QueryCache {
    /// Creates a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                seq: 0,
            }),
            capacity: capacity.max(1),
            metrics: CacheMetrics::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<SegmentPair>>> {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.seq += 1;
        let seq = g.seq;
        match g.map.get_mut(key) {
            Some(e) => {
                e.last_used = seq;
                self.metrics.hit.inc();
                Some(Arc::clone(&e.results))
            }
            None => {
                self.metrics.miss.inc();
                None
            }
        }
    }

    /// Inserts a result set, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn insert(&self, key: CacheKey, results: Arc<Vec<SegmentPair>>) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.seq += 1;
        let seq = g.seq;
        if !g.map.contains_key(&key) && g.map.len() >= self.capacity {
            if let Some(victim) = g
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                g.map.remove(&victim);
                self.metrics.evict.inc();
            }
        }
        g.map.insert(
            key,
            Entry {
                results,
                last_used: seq,
            },
        );
        self.metrics.insert.inc();
    }

    /// Drops every entry (used when the index epoch advances, so stale
    /// results stop occupying space; correctness never depends on this
    /// because the epoch is part of the key).
    pub fn clear(&self) {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        g.map.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: f64, t: f64, epoch: u64) -> CacheKey {
        CacheKey::new(&QueryRegion::drop(t, v), QueryPlan::Index, epoch)
    }

    fn results(n: usize) -> Arc<Vec<SegmentPair>> {
        Arc::new(
            (0..n)
                .map(|i| SegmentPair {
                    t_d: i as f64,
                    t_c: i as f64 + 1.0,
                    t_b: i as f64 + 2.0,
                    t_a: i as f64 + 3.0,
                })
                .collect(),
        )
    }

    #[test]
    fn hit_after_insert() {
        let c = QueryCache::new(8);
        let k = key(-3.0, 3600.0, 1);
        assert!(c.get(&k).is_none());
        c.insert(k, results(2));
        let r = c.get(&k).expect("hit");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn epoch_partitions_entries() {
        let c = QueryCache::new(8);
        c.insert(key(-3.0, 3600.0, 1), results(5));
        // Same query at a later epoch must miss: results cached before a
        // re-ingest are unreachable afterwards.
        assert!(c.get(&key(-3.0, 3600.0, 2)).is_none());
        assert!(c.get(&key(-3.0, 3600.0, 1)).is_some());
    }

    #[test]
    fn negative_zero_normalizes() {
        // The checked constructors reject V = 0, so build the regions
        // literally: the point is that bit-distinct but numerically equal
        // parameters share one cache entry.
        let neg = QueryRegion {
            kind: SearchKind::Drop,
            t: 3600.0,
            v: -0.0,
        };
        let pos = QueryRegion {
            kind: SearchKind::Drop,
            t: 3600.0,
            v: 0.0,
        };
        let c = QueryCache::new(8);
        c.insert(CacheKey::new(&neg, QueryPlan::Index, 1), results(1));
        assert!(c.get(&CacheKey::new(&pos, QueryPlan::Index, 1)).is_some());
    }

    #[test]
    fn plan_and_kind_are_part_of_the_key() {
        let c = QueryCache::new(8);
        let drop_idx = CacheKey::new(&QueryRegion::drop(60.0, -1.0), QueryPlan::Index, 1);
        let drop_scan = CacheKey::new(&QueryRegion::drop(60.0, -1.0), QueryPlan::SeqScan, 1);
        // Same thresholds, different kind (constructed literally because
        // QueryRegion::jump requires V > 0).
        let jump_idx = CacheKey::new(
            &QueryRegion {
                kind: SearchKind::Jump,
                t: 60.0,
                v: -1.0,
            },
            QueryPlan::Index,
            1,
        );
        c.insert(drop_idx, results(1));
        assert!(c.get(&drop_scan).is_none());
        assert!(c.get(&jump_idx).is_none());
        assert!(c.get(&drop_idx).is_some());
    }

    #[test]
    fn lru_evicts_coldest() {
        let c = QueryCache::new(2);
        let a = key(-1.0, 60.0, 1);
        let b = key(-2.0, 60.0, 1);
        let d = key(-3.0, 60.0, 1);
        c.insert(a, results(1));
        c.insert(b, results(1));
        // Touch `a` so `b` is the LRU victim.
        assert!(c.get(&a).is_some());
        c.insert(d, results(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(&b).is_none(), "LRU entry should have been evicted");
        assert!(c.get(&a).is_some());
        assert!(c.get(&d).is_some());
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let c = QueryCache::new(2);
        let a = key(-1.0, 60.0, 1);
        let b = key(-2.0, 60.0, 1);
        c.insert(a, results(1));
        c.insert(b, results(1));
        c.insert(a, results(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&a).unwrap().len(), 3);
        assert!(c.get(&b).is_some());
    }

    #[test]
    fn clear_empties() {
        let c = QueryCache::new(4);
        c.insert(key(-1.0, 60.0, 1), results(1));
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn concurrent_mixed_access() {
        let c = Arc::new(QueryCache::new(16));
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = key(-((i % 24) as f64) - 1.0, 60.0 * (t + 1) as f64, 1);
                        if let Some(r) = c.get(&k) {
                            assert!(r.len() <= 3);
                        } else {
                            c.insert(k, results((i % 4) as usize));
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 16);
    }
}
