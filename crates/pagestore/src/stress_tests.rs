//! Concurrency stress tests: many reader threads over one shared pool.
//!
//! These tests exist to catch two classes of bug a shared buffer pool
//! could introduce: `PoolStats` miscounting (a hit or miss dropped or
//! double-counted when threads race) and eviction races (a frame evicted
//! by one thread while another still believes it holds the page).
//! They drive real B+tree range probes and heap fetches — the same access
//! pattern a concurrent query service produces.

use crate::db::{Database, TableSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pagestore-stress-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Builds a table big enough that a small pool must evict constantly:
/// rows are `(k, k*2, k*3)` with an index on the first column, so every
/// probe's results are self-checking.
fn build_db(dir: &Path, rows: u64, pool_pages: usize) -> Arc<Database> {
    let db = Database::create(dir, pool_pages).unwrap();
    let t = db
        .create_table(TableSpec::new("stress", &["k", "a", "b"]))
        .unwrap();
    for k in 0..rows {
        t.insert(&[k as f64, (k * 2) as f64, (k * 3) as f64])
            .unwrap();
    }
    db.create_index("stress", "by_k", &["k"]).unwrap();
    db.flush().unwrap();
    db
}

/// N reader threads doing B+tree range probes plus heap fetches over one
/// shared pool. Every fetched row is validated against its key, which
/// fails loudly if an eviction race ever hands a thread the wrong page
/// image; afterwards the pool counters must obey the conservation laws.
#[test]
fn concurrent_probes_and_fetches_over_shared_pool() {
    let dir = tmpdir("probes");
    let rows: u64 = 20_000;
    // A pool far smaller than the data set, so eviction is constant.
    let db = build_db(&dir, rows, 64);
    let t = db.table("stress").unwrap();
    db.clear_cache().unwrap();
    db.pool().reset_stats();

    let threads = 8;
    let probes_per_thread = 60;
    std::thread::scope(|s| {
        for ti in 0..threads {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for p in 0..probes_per_thread {
                    // Spread the probe windows so threads overlap but do
                    // not all walk the same leaves in lockstep.
                    let lo = ((ti * 131 + p * 977) as u64 * 37) % (rows - 200);
                    let hi = lo + 150;
                    let mut seen = 0u64;
                    t.index_scan("by_k", &[lo as f64], &[hi as f64], |rid, cols| {
                        let k = cols[0];
                        assert!((lo as f64..=hi as f64).contains(&k), "key out of range");
                        t.fetch_many(&[rid], |_, row| {
                            assert_eq!(row[0], k, "heap row disagrees with index key");
                            assert_eq!(row[1], k * 2.0, "corrupt column a for k={k}");
                            assert_eq!(row[2], k * 3.0, "corrupt column b for k={k}");
                            true
                        })
                        .unwrap();
                        seen += 1;
                        true
                    })
                    .unwrap();
                    assert_eq!(seen, 151, "range [{lo}, {hi}] returned {seen} rows");
                }
            });
        }
    });

    let s = db.stats();
    // Conservation: this workload only reads, and every miss does exactly
    // one physical read. A lost or double-counted increment breaks these.
    assert_eq!(s.physical_reads, s.misses, "{s:?}");
    assert_eq!(
        s.physical_writes, 0,
        "read-only workload wrote pages: {s:?}"
    );
    assert!(s.hits > 0 && s.misses > 0, "{s:?}");
    assert!(s.evictions > 0, "pool never evicted; enlarge the workload");
    std::fs::remove_dir_all(&dir).ok();
}

/// Pool counter deltas must stay exact when queries run concurrently:
/// the test brackets the whole concurrent phase and checks that its delta
/// obeys hit/miss accounting under contention.
#[test]
fn counter_deltas_stay_exact_under_concurrency() {
    let dir = tmpdir("deltas");
    let rows: u64 = 8_000;
    let db = build_db(&dir, rows, 256);
    let t = db.table("stress").unwrap();
    db.clear_cache().unwrap();

    let before = db.stats();
    let threads = 6;
    let total_requests: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let mut requests = 0u64;
                    for p in 0..40u64 {
                        let lo = ((ti as u64 * 997 + p * 613) * 11) % (rows - 100);
                        t.index_scan("by_k", &[lo as f64], &[(lo + 99) as f64], |_, _| {
                            requests += 1;
                            true
                        })
                        .unwrap();
                    }
                    requests
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(total_requests, threads as u64 * 40 * 100);

    let after = db.stats();
    let delta = after.since(&before);
    // Logical requests are hits + misses; nothing may be lost when six
    // threads hammer the counters concurrently.
    assert!(delta.hits + delta.misses > 0);
    assert_eq!(delta.physical_reads, delta.misses, "{delta:?}");
    assert_eq!(
        delta.physical_writes, 0,
        "read-only workload wrote pages: {delta:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Readers race against concurrent eviction pressure from a writer that
/// keeps allocating and dirtying fresh pages in a second table. Dirty
/// eviction must never corrupt the readers' view.
#[test]
fn readers_survive_dirty_eviction_pressure() {
    let dir = tmpdir("dirty");
    let rows: u64 = 4_000;
    let db = build_db(&dir, rows, 32);
    let spill = db
        .create_table(TableSpec::new("spill", &["x", "y"]))
        .unwrap();
    let t = db.table("stress").unwrap();
    db.clear_cache().unwrap();

    std::thread::scope(|s| {
        // Writer: constant dirty-page churn through the same small pool.
        let spill = Arc::clone(&spill);
        s.spawn(move || {
            for i in 0..4_000u64 {
                spill.insert(&[i as f64, (i ^ 0xff) as f64]).unwrap();
            }
        });
        for ti in 0..4 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for p in 0..30u64 {
                    let lo = ((ti as u64 * 389 + p * 211) * 7) % (rows - 64);
                    t.index_scan("by_k", &[lo as f64], &[(lo + 63) as f64], |rid, cols| {
                        t.fetch_many(&[rid], |_, row| {
                            assert_eq!(row[0], cols[0]);
                            assert_eq!(row[1], cols[0] * 2.0);
                            true
                        })
                        .unwrap();
                        true
                    })
                    .unwrap();
                }
            });
        }
    });

    assert_eq!(spill.num_rows(), 4_000);
    let s = db.stats();
    assert!(s.evictions > 0, "no eviction pressure: {s:?}");
    assert!(s.physical_writes > 0, "dirty pages never hit the disk");
    std::fs::remove_dir_all(&dir).ok();
}
