//! The buffer pool's accounting, checked to the count. Alone in its own
//! test binary because the `pool.*` registry counters are process-wide:
//! beside other tests only lower bounds could be asserted.

use pagestore::page::PageBuf;
use pagestore::{BufferPool, PageFile, PoolStats};

const COUNTERS: [&str; 5] = [
    "hits",
    "misses",
    "evictions",
    "physical_reads",
    "physical_writes",
];

fn fields(s: &PoolStats) -> [u64; 5] {
    [
        s.hits,
        s.misses,
        s.evictions,
        s.physical_reads,
        s.physical_writes,
    ]
}

#[test]
fn shard_counters_tile_the_pool_counters_and_deltas_are_exact() {
    let dir = std::env::temp_dir().join(format!("pagestore-poolcount-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let registry_before = obs::global().snapshot();

    // A pool larger than the file: every access after the first is a hit
    // on the shard-lock-only path, whichever of the three calls makes it.
    let roomy = BufferPool::with_shards(1024, 8);
    let fid = roomy.register_file(PageFile::create(&pagestore::OsVfs, &dir.join("roomy")).unwrap());
    let pids: Vec<u32> = (0..100)
        .map(|_| roomy.allocate_page(fid).unwrap())
        .collect();
    let before = roomy.stats();
    let mut copy = PageBuf::zeroed();
    for &pid in &pids {
        roomy.with_page_mut(fid, pid, |b| b[0] = pid as u8).unwrap();
        assert_eq!(roomy.with_page(fid, pid, |b| b[0]).unwrap(), pid as u8);
        roomy.read_page_into(fid, pid, &mut copy).unwrap();
        assert_eq!(copy.bytes()[0], pid as u8);
    }
    let warm = roomy.stats().since(&before);
    assert_eq!(fields(&warm), [300, 0, 0, 0, 0]);
    // Cold: one miss and one physical read per page, then hits again.
    roomy.clear_cache().unwrap();
    let before = roomy.stats();
    for round in 0..2 {
        for &pid in &pids {
            assert_eq!(roomy.with_page(fid, pid, |b| b[0]).unwrap(), pid as u8);
        }
        let delta = roomy.stats().since(&before);
        assert_eq!(fields(&delta), [100 * round, 100, 0, 100, 0]);
    }

    // A pool a quarter of the file, cycled through in order: the clock
    // evicts every page before its turn comes round again, so every access
    // takes the miss path; the first round also writes the dirty victims.
    let tight = BufferPool::with_shards(8, 1);
    let fid = tight.register_file(PageFile::create(&pagestore::OsVfs, &dir.join("tight")).unwrap());
    let pids: Vec<u32> = (0..32).map(|_| tight.allocate_page(fid).unwrap()).collect();
    for &pid in &pids {
        tight.with_page_mut(fid, pid, |b| b[0] = pid as u8).unwrap();
    }
    let before = tight.stats();
    for _ in 0..2 {
        for &pid in &pids {
            assert_eq!(tight.with_page(fid, pid, |b| b[0]).unwrap(), pid as u8);
        }
    }
    let cycled = tight.stats().since(&before);
    assert_eq!(fields(&cycled), [0, 64, 64, 64, 8]);

    // The registry mirrors: per counter, the shards sum to the pool, and
    // the pool moved by what the two pools counted themselves.
    let moved = obs::global().snapshot().delta(&registry_before);
    let counter = |name: String| moved.counters.get(&name).copied().unwrap_or(0);
    let own = roomy.stats().merged(&tight.stats());
    for (name, own) in COUNTERS.iter().zip(fields(&own)) {
        let shards: u64 = (0..8)
            .map(|i| counter(format!("pool.shard{i}.{name}")))
            .sum();
        assert_eq!(
            shards,
            counter(format!("pool.{name}")),
            "pool.shard*.{name}"
        );
        assert_eq!(counter(format!("pool.{name}")), own, "pool.{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
