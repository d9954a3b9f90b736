//! The buffer pool's accounting, checked to the count. Alone in its own
//! test binary because the `pool.*` registry counters are process-wide:
//! beside other tests only lower bounds could be asserted.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::page::PageBuf;
use pagestore::{BufferPool, PageFile, PoolStats};
use std::sync::Mutex;

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

/// Held by every test here: one test's pool traffic would move the
/// registry counters another one checks to the count.
static REGISTRY: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pagestore-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn deltas_are_exact_and_the_registry_mirrors_the_pools() {
    let _registry = REGISTRY.lock().unwrap();
    let dir = tmpdir("poolcount");
    let registry_before = obs::global().snapshot();

    // A pool larger than the file: every access after the first is a hit
    // on the frame-lock-only path, whichever of the three calls makes it.
    let roomy = BufferPool::new(1024);
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
    let tight = BufferPool::new(8);
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

    // The registry mirrors: each `pool.*` counter moved by what the two
    // pools counted themselves.
    let moved = obs::global().snapshot().delta(&registry_before);
    let own = roomy.stats().merged(&tight.stats());
    for (name, own) in COUNTERS.iter().zip(fields(&own)) {
        let name = format!("pool.{name}");
        assert_eq!(
            moved.counters.get(&name).copied().unwrap_or(0),
            own,
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pool_of_c_pages_holds_any_c_pages() {
    // Sixteen pages eight apart in a pool of 64: all of them fit, so the
    // second pass over them is all hits, whatever their ids hash to.
    let _registry = REGISTRY.lock().unwrap();
    let dir = tmpdir("poolstride");
    let pool = BufferPool::new(64);
    let fid = pool.register_file(PageFile::create(&pagestore::OsVfs, &dir.join("file")).unwrap());
    for _ in 0..128 {
        pool.allocate_page(fid).unwrap();
    }
    pool.clear_cache().unwrap();
    let mut passes = Vec::new();
    for _ in 0..2 {
        let before = pool.stats();
        for pid in (0..128).step_by(8) {
            pool.with_page(fid, pid, |_| ()).unwrap();
        }
        passes.push(pool.stats().since(&before));
    }
    assert_eq!(
        passes.iter().map(fields).collect::<Vec<_>>(),
        [[0, 16, 0, 16, 0], [16, 0, 0, 0, 0]]
    );
    std::fs::remove_dir_all(&dir).ok();
}
