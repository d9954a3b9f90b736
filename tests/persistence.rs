//! Durability: indexes survive process restarts (reopen) and ingestion
//! resumes across the restart without losing events near the boundary.

use segdiff_repro::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("segdiff-persist-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn walk(n: usize, seed: u64) -> TimeSeries {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = 5.0;
    (0..n)
        .map(|i| {
            v += (rng.random::<f64>() - 0.5) * 2.0;
            (i as f64 * 300.0, v)
        })
        .collect()
}

#[test]
fn segdiff_reopen_answers_identically() {
    let dir = tmpdir("seg-reopen");
    let series = walk(500, 3);
    let region = QueryRegion::drop(1.0 * HOUR, -1.5);
    let before = {
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&series).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        idx.query(&region, QueryPlan::SeqScan).unwrap().0
    };
    let idx = SegDiffIndex::open(&dir, 1024).unwrap();
    let (scan, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
    let (indexed, _) = idx.query(&region, QueryPlan::Index).unwrap();
    assert_eq!(before, scan);
    assert_eq!(before, indexed);
    // Stats (histograms, counts) survive too.
    let s = idx.stats();
    assert_eq!(s.n_observations, 500);
    assert!(s.n_segments > 0);
    assert_eq!(s.corner_hist().total(), s.n_rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn segdiff_resumed_ingest_preserves_completeness() {
    // Ingest the first half, finish, reopen, ingest the second half.
    // Theorem 1's completeness must hold over the whole series, including
    // events that straddle the restart.
    let dir = tmpdir("seg-resume");
    let series = walk(600, 17);
    let half = series.len() / 2;
    {
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        for i in 0..half {
            let (t, v) = series.get(i);
            idx.push(t, v).unwrap();
        }
        idx.finish().unwrap();
    }
    let mut idx = SegDiffIndex::open(&dir, 1024).unwrap();
    for i in half..series.len() {
        let (t, v) = series.get(i);
        idx.push(t, v).unwrap();
    }
    idx.finish().unwrap();

    let region = QueryRegion::drop(1.0 * HOUR, -1.5);
    let events = oracle::true_events(&series, &region);
    assert!(!events.is_empty());
    let (results, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
    assert_eq!(
        oracle::find_missed_event(&events, &results),
        None,
        "an event was lost across the restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn buffered_index_entries_survive_finish_reopen_and_resume() {
    // `finish` persists the B+trees as they are: rows not yet merged
    // into a tree sit in its write buffer, which is not stored — the
    // reopened index derives it from the heap again. Both plans must see
    // every row before the restart, after it, and after pushing on.
    let dir = tmpdir("seg-buffers");
    let series = walk(1500, 29);
    let (first, rest) = (900, 1500);
    let searches = [
        QueryRegion::drop(1.0 * HOUR, -1.5),
        QueryRegion::jump(4.0 * HOUR, 2.0),
    ];
    let buffered = |idx: &SegDiffIndex| -> usize {
        let db = idx.database();
        let tables = db.table_names().into_iter().map(|t| db.table(&t).unwrap());
        tables
            .flat_map(|t| {
                t.index_names()
                    .into_iter()
                    .map(move |i| t.index(&i).unwrap())
            })
            .map(|tree| tree.buffered())
            .sum()
    };
    let plans_agree = |idx: &SegDiffIndex, when: &str| {
        searches.map(|region| {
            let (scan, _) = idx.query(&region, QueryPlan::SeqScan).unwrap();
            let (indexed, _) = idx.query(&region, QueryPlan::Index).unwrap();
            assert_eq!(scan, indexed, "{when}: {region:?}");
            assert!(!scan.is_empty(), "{when}: {region:?} found nothing");
            scan
        })
    };
    let (before, buffered_before) = {
        let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
        idx.build_indexes().unwrap();
        for i in 0..first {
            let (t, v) = series.get(i);
            idx.push(t, v).unwrap();
        }
        idx.finish().unwrap();
        (plans_agree(&idx, "before the restart"), buffered(&idx))
    };
    assert!(buffered_before > 1000, "{buffered_before} entries buffered");

    let mut idx = SegDiffIndex::open(&dir, 1024).unwrap();
    assert!(idx.recovery_report().unwrap().clean);
    assert_eq!(buffered(&idx), buffered_before, "buffers derived on open");
    assert_eq!(plans_agree(&idx, "after the restart"), before);
    for i in first..rest {
        let (t, v) = series.get(i);
        idx.push(t, v).unwrap();
    }
    idx.finish().unwrap();
    idx.verify_consistency().unwrap();
    let after = plans_agree(&idx, "after pushing on");
    assert!(after[0].len() > before[0].len(), "the new rows are found");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exh_reopen_and_resume() {
    let dir = tmpdir("exh-resume");
    let series = walk(400, 5);
    let half = series.len() / 2;
    {
        let mut exh = ExhIndex::create(&dir, 4.0 * HOUR, 512).unwrap();
        for i in 0..half {
            let (t, v) = series.get(i);
            exh.push(t, v).unwrap();
        }
        exh.finish().unwrap();
    }
    let mut exh = ExhIndex::open(&dir, 512).unwrap();
    for i in half..series.len() {
        let (t, v) = series.get(i);
        exh.push(t, v).unwrap();
    }
    exh.finish().unwrap();

    // Exh must remain *exactly* the brute force — including the pairs that
    // straddle the restart, which the persisted window tail provides.
    let region = QueryRegion::drop(1.0 * HOUR, -1.0);
    let want = oracle::true_events(&series, &region);
    let (events, _) = exh.query(&region, QueryPlan::SeqScan).unwrap();
    assert_eq!(events.len(), want.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_missing_directory_fails_cleanly() {
    let dir = tmpdir("nope");
    assert!(SegDiffIndex::open(&dir, 128).is_err());
    assert!(ExhIndex::open(&dir, 128).is_err());
}

mod torn_tails {
    use super::*;
    use proptest::prelude::*;
    use segdiff_repro::pagestore::StoreError;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A crash can tear the last page of any file: the tail of the WAL
        /// or of a heap file may come back truncated or garbled. Whatever
        /// the damage, reopening must either succeed with a consistent
        /// prefix (verified by replay) or fail with a *typed* error —
        /// never panic, never return silently wrong data.
        #[test]
        fn torn_tails_recover_or_fail_typed(
            seed in 0u64..1_000,
            damage in 1usize..3_000,
            which in 0usize..8,
        ) {
            let dir = tmpdir(&format!("torn-{seed}-{damage}-{which}"));
            let series = walk(250, seed);
            {
                let mut idx = SegDiffIndex::create(
                    &dir,
                    SegDiffConfig::default().with_sync(false).with_pool_pages(256),
                )
                .unwrap();
                idx.ingest_series(&series).unwrap();
                // Simulated crash: no finish(), dirty pages die with the
                // pool; only the WAL and evicted pages are on disk.
            }
            // Damage the tail of the WAL or of one heap file.
            let mut victims: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.extension().is_some_and(|x| x == "tbl")
                        || p.file_name().is_some_and(|n| n == "wal.log")
                })
                .collect();
            victims.sort();
            let victim = &victims[which % victims.len()];
            let len = std::fs::metadata(victim).unwrap().len();
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(victim)
                .unwrap();
            if which & 4 == 0 {
                file.set_len(len.saturating_sub(damage as u64)).unwrap();
            } else {
                use std::io::{Seek, SeekFrom, Write};
                let mut file = file;
                let n = (damage as u64).min(len);
                file.seek(SeekFrom::Start(len - n)).unwrap();
                file.write_all(&vec![0xA5u8; n as usize]).unwrap();
            }
            match SegDiffIndex::open(&dir, 256) {
                Ok(idx) => {
                    // Whatever survived must be a consistent prefix that
                    // still answers queries.
                    idx.verify_consistency().unwrap();
                    let region = QueryRegion::drop(1.0 * HOUR, -1.5);
                    idx.query(&region, QueryPlan::SeqScan).unwrap();
                }
                Err(StoreError::Corrupt(_)) | Err(StoreError::NotFound(_)) => {}
                Err(e) => panic!("unexpected error kind: {e}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
