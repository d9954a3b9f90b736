//! No serving path reads a feature row or a tree: on a store never
//! compacted, with all eight trees a sensor built, a search on either plan
//! — through `query`, `query_cached` and a transect's fan-out — generates
//! its answer from the segments, held decoded after the first search, and
//! asks the pool for no page, so no feature heap page and no tree page.
//! The tree probe's `btree.entries_scanned` does not move (the whole-heap
//! zone summary of `segments` may still prune, and count its pages in
//! `zonemap.pages_pruned`), and the answers are the stored-row plans'.
//! Alone in its own test binary because the counter is process-wide.

use segdiff::{QueryPlan, QueryRegion, SegDiffConfig, TransectIndex};
use sensorgen::{generate_sensor, CadTransectConfig, HOUR};

#[test]
fn searches_read_no_feature_page_and_no_tree() {
    let root = std::env::temp_dir().join(format!("segdiff-serving-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let config = SegDiffConfig::default().with_durable(false);
    let mut transect = TransectIndex::create(&root, config, 2).unwrap();
    for k in 0..2 {
        let series = generate_sensor(&CadTransectConfig::default().with_days(6).clean(), k, 5);
        transect.ingest_series(k, &series).unwrap();
    }
    transect.finish_all().unwrap();
    transect.build_indexes_all().unwrap();
    let regions = [
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -1.0),
        QueryRegion::drop(1.0 * HOUR, -30.0),
        QueryRegion::jump(2.0 * HOUR, 2.0),
    ];
    let plans = [QueryPlan::SeqScan, QueryPlan::Index];

    // The first search of each sensor decodes its segments, and only them.
    for sensor in transect.indexes() {
        let (_, stats) = sensor.query(&regions[0], QueryPlan::SeqScan).unwrap();
        let segments = sensor.stats().n_segments;
        assert_eq!(stats.generated.rows_decoded, segments);
    }

    let counter = |name: &str| obs::global().counter(name).get();
    let entries = || counter("btree.entries_scanned");
    let before = entries();
    let mut answered = 0;
    for region in &regions {
        for plan in plans {
            for sensor in transect.indexes() {
                let (want, _) = sensor.query_stored_rows(region, plan).unwrap();
                let probed = entries();
                let (got, stats) = sensor.query(region, plan).unwrap();
                assert!(got == want, "{plan:?} on {region:?}");
                assert_eq!(stats.io, Default::default(), "{plan:?} read a page");
                assert_eq!(stats.generated.rows_decoded, 0);
                let (cached, stats, hit) = sensor.query_cached(region, plan).unwrap();
                assert!(!hit && *cached == want, "{plan:?} through the cache");
                assert_eq!(stats.io, Default::default(), "{plan:?} read a page");
                assert_eq!(entries(), probed, "{plan:?} on {region:?}");
                answered += got.len();
            }
            let probed = entries();
            let (_, stats) = transect.query_all_with_threads(region, plan, 2).unwrap();
            assert_eq!(stats.io, Default::default(), "{plan:?} fanned out");
            assert_eq!(entries(), probed, "{plan:?} fanned out");
        }
    }
    assert!(answered > 0, "every region answered nothing");
    // The stored-row plans probed the trees; the searches did not.
    assert!(entries() > before, "no tree was probed");
    std::fs::remove_dir_all(&root).ok();
}
