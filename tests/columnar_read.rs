//! The view store, end to end: answers recorded on the row store must
//! come back unchanged after a compaction — which seals `segments` into
//! compressed columnar pages and cuts every feature row of the sealed run —
//! on both plans, which generate those rows from the sealed segments, and
//! Theorem 1's completeness must hold on what they return. The B+trees are
//! emptied, a region no pair can reach is answered from zone summaries
//! alone, and rows that arrive later are stored again, under trees that
//! hold them alone.

use segdiff_repro::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("segdiff-colread-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Both plans answer a region no zone intersects from the zone summaries
/// alone: nothing comes back, no page was asked of the pool (hit or
/// miss) and none was decoded.
fn assert_answered_without_a_page(idx: &SegDiffIndex, unsatisfiable: &QueryRegion, store: &str) {
    let decoded = || obs::global().counter("colpage.pages_decoded").get();
    for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
        let before = decoded();
        let (results, stats) = idx.query(unsatisfiable, plan).unwrap();
        assert!(results.is_empty(), "{store}, {plan:?}");
        assert_eq!(
            stats.io.hits + stats.io.misses,
            0,
            "{store}, {plan:?}: pool accesses for an unsatisfiable region"
        );
        assert_eq!(decoded(), before, "{store}, {plan:?}: pages decoded");
    }
}

/// A (V, T) grid over both kinds, plus a drop nothing satisfies.
fn regions() -> Vec<QueryRegion> {
    let mut out = Vec::new();
    for hours in [1.0, 4.0] {
        for v in [-2.0, -4.0] {
            out.push(QueryRegion::drop(hours * HOUR, v));
        }
        for v in [2.0, 3.0] {
            out.push(QueryRegion::jump(hours * HOUR, v));
        }
    }
    out.push(QueryRegion::drop(1.0 * HOUR, -30.0));
    out
}

#[test]
fn columnar_pages_answer_as_the_row_store_did() {
    let cfg = CadTransectConfig::default().with_days(8).with_sensors(2);
    let regions = regions();
    let decoded = || obs::global().counter("colpage.pages_decoded").get();
    for sensor in 0..2 {
        let dir = tmpdir(&format!("s{sensor}"));
        // The last day arrives after compaction.
        let whole = generate_sensor(&cfg, sensor, 20_080_325);
        let series = whole.prefix(whole.len() * 7 / 8);
        let (recorded, row_heap_bytes, row_index_bytes) = {
            let mut idx = SegDiffIndex::create(
                &dir,
                SegDiffConfig::default()
                    .with_epsilon(0.2)
                    .with_window(8.0 * HOUR),
            )
            .unwrap();
            idx.ingest_series(&series).unwrap();
            idx.finish().unwrap();
            idx.build_indexes().unwrap();
            let recorded: Vec<Vec<SegmentPair>> = regions
                .iter()
                .map(|r| {
                    let (scan, _) = idx.query(r, QueryPlan::SeqScan).unwrap();
                    let (indexed, _) = idx.query(r, QueryPlan::Index).unwrap();
                    assert_eq!(scan, indexed, "row store: plans disagree on {r:?}");
                    scan
                })
                .collect();
            assert_answered_without_a_page(&idx, regions.last().unwrap(), "row store");
            let row_stats = idx.stats();
            idx.compact_storage().unwrap();
            (recorded, row_stats.heap_bytes, row_stats.index_bytes)
        };
        assert!(recorded.last().unwrap().is_empty(), "a 30-degree drop");
        assert!(recorded.iter().filter(|r| !r.is_empty()).count() >= 6);

        // Reopen: a compacted store stores `segments` and no feature row —
        // its six feature heaps and eight trees hold nothing and own no
        // page — and an index plan that examines the boundaries the scan
        // examines. The open decodes the sealed `segments` pages the
        // searches then read.
        let before = decoded();
        let idx = SegDiffIndex::open(&dir, 1024).unwrap();
        let stats = idx.stats();
        assert_eq!(stats.n_rows, 0, "rows of the sealed run stored");
        assert_eq!((stats.heap_bytes, stats.index_bytes), (0, 0));
        assert!(row_heap_bytes > 0 && row_index_bytes > 0);
        for (region, want) in regions.iter().zip(&recorded) {
            let (scan, scan_stats) = idx.query(region, QueryPlan::SeqScan).unwrap();
            let (indexed, index_stats) = idx.query(region, QueryPlan::Index).unwrap();
            assert_eq!(&scan, want, "view store scan diverged on {region:?}");
            assert_eq!(
                &indexed, want,
                "view store index plan diverged on {region:?}"
            );
            assert_eq!(
                index_stats.rows_considered, scan_stats.rows_considered,
                "{region:?}"
            );
            let events = oracle::true_events(&series, region);
            assert_eq!(
                oracle::find_missed_event(&events, &scan),
                None,
                "sensor {sensor}, {region:?}: {} events, {} results",
                events.len(),
                scan.len()
            );
        }
        assert!(decoded() > before, "no columnar page was decoded");
        assert_answered_without_a_page(&idx, regions.last().unwrap(), "compacted store");
        idx.verify_consistency().unwrap();
        drop(idx);

        // Ingest continues behind the sealed run: the tables hold what a
        // replay of the segments behind it extracts, before and after a
        // reopen, the searches see the new day on both plans, and the
        // trees have grown by that day's entries, not by the store's.
        let mut idx = SegDiffIndex::open(&dir, 1024).unwrap();
        for i in series.len()..whole.len() {
            let (t, v) = whole.get(i);
            idx.push(t, v).unwrap();
        }
        idx.finish().unwrap();
        idx.verify_consistency().unwrap();
        drop(idx);
        let idx = SegDiffIndex::open(&dir, 1024).unwrap();
        idx.verify_consistency().unwrap();
        let index_bytes = idx.stats().index_bytes;
        assert!(
            index_bytes < row_index_bytes / 4,
            "sensor {sensor}: {index_bytes} index bytes behind the sealed run, {row_index_bytes} of the row store"
        );
        let mut grown = 0;
        for (region, before) in regions.iter().zip(&recorded) {
            let (scan, _) = idx.query(region, QueryPlan::SeqScan).unwrap();
            let (indexed, _) = idx.query(region, QueryPlan::Index).unwrap();
            assert_eq!(
                scan, indexed,
                "after the last day: plans disagree on {region:?}"
            );
            let events = oracle::true_events(&whole, region);
            assert_eq!(
                oracle::find_missed_event(&events, &scan),
                None,
                "{region:?}"
            );
            grown += usize::from(scan.len() > before.len());
        }
        assert!(grown >= 4, "sensor {sensor}: {grown} searches found more");
        std::fs::remove_dir_all(&dir).ok();
    }
}
