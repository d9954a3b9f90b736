//! The work of the paper's plans over the stored rows
//! (`query_stored_rows`), beyond the boundaries generated from the sealed
//! run. The sequential scan reads every stored row of the kind unless a
//! table's whole-heap zone summary rules the region out. The index plan
//! runs one range scan per B+tree, over the entries whose leading key is
//! at most `T`, reading the tree's run and then its write buffer's: so
//! `btree.entries_scanned` moves by exactly `rows_considered −
//! generated.boundaries`, the stored rows with a tree's leading column at
//! most `T`, and the answer is the scan's. Checked for both kinds with
//! trees and write buffers both holding entries, and again after a
//! compaction and appends. Alone in its own test binary because the
//! counters are process-wide.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use segdiff::{QueryPlan, QueryRegion, SearchKind, SegDiffConfig, SegDiffIndex};
use sensorgen::{generate_sensor, CadTransectConfig, HOUR};

const TABLES: [&str; 6] = ["drop1", "drop2", "drop3", "jump1", "jump2", "jump3"];
/// Each tree, the corners of the tables it indexes, and the column of its
/// leading key (`dt1` or `dt2`).
const TREES: [(&str, usize, usize); 4] =
    [("pt1", 1, 0), ("ln1", 2, 0), ("ln1", 3, 0), ("ln2", 3, 2)];

/// Entries held by the trees and by their write buffers, over every tree.
fn entries_held(idx: &SegDiffIndex) -> (u64, u64) {
    let (mut applied, mut buffered) = (0, 0);
    for (k, table) in TABLES.iter().enumerate() {
        let table = idx.database().table(table).unwrap();
        for (tree, corners, _) in TREES {
            if corners == k % 3 + 1 {
                let index = table.index(tree).unwrap();
                let held = index.buffered() as u64;
                (applied, buffered) = (applied + index.len() - held, buffered + held);
            }
        }
    }
    (applied, buffered)
}

/// The kind's three tables.
fn tables(kind: SearchKind) -> &'static [&'static str] {
    match kind {
        SearchKind::Drop => &TABLES[..3],
        SearchKind::Jump => &TABLES[3..],
    }
}

/// Entries the kind's trees hold with a leading key at most `t`, counted
/// off the stored rows.
fn entries_up_to(idx: &SegDiffIndex, kind: SearchKind, t: f64) -> u64 {
    let mut n = 0;
    for (k, table) in tables(kind).iter().enumerate() {
        let table = idx.database().table(table).unwrap();
        let leads: Vec<usize> = TREES
            .iter()
            .filter(|&&(_, corners, _)| corners == k + 1)
            .map(|&(_, _, lead)| lead)
            .collect();
        table
            .seq_scan(|_, row| {
                n += leads.iter().filter(|&&c| row[c] <= t).count() as u64;
                true
            })
            .unwrap();
    }
    n
}

/// Rows the kind's three tables store.
fn stored(idx: &SegDiffIndex, kind: SearchKind) -> u64 {
    let rows = |t: &&str| idx.database().table(t).unwrap().num_rows();
    tables(kind).iter().map(rows).sum()
}

/// Runs both plans over the stored rows for each kind and asserts their
/// work and their answers.
fn check(idx: &SegDiffIndex, when: &str) {
    let regions = [
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -1.0),
        QueryRegion::jump(2.0 * HOUR, 2.0),
        QueryRegion::jump(8.0 * HOUR, 0.5),
    ];
    let counter = |name: &str| obs::global().counter(name).get();
    // Every zone summary admits the regions above, and every one rules
    // out a drop deeper than any in the series: no page skipped, or all.
    let nowhere = QueryRegion::drop(1.0 * HOUR, -50.0);
    for region in regions.iter().chain([&nowhere]) {
        let pruned = counter("zonemap.pages_pruned");
        let (got, stats) = idx.query_stored_rows(region, QueryPlan::SeqScan).unwrap();
        let skipped = counter("zonemap.pages_pruned") > pruned;
        assert_eq!(skipped, region == &nowhere, "{when}: {region:?}");
        let read = stats.rows_considered - stats.generated.boundaries;
        let want = if skipped { 0 } else { stored(idx, region.kind) };
        assert_eq!(read, want, "{when}: rows the scan read on {region:?}");
        assert!(!skipped || got.is_empty(), "{when}");
    }
    // Every zone summary admits these regions, so every range is read.
    let scanned = || counter("btree.entries_scanned");
    for region in &regions {
        let (want, _) = idx.query_stored_rows(region, QueryPlan::SeqScan).unwrap();
        let before = scanned();
        let (got, stats) = idx.query_stored_rows(region, QueryPlan::Index).unwrap();
        let moved = scanned() - before;
        let probed = stats.rows_considered - stats.generated.boundaries;
        assert_eq!(moved, probed, "{when}: entries scanned on {region:?}");
        let held = entries_up_to(idx, region.kind, region.t);
        assert!(held > 0, "{when}: no entry within {region:?}");
        assert_eq!(moved, held, "{when}: entries within {region:?}");
        assert!(got == want, "{when}: index plan != scan on {region:?}");
        assert!(!got.is_empty(), "{when}: {region:?} answered nothing");
    }
}

#[test]
fn the_index_plan_scans_each_tree_once_and_answers_as_the_scan() {
    let dir = std::env::temp_dir().join(format!("segdiff-index-work-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = SegDiffConfig::default().with_durable(false);
    let mut idx = SegDiffIndex::create(&dir, config).unwrap();
    idx.build_indexes().unwrap();
    let series = generate_sensor(&CadTransectConfig::default().with_days(10).clean(), 0, 3);
    let eight_days = series.len() * 4 / 5;
    let mut samples = series.iter();
    for (t, v) in samples.by_ref().take(eight_days) {
        idx.push(t, v).unwrap();
    }
    let (applied, buffered) = entries_held(&idx);
    assert!(
        applied > 0 && buffered > 0,
        "{applied} applied, {buffered} buffered"
    );
    check(&idx, "before compaction");

    idx.compact_storage().unwrap();
    for (t, v) in samples {
        idx.push(t, v).unwrap();
    }
    let (_, buffered) = entries_held(&idx);
    assert!(buffered > 0, "nothing appended behind the seal");
    check(&idx, "after compaction and appends");
    std::fs::remove_dir_all(&dir).ok();
}
