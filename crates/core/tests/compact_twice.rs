//! `compact → ingest a day → compact`: a compacted store keeps no feature
//! row of its sealed run, keeps ingesting — segments on raw pages behind
//! the sealed ones, feature rows into emptied tables under the trees — and
//! the next compaction seals the new segments and cuts those rows too,
//! writing the files one compaction of the whole input writes. On one open
//! handle, every search walks every segment, sealed or not. Alone in its
//! own test binary because the `colpage.pages_written` counter is
//! process-wide.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use segdiff::{GeneratorStats, QueryPlan, QueryRegion, SegDiffConfig, SegDiffIndex, SegmentPair};
use sensorgen::{generate_sensor, CadTransectConfig, HOUR};
use std::collections::BTreeMap;
use std::path::Path;

const TABLES: [&str; 7] = [
    "drop1", "drop2", "drop3", "jump1", "jump2", "jump3", "segments",
];

/// What both plans over the stored rows answer for a handful of regions
/// (each asserted equal across the plans, and to a search on either plan,
/// on the way).
fn answers(idx: &SegDiffIndex) -> Vec<Vec<SegmentPair>> {
    let regions = [
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -1.0),
        QueryRegion::jump(2.0 * HOUR, 2.0),
        QueryRegion::jump(8.0 * HOUR, 0.5),
    ];
    let answer = |region: &QueryRegion| {
        let (scan, _) = idx.query_stored_rows(region, QueryPlan::SeqScan).unwrap();
        let (index, _) = idx.query_stored_rows(region, QueryPlan::Index).unwrap();
        assert!(
            !scan.is_empty() && scan == index,
            "plans disagree on {region:?}"
        );
        for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
            let (generated, _) = idx.query(region, plan).unwrap();
            assert!(
                generated == scan,
                "{plan:?} generated otherwise on {region:?}"
            );
        }
        scan
    };
    regions.iter().map(answer).collect()
}

/// The segments a search on `idx` walked, on both plans (the first may
/// decode rows into the resident run, the second finds them held).
fn segments_read(idx: &SegDiffIndex) -> u64 {
    let region = QueryRegion::drop(4.0 * HOUR, -1.0);
    let (_, scan) = idx.query(&region, QueryPlan::SeqScan).unwrap();
    let (_, index) = idx.query(&region, QueryPlan::Index).unwrap();
    let held = GeneratorStats {
        rows_decoded: 0,
        ..scan.generated
    };
    assert_eq!(held, index.generated);
    scan.generated.segments_read
}

/// (sealed rows, rows, entries under the trees) of each of the seven tables.
fn layout(idx: &SegDiffIndex) -> Vec<(u64, u64, Vec<u64>)> {
    let table = |name: &&str| {
        let t = idx.database().table(name).unwrap();
        let trees = t.index_names().into_iter();
        let entries = trees.map(|tree| t.index(&tree).unwrap().len()).collect();
        (t.sealed_rows(), t.num_rows(), entries)
    };
    TABLES.iter().map(table).collect()
}

/// Every file of a store but its log, which numbers its records.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name != "wal.log")
        .map(|name| (name.clone(), std::fs::read(dir.join(&name)).unwrap()))
        .collect()
}

#[test]
fn a_compacted_store_ingests_and_is_compacted_again() {
    let series = generate_sensor(&CadTransectConfig::default().with_days(6).clean(), 12, 21);
    let last_day = series.times()[series.len() * 5 / 6];
    let root = std::env::temp_dir().join(format!("segdiff-compact-twice-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (twice_dir, rows_dir) = (root.join("twice"), root.join("rows"));
    // The same series into two stores; one is compacted on the way.
    let mut twice = SegDiffIndex::create(&twice_dir, SegDiffConfig::default()).unwrap();
    let mut rows = SegDiffIndex::create(&rows_dir, SegDiffConfig::default()).unwrap();
    twice.build_indexes().unwrap();
    rows.build_indexes().unwrap();
    for (t, v) in series.iter().filter(|&(t, _)| t <= last_day) {
        twice.push(t, v).unwrap();
        rows.push(t, v).unwrap();
    }
    twice.finish().unwrap();
    rows.finish().unwrap();
    let represented = twice.stats().corner_hist().total();
    twice.compact_storage().unwrap();
    let compacted = layout(&twice);
    let (features, segments) = compacted.split_at(6);
    assert!(segments[0].0 == segments[0].1 && segments[0].0 > 0);
    for (name, (sealed, stored, trees)) in TABLES.iter().zip(features) {
        assert_eq!((sealed, stored), (&0, &0), "{name}: rows of the run kept");
        assert!(
            trees.iter().all(|&entries| entries == 0),
            "{name}: {trees:?}"
        );
    }
    assert_eq!(twice.stats().corner_hist().total(), represented);
    // Tables and trees that hold nothing own no page.
    let stats = twice.stats();
    assert_eq!((stats.heap_bytes, stats.index_bytes), (0, 0));
    assert!(
        answers(&twice) == answers(&rows),
        "the sealed run answers differently"
    );

    // A day behind the seal, after a reopen (which re-anchors the
    // segmenter, keeping the segment chain unbroken): segments land on raw
    // pages behind the sealed ones, feature rows in the emptied tables
    // under the trees, and no columnar page is built for either.
    drop((twice, rows));
    let mut twice = SegDiffIndex::open(&twice_dir, 4096).unwrap();
    let mut rows = SegDiffIndex::open(&rows_dir, 4096).unwrap();
    assert_eq!(layout(&twice), compacted, "a reopen moved a row or a seal");
    let pages_written = obs::global().counter("colpage.pages_written");
    let written = pages_written.get();
    assert!(written > 0);
    for (t, v) in series.iter().filter(|&(t, _)| t > last_day) {
        twice.push(t, v).unwrap();
        rows.push(t, v).unwrap();
    }
    twice.finish().unwrap();
    rows.finish().unwrap();
    assert_eq!(
        pages_written.get(),
        written,
        "ingest behind a seal wrote a columnar page"
    );
    for ((name, before), (sealed, stored, trees)) in
        TABLES.iter().zip(&compacted).zip(layout(&twice))
    {
        assert_eq!(sealed, before.0, "{name}: ingest moved the seal");
        assert!(stored > before.1, "{name}: no row behind the sealed run");
        assert!(
            trees.iter().all(|&entries| entries == stored - sealed),
            "{name}: {trees:?}"
        );
    }
    let want = answers(&rows);
    assert!(
        answers(&twice) == want,
        "sealed run + stored rows answer differently"
    );
    twice.verify_consistency().unwrap();

    // The second compaction seals the new segments and cuts their rows:
    // no feature row stored, eight empty trees, no page for any of them,
    // the same answers.
    twice.compact_storage().unwrap();
    assert!(pages_written.get() > written);
    for (name, (sealed, stored, trees)) in TABLES.iter().zip(layout(&twice)) {
        let all_segments = *name == "segments" && sealed == stored;
        assert!(all_segments || stored == 0, "{name}: {sealed} of {stored}");
        assert!(
            trees.iter().all(|&entries| entries == 0),
            "{name}: {trees:?}"
        );
    }
    let stats = twice.stats();
    assert_eq!(
        (stats.heap_bytes, stats.index_bytes),
        (0, 0),
        "a page of nothing"
    );
    assert!(
        answers(&twice) == want,
        "the second compaction changed an answer"
    );
    twice.verify_consistency().unwrap();
    // It survives a reopen, and wrote the files one compaction of the row
    // store writes: a compaction is a function of the segments, not of the
    // compactions before it.
    drop(twice);
    let twice = SegDiffIndex::open(&twice_dir, 4096).unwrap();
    assert!(answers(&twice) == want, "reopened");
    rows.compact_storage().unwrap();
    rows.database().flush().unwrap();
    twice.database().flush().unwrap();
    let (once, twice) = (files(&rows_dir), files(&twice_dir));
    assert_eq!(
        once.keys().collect::<Vec<_>>(),
        twice.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &once {
        assert!(twice[name] == *bytes, "{name}");
    }

    // One handle, never reopened, beside a store never compacted: each
    // search walks every segment, and a seal changes none of them, whether
    // it came from `compact_storage` or straight from `Database::seal_table`.
    let (live_dir, plain_dir) = (root.join("live"), root.join("plain"));
    let mut live = SegDiffIndex::create(&live_dir, SegDiffConfig::default()).unwrap();
    let mut plain = SegDiffIndex::create(&plain_dir, SegDiffConfig::default()).unwrap();
    live.build_indexes().unwrap();
    plain.build_indexes().unwrap();
    let sealed = |idx: &SegDiffIndex| idx.stats().sealed_segments;
    let (half, five_days) = (series.times()[series.len() / 2], last_day);
    let mut seen = 0;
    for (t, v) in series.iter() {
        live.push(t, v).unwrap();
        plain.push(t, v).unwrap();
        if t == half || t == five_days {
            live.compact_storage().unwrap();
            assert!(sealed(&live) > seen, "the compaction sealed nothing new");
            seen = sealed(&live);
            assert_eq!(segments_read(&live), seen);
            assert!(
                answers(&live) == answers(&plain),
                "after the seal at t = {t}"
            );
        }
    }
    live.finish().unwrap();
    plain.finish().unwrap();
    let want = answers(&plain);
    live.database().seal_table("segments").unwrap();
    assert!(sealed(&live) > seen);
    assert_eq!(segments_read(&live), sealed(&live));
    // Rows both stored and generated answer once.
    assert!(answers(&live) == want, "after a seal of segments alone");
    live.compact_storage().unwrap();
    assert_eq!(segments_read(&live), sealed(&live));
    assert!(answers(&live) == want, "after the cut");
    live.verify_consistency().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
