//! `compact → ingest a day → compact`: a compacted store keeps ingesting
//! on raw pages behind its sealed rows, and the next compaction seals
//! those too — sketching their corner `Δv`s once, and leaving the bits of
//! the rows sealed before alone. Alone in its own test binary because the
//! `colpage.pages_written` counter is process-wide.

use featurespace::{sketch, SearchKind};
use segdiff::{QueryPlan, QueryRegion, SegDiffConfig, SegDiffIndex, SegmentPair};
use sensorgen::{generate_sensor, CadTransectConfig, HOUR};

const TABLES: [&str; 7] = [
    "drop1", "drop2", "drop3", "jump1", "jump2", "jump3", "segments",
];

/// What both plans answer for a handful of regions (each asserted equal
/// across the plans on the way).
fn answers(idx: &SegDiffIndex) -> Vec<Vec<SegmentPair>> {
    let regions = [
        QueryRegion::drop(1.0 * HOUR, -3.0),
        QueryRegion::drop(4.0 * HOUR, -1.0),
        QueryRegion::jump(2.0 * HOUR, 2.0),
        QueryRegion::jump(8.0 * HOUR, 0.5),
    ];
    let answer = |region: &QueryRegion| {
        let (scan, _) = idx.query(region, QueryPlan::SeqScan).unwrap();
        let (index, _) = idx.query(region, QueryPlan::Index).unwrap();
        assert!(
            !scan.is_empty() && scan == index,
            "plans disagree on {region:?}"
        );
        scan
    };
    regions.iter().map(answer).collect()
}

/// Rows as bit patterns, sorted.
type Rows = Vec<Vec<u64>>;

/// The rows of each feature table: (sealed ones, the rest, what a seal
/// stores of the rest).
fn sealed_and_tail(idx: &SegDiffIndex) -> Vec<(Rows, Rows, Rows)> {
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    TABLES[..6]
        .iter()
        .map(|name| {
            let kind = match &name[..4] {
                "drop" => SearchKind::Drop,
                _ => SearchKind::Jump,
            };
            let corners = usize::from(name.as_bytes()[4] - b'0');
            let t = idx.database().table(name).unwrap();
            let (mut sealed, mut tail, mut sketched) = (Vec::new(), Vec::new(), Vec::new());
            t.seq_scan(|_, row| {
                if (sealed.len() as u64) < t.sealed_rows() {
                    sealed.push(bits(row));
                } else {
                    tail.push(bits(row));
                    let mut row = row.to_vec();
                    for dv in row[..2 * corners].iter_mut().skip(1).step_by(2) {
                        *dv = sketch::round(kind, *dv);
                    }
                    sketched.push(bits(&row));
                }
                true
            })
            .unwrap();
            for rows in [&mut sealed, &mut tail, &mut sketched] {
                rows.sort_unstable();
            }
            (sealed, tail, sketched)
        })
        .collect()
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
    twice.compact_storage().unwrap();
    let compacted = layout(&twice);
    for (name, (sealed, stored, trees)) in TABLES.iter().zip(&compacted) {
        assert!(
            sealed == stored && *sealed > 0,
            "{name}: {sealed} of {stored} sealed"
        );
        assert!(
            trees.iter().all(|&entries| entries == 0),
            "{name}: {trees:?}"
        );
    }

    // A day behind the seal, after a reopen (which re-anchors the
    // segmenter, keeping the segment chain unbroken): rows land on raw
    // pages under the trees, and no columnar page is built for them.
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
        assert!(stored > sealed, "{name}: no row behind the sealed ones");
        assert!(
            trees.iter().all(|&entries| entries == stored - sealed),
            "{name}: {trees:?}"
        );
    }
    let want = answers(&rows);
    assert!(
        answers(&twice) == want,
        "sealed prefix + raw tail answers differently"
    );
    twice.verify_consistency().unwrap();

    // The second compaction seals the tail too: every row sealed, eight
    // empty trees, the same answers. The rows sealed before keep their
    // bits; the tail, exact until now, is sketched once.
    let before = sealed_and_tail(&twice);
    assert!(
        before.iter().any(|(_, tail, sketched)| tail != sketched),
        "no exact Δv behind the seal"
    );
    twice.compact_storage().unwrap();
    for ((name, (sealed, _, sketched)), (now, tail, _)) in
        TABLES.iter().zip(before).zip(sealed_and_tail(&twice))
    {
        assert!(tail.is_empty(), "{name}: rows behind the second seal");
        let mut want = [sealed, sketched].concat();
        want.sort_unstable();
        assert!(
            now == want,
            "{name}: a reseal changed a sealed row or missed a tail row"
        );
    }
    assert!(pages_written.get() > written);
    for (name, (sealed, stored, trees)) in TABLES.iter().zip(layout(&twice)) {
        assert_eq!(sealed, stored, "{name}: rows left behind the seal");
        assert!(
            trees.iter().all(|&entries| entries == 0),
            "{name}: {trees:?}"
        );
    }
    assert_eq!(
        twice.stats().index_bytes,
        8 * 2 * pagestore::PAGE_SIZE as u64
    );
    assert!(
        answers(&twice) == want,
        "the second compaction changed an answer"
    );
    twice.verify_consistency().unwrap();
    // It survives a reopen, and wrote the heaps one compaction of the row
    // store writes: a seal is a function of the rows, not of the seals
    // before it.
    drop(twice);
    let twice = SegDiffIndex::open(&twice_dir, 4096).unwrap();
    assert!(answers(&twice) == want, "reopened");
    rows.compact_storage().unwrap();
    for name in TABLES {
        let heap = |dir: &std::path::Path| std::fs::read(dir.join(format!("{name}.tbl"))).unwrap();
        assert!(heap(&twice_dir) == heap(&rows_dir), "{name}.tbl");
    }
    std::fs::remove_dir_all(&root).ok();
}
