//! The live write path end to end: samples pushed one by one into indexes
//! whose B+trees exist from the start, standing queries attached, searches
//! running beside the writes.

use segdiff_repro::pagestore::{Database, TableSpec, BUFFER_ENTRIES};
use segdiff_repro::prelude::*;
use segdiff_repro::segdiff::SubscriptionRegistry;
use std::collections::BTreeSet;
use std::sync::Arc;

const SENSORS: u32 = 2;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("segdiff-live-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn series_of(days: u32) -> Vec<TimeSeries> {
    let cfg = CadTransectConfig::default()
        .with_days(days)
        .with_sensors(SENSORS);
    (0..SENSORS)
        .map(|s| RobustSmoother::default().smooth(&generate_sensor(&cfg, s, 41)))
        .collect()
}

fn series() -> Vec<TimeSeries> {
    series_of(6)
}

/// A pair's identity, bit for bit.
fn key(t_d: f64, t_c: f64, t_b: f64, t_a: f64) -> [u64; 4] {
    [t_d, t_c, t_b, t_a].map(f64::to_bits)
}

#[test]
fn pushes_queries_and_standing_queries_agree() {
    let root = tmpdir("agree");
    // Long enough for the B+trees to merge their write buffers into the
    // trees several times over (checked below).
    let series = series_of(30);
    let config = SegDiffConfig::default()
        .with_epsilon(0.2)
        .with_window(8.0 * HOUR)
        .with_durable(true)
        .with_sync(false)
        .with_group_commit(8);
    let registry = Arc::new(SubscriptionRegistry::with_log_capacity(1 << 20));
    // One standing region per kind; the second watches sensor 1 only.
    let standing = [
        (QueryRegion::drop(1.0 * HOUR, -1.5), vec![]),
        (QueryRegion::jump(2.0 * HOUR, 1.0), vec![1]),
    ];
    let subs: Vec<_> = standing
        .iter()
        .map(|(region, sensors)| registry.subscribe("standing", *region, sensors, 0))
        .collect();
    let mut indexes: Vec<SegDiffIndex> = (0..SENSORS)
        .map(|k| {
            let dir = root.join(format!("sensor-{k}"));
            let mut index = SegDiffIndex::create(&dir, config.clone()).unwrap();
            index.build_indexes().unwrap();
            index.attach_subscriptions(Arc::clone(&registry), k);
            index
        })
        .collect();

    // Six-hour batches, time-major; after each, both plans must agree on
    // the store as it stands — whichever of its rows the B+trees hold and
    // whichever still sit in their write buffers.
    let searches = [
        QueryRegion::drop(0.5 * HOUR, -1.0),
        QueryRegion::drop(4.0 * HOUR, -3.0),
        QueryRegion::jump(1.0 * HOUR, 1.0),
        QueryRegion::jump(8.0 * HOUR, 2.5),
    ];
    let longest = series.iter().map(TimeSeries::len).max().unwrap();
    let mut compared = 0;
    let mut met_a_buffer = 0;
    // (entries merged into the tree, entries buffered) of every B+tree.
    let trees = |index: &SegDiffIndex| -> Vec<(u64, u64)> {
        let db = index.database();
        let mut tables = db.table_names();
        tables.sort();
        let tables = tables.iter().map(|name| db.table(name).unwrap());
        tables
            .flat_map(|table| {
                let names = table.index_names().into_iter();
                names.map(move |name| {
                    let tree = table.index(&name).unwrap();
                    (tree.len() - tree.buffered() as u64, tree.buffered() as u64)
                })
            })
            .collect()
    };
    for lo in (0..longest).step_by(72) {
        for (index, s) in indexes.iter_mut().zip(&series) {
            for j in lo..(lo + 72).min(s.len()) {
                let (t, v) = s.get(j);
                index.push(t, v).unwrap();
            }
        }
        for index in &indexes {
            let region = &searches[compared % searches.len()];
            let (scan, _) = index.query(region, QueryPlan::SeqScan).unwrap();
            let (indexed, _) = index.query(region, QueryPlan::Index).unwrap();
            assert_eq!(scan, indexed, "plans disagree mid-ingest on {region:?}");
            compared += 1;
            met_a_buffer += usize::from(trees(index).iter().any(|&(_, buffered)| buffered > 0));
        }
    }
    assert_eq!(
        met_a_buffer, compared,
        "every comparison read through a buffer"
    );
    for index in &mut indexes {
        index.finish().unwrap();
        index.verify_consistency().unwrap();
        let trees = trees(index);
        assert_eq!(trees.len(), 8, "the trees the index plan probes");
        // Every tree has applied its buffer; all but the two of the
        // sparse one-corner tables many times.
        let applies = trees
            .iter()
            .map(|&(merged, _)| merged / BUFFER_ENTRIES as u64);
        assert!(
            applies.clone().all(|n| n >= 1) && applies.clone().filter(|&n| n >= 3).count() >= 6,
            "B+trees took {:?} whole buffers",
            applies.collect::<Vec<_>>()
        );
    }

    // Theorem 1 through the subscription path: what a standing region was
    // notified of is what searching for it now returns, pair for pair.
    let mut notified = 0;
    for (sub, (region, sensors)) in subs.iter().zip(&standing) {
        let (log, _) = registry.since(sub.id, 0, usize::MAX).unwrap();
        for (k, index) in indexes.iter().enumerate() {
            let k = k as u32;
            let pushed: Vec<[u64; 4]> = log
                .iter()
                .filter(|n| n.sensor == k)
                .map(|n| key(n.t_d, n.t_c, n.t_b, n.t_a))
                .collect();
            let distinct: BTreeSet<[u64; 4]> = pushed.iter().copied().collect();
            assert_eq!(distinct.len(), pushed.len(), "a pair was notified twice");
            let (found, _) = index.query(region, QueryPlan::Index).unwrap();
            let searched: BTreeSet<[u64; 4]> = found
                .iter()
                .map(|p| key(p.t_d, p.t_c, p.t_b, p.t_a))
                .collect();
            if sensors.is_empty() || sensors.contains(&k) {
                assert_eq!(distinct, searched, "sensor {k}, {region:?}");
                notified += distinct.len();
            } else {
                assert!(distinct.is_empty(), "sensor {k} is not watched");
            }
        }
    }
    assert!(
        notified > 20,
        "the standing regions matched only {notified} pairs"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Regions drawn on stored corners, two a kind: `T` exactly a corner's
/// `Δt` and `V` exactly its `Δv`, where a search's `<=` and `<` part. Of
/// the corners within the window `w` and at least 1.5 away from zero, the
/// deepest and the middle one by `(Δt, Δv)`.
fn regions_on_stored_corners(index: &SegDiffIndex, window: f64) -> Vec<QueryRegion> {
    let mut regions = Vec::new();
    for kind in ["drop", "jump"] {
        let mut corners = Vec::new();
        for c in 1..=3 {
            let table = index.database().table(&format!("{kind}{c}")).unwrap();
            table
                .seq_scan(|_, row| {
                    corners.extend((0..c).map(|j| (row[2 * j], row[2 * j + 1])));
                    true
                })
                .unwrap();
        }
        corners.retain(|&(dt, dv)| dt > 0.0 && dt <= window && dv.abs() >= 1.5);
        corners.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let deepest = corners
            .iter()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
        let middle = corners.get(corners.len() / 2);
        for &(dt, dv) in deepest.into_iter().chain(middle) {
            regions.push(match kind {
                "drop" => QueryRegion::drop(dt, dv),
                _ => QueryRegion::jump(dt, dv),
            });
        }
    }
    assert_eq!(regions.len(), 4, "two stored corners a kind");
    regions
}

/// One sensor's life — pushes, a compaction, pushes behind the seal, a
/// finish and a reopen — with searches at every stage: each answer, on
/// either plan, is what the paper's plans read off the same store's stored
/// rows, and covers every true event among the samples stored so far
/// (Theorem 1). The searches include regions at `T = w`, where the window
/// truncates earlier segments, and regions on stored corners.
#[test]
fn searches_answer_as_the_stored_rows_across_a_compaction_and_a_reopen() {
    let dir = tmpdir("view");
    let series = &series()[0];
    let window = 8.0 * HOUR;
    let config = SegDiffConfig::default()
        .with_epsilon(0.2)
        .with_window(window);
    let mut index = SegDiffIndex::create(&dir, config).unwrap();
    index.build_indexes().unwrap();
    let third = series.len() / 3;
    let mut samples = series.iter();
    for (t, v) in samples.by_ref().take(third) {
        index.push(t, v).unwrap();
    }
    let mut searches = vec![
        QueryRegion::drop(0.5 * HOUR, -1.0),
        QueryRegion::drop(4.0 * HOUR, -3.0),
        QueryRegion::drop(window, -2.0),
        QueryRegion::jump(1.0 * HOUR, 1.0),
        QueryRegion::jump(window, 2.5),
    ];
    searches.extend(regions_on_stored_corners(&index, window));
    let check = |index: &SegDiffIndex, stage: &str| {
        let segments = index.segments().unwrap();
        let end = segments.last().expect("a stored segment").t_end;
        let prefix: TimeSeries = series.iter().take_while(|&(t, _)| t <= end).collect();
        let mut found = 0;
        for region in &searches {
            let events = oracle::true_events(&prefix, region);
            for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
                let (got, _) = index.query(region, plan).unwrap();
                let (want, _) = index.query_stored_rows(region, plan).unwrap();
                assert!(got == want, "{stage}: {plan:?} on {region:?}");
                let missed = oracle::find_missed_event(&events, &got);
                assert!(missed.is_none(), "{stage}: {region:?} misses {missed:?}");
                found += got.len();
            }
        }
        assert!(found > 0, "{stage}: no search found anything");
    };
    check(&index, "pushed");
    index.compact_storage().unwrap();
    check(&index, "compacted");
    for (t, v) in samples.by_ref().take(third) {
        index.push(t, v).unwrap();
    }
    check(&index, "pushed behind the seal");
    for (t, v) in samples {
        index.push(t, v).unwrap();
    }
    index.finish().unwrap();
    drop(index);
    let index = SegDiffIndex::open(&dir, 4096).unwrap();
    check(&index, "reopened");
    index.verify_consistency().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_inserts_store_what_row_at_a_time_inserts_store() {
    // The index stores a segment's rows with one `Table::insert_many` per
    // table. Replaying each table's rows, in stored order, through
    // `Table::insert` into a scratch database of the same catalogue must
    // fill exactly as many heap and B+tree bytes — the same bytes.
    let root = tmpdir("bytes");
    let mut index = SegDiffIndex::create(&root.join("live"), SegDiffConfig::default()).unwrap();
    index.build_indexes().unwrap();
    index.ingest_series(&series()[0]).unwrap();
    index.finish().unwrap();

    let live = index.database();
    let scratch = Database::create(&root.join("scratch"), 4096).unwrap();
    let mut names = live.table_names();
    names.sort();
    let mut tree_bytes = 0;
    for name in &names {
        let from = live.table(name).unwrap();
        let columns: Vec<&str> = from.columns().iter().map(String::as_str).collect();
        let to = scratch
            .create_table(TableSpec::new(name, &columns))
            .unwrap();
        for tree in from.index_names() {
            let cols: Vec<&str> = from
                .index(&tree)
                .unwrap()
                .cols()
                .iter()
                .map(|&c| columns[c])
                .collect();
            scratch.create_index(name, &tree, &cols).unwrap();
        }
        from.seq_scan(|_, row| {
            to.insert(row).unwrap();
            true
        })
        .unwrap();
        assert_eq!(to.num_rows(), from.num_rows(), "{name}");
        assert_eq!(to.heap_bytes(), from.heap_bytes(), "{name}: heap bytes");
        assert_eq!(to.index_bytes(), from.index_bytes(), "{name}: B+tree bytes");
        tree_bytes += from.index_bytes();
    }
    assert!(tree_bytes > 0, "no B+tree was maintained");
    // And the very same bytes: every heap and B+tree file, once flushed.
    scratch.flush().unwrap();
    let mut compared = 0;
    for entry in std::fs::read_dir(root.join("live")).unwrap() {
        let file = entry.unwrap().file_name();
        let name = file.to_string_lossy();
        if name.ends_with(".tbl") || name.ends_with(".idx") {
            let live = std::fs::read(root.join("live").join(&file)).unwrap();
            let replayed = std::fs::read(root.join("scratch").join(&file)).unwrap();
            assert!(live == replayed, "{name} differs byte-wise");
            compared += 1;
        }
    }
    assert!(compared > names.len(), "compared only {compared} files");
    std::fs::remove_dir_all(&root).ok();
}
