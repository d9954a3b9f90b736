//! `colpage.pages_decoded` is added to once per scan or fetch, not once
//! per page; the total must still be the pages actually decoded. Alone in
//! its own test binary because the counter is process-wide.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use pagestore::{Database, RowId, Table, TableSpec};

fn decoded() -> u64 {
    obs::global().counter("colpage.pages_decoded").get()
}

/// What a scan of `rows` decoding every column of every page adds.
fn decodes_every_page(t: &Table, rows: impl std::ops::RangeBounds<u64>) -> u64 {
    let (before, mut all) = (decoded(), vec![Vec::new(); t.columns().len()]);
    t.scan_pages(
        rows,
        |_, _| true,
        |page| page.columns(0..all.len(), &mut all).map(|_| true),
    )
    .unwrap();
    decoded() - before
}

#[test]
fn pages_decoded_counts_every_decoded_columnar_page_once() {
    let dir = std::env::temp_dir().join(format!("pagestore-decoded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::create(&dir, 256).unwrap();
    let cols = ["dt", "dv", "t"];
    let columnar = db.create_table(TableSpec::new("c", &cols)).unwrap();
    let raw = db.create_table(TableSpec::new("r", &cols)).unwrap();
    let row = |i: u64| {
        [
            300.0 * (i % 90) as f64,
            -(i as f64) * 0.001,
            300.0 * i as f64,
        ]
    };
    for i in 0..20_000 {
        columnar.insert(&row(i)).unwrap();
        raw.insert(&row(i)).unwrap();
    }
    // Rows reach columnar pages by being sealed; in the order they have.
    // Rows appended behind the seal land on raw pages.
    db.seal_table("c").unwrap();
    for i in 20_000..21_000 {
        columnar.insert(&row(i)).unwrap();
    }
    assert_eq!(columnar.sealed_rows(), 20_000);
    let mut rids: Vec<RowId> = Vec::new();
    let before = decoded();
    columnar
        .seq_scan(|rid, _| {
            rids.push(rid);
            true
        })
        .unwrap();
    let pages = rids[19_999] >> 16;
    let tail_pages = (rids[20_999] >> 16) - pages;
    assert!(pages > 8 && tail_pages > 1, "{pages} columnar pages");
    assert_eq!(decoded() - before, pages, "one row scan");

    let mut bufs = Vec::new();
    let before = decoded();
    let stats = columnar
        .scan_columns(|_, _| true, &mut bufs, |_, _| true)
        .unwrap();
    assert_eq!(stats.pages_scanned, pages + tail_pages);
    assert_eq!(decoded() - before, pages, "one full scan");

    // A scan cut short has decoded only the pages it reached.
    let before = decoded();
    let mut seen = 0;
    columnar
        .scan_columns(
            |_, _| true,
            &mut bufs,
            |_, _| {
                seen += 1;
                seen < 3
            },
        )
        .unwrap();
    assert_eq!(decoded() - before, 3, "a scan stopped on its third page");

    // A page read through several projections was decoded once; a page
    // the visitor asked nothing of was not decoded at all.
    let before = decoded();
    let (mut lead, mut rest) = (vec![Vec::new(); 1], vec![Vec::new(); 2]);
    let mut at = 0;
    columnar
        .scan_pages(
            ..columnar.sealed_rows(),
            |_, _| true,
            |page| {
                if at % 2 == 0 {
                    page.columns(0..1, &mut lead)?;
                    page.columns(1..3, &mut rest)?;
                    page.columns(0..1, &mut lead)?;
                }
                at += 1;
                Ok(true)
            },
        )
        .unwrap();
    assert_eq!(at, pages, "the sealed range is the sealed pages");
    assert_eq!(decoded() - before, pages.div_ceil(2), "projected scan");
    // Every column of every page of the sealed range, then of the tail.
    let sealed = columnar.sealed_rows();
    assert_eq!(
        decodes_every_page(&columnar, ..sealed),
        pages,
        "sealed range"
    );
    assert_eq!(decodes_every_page(&columnar, sealed..), 0, "tail range");

    // A fetch decodes each distinct page once, whatever it projects.
    let on_pages = |lo: u64, hi: u64| -> Vec<RowId> {
        rids.iter()
            .copied()
            .filter(|r| (lo..hi).contains(&(r >> 16)) && r % 5 == 0)
            .collect()
    };
    let fetched = |fetch: &dyn Fn()| {
        let before = decoded();
        fetch();
        decoded() - before
    };
    let all_cols = |rids: &[RowId]| columnar.fetch_many(rids, |_, _| true).unwrap();
    assert_eq!(fetched(&|| all_cols(&on_pages(2, 6))), 4, "four pages");
    let one_col = || {
        columnar
            .fetch_many_cols(&on_pages(3, 5), 2..3, |_, _| true)
            .unwrap()
    };
    assert_eq!(fetched(&one_col), 2, "two pages, one column");
    assert_eq!(fetched(&|| all_cols(&rids[..1])), 1, "one row");
    assert_eq!(fetched(&|| all_cols(&rids[20_000..])), 0, "raw tail rows");

    // Raw pages are not columnar pages.
    let before = decoded();
    raw.scan_columns(|_, _| true, &mut bufs, |_, _| true)
        .unwrap();
    raw.seq_scan(|_, _| true).unwrap();
    assert_eq!(decoded() - before, 0, "raw scans");
    std::fs::remove_dir_all(&dir).ok();
}
