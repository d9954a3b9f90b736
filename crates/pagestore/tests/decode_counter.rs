//! `colpage.pages_decoded` is added to once per scan or fetch, not once
//! per page; the total must still be the pages actually decoded. Alone in
//! its own test binary because the counter is process-wide.

use pagestore::{Database, RowId, TableSpec};

fn decoded() -> u64 {
    obs::global().counter("colpage.pages_decoded").get()
}

#[test]
fn pages_decoded_counts_every_decoded_columnar_page_once() {
    let dir = std::env::temp_dir().join(format!("pagestore-decoded-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::create(&dir, 256).unwrap();
    let cols = ["dt", "dv", "t"];
    let columnar = db.create_table(TableSpec::new("c", &cols)).unwrap();
    let raw = db.create_table(TableSpec::new("r", &cols)).unwrap();
    for i in 0..20_000 {
        let row = [
            300.0 * (i % 90) as f64,
            -(i as f64) * 0.001,
            300.0 * i as f64,
        ];
        columnar.insert(&row).unwrap();
        raw.insert(&row).unwrap();
    }
    // Rows reach columnar pages by being sealed; in the order they have.
    db.seal_table("c", &[], |_| {}).unwrap();
    assert_eq!(columnar.sealed_rows(), 20_000);
    let mut rids: Vec<RowId> = Vec::new();
    let before = decoded();
    columnar
        .seq_scan(|rid, _| {
            rids.push(rid);
            true
        })
        .unwrap();
    let pages = rids[rids.len() - 1] >> 16;
    assert!(pages > 8, "{pages} columnar pages");
    assert_eq!(decoded() - before, pages, "one row scan");

    let mut bufs = Vec::new();
    let before = decoded();
    let stats = columnar
        .scan_columns(|_, _| true, &mut bufs, |_, _| true)
        .unwrap();
    assert_eq!(stats.pages_scanned, pages);
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
    assert_eq!(decoded() - before, pages.div_ceil(2), "projected scan");

    // A fetch decodes each distinct page once, whatever it projects.
    let on_pages = |lo: u64, hi: u64| -> Vec<RowId> {
        rids.iter()
            .copied()
            .filter(|r| (lo..hi).contains(&(r >> 16)) && r % 5 == 0)
            .collect()
    };
    let before = decoded();
    columnar.fetch_many(&on_pages(2, 6), |_, _| true).unwrap();
    columnar
        .fetch_many_cols(&on_pages(3, 5), 2..3, |_, _| true)
        .unwrap();
    columnar.fetch(rids[0], &mut Vec::new()).unwrap();
    assert_eq!(decoded() - before, 4 + 2 + 1, "fetches");

    // Raw pages are not columnar pages.
    let before = decoded();
    raw.scan_columns(|_, _| true, &mut bufs, |_, _| true)
        .unwrap();
    raw.seq_scan(|_, _| true).unwrap();
    assert_eq!(decoded() - before, 0, "raw scans");
    std::fs::remove_dir_all(&dir).ok();
}
