//! `POST /shutdown` drains the server into a flush that leaves the store
//! durable: the flush is recorded once in `server.flush_ms`, and a fresh
//! open finds a clean WAL that answers as the served index did. Alone in
//! its own test binary because the histogram is process-wide: any other
//! server draining in the same process would move its count.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use featurespace::QueryRegion;
use segdiff::{QueryPlan, SegDiffConfig, SegDiffIndex};
use segdiff_server::loadgen::fetch;
use segdiff_server::{Server, ServerConfig};
use sensorgen::{generate_sensor, CadTransectConfig};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn post_shutdown_leaves_store_durable() {
    let dir = std::env::temp_dir().join(format!("segdiff-server-drain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let series = generate_sensor(&CadTransectConfig::default().with_days(5).clean(), 12, 7);
    let mut idx = SegDiffIndex::create(&dir, SegDiffConfig::default()).unwrap();
    idx.ingest_series(&series).unwrap();
    idx.finish().unwrap();
    idx.build_indexes().unwrap();
    let region = QueryRegion::drop(3600.0, -2.0);
    let (expected, _) = idx.query(&region, QueryPlan::Index).unwrap();
    let config = ServerConfig {
        threads: 2,
        queue_depth: 32,
        read_timeout: Duration::from_millis(250),
        sample_period: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let running = Server::bind("127.0.0.1:0", Arc::new(idx), config)
        .unwrap()
        .spawn();
    let host = running.host().to_string();
    // The WAL's counter family is part of the exported metrics.
    let (status, body) = fetch(&host, "GET", "/metrics?format=json", None).unwrap();
    assert_eq!(status, 200);
    for name in ["wal.appends", "wal.bytes", "wal.checkpoints"] {
        assert!(
            body.contains(&format!("\"{name}\"")),
            "GET /metrics must export {name}: {body}"
        );
    }
    let before = obs::global().histogram("server.flush_ms").count();
    let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    running.stop().unwrap();
    // The drain ended in a flush: its duration was recorded...
    assert_eq!(
        obs::global().histogram("server.flush_ms").count(),
        before + 1,
        "drain must record server.flush_ms"
    );
    // ...and the store on disk is complete: a fresh process sees a
    // cleanly shut-down index that answers the same query.
    let reopened = SegDiffIndex::open(&dir, 4096).unwrap();
    assert!(
        reopened.recovery_report().unwrap().clean,
        "drain flush must leave a clean WAL"
    );
    reopened.verify_consistency().unwrap();
    let (results, _) = reopened.query(&region, QueryPlan::Index).unwrap();
    assert_eq!(results, expected, "reopened store must answer identically");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
