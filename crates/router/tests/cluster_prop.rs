//! Property: scatter–gather through the router is byte-identical to a
//! single process serving the whole transect — whatever the sensor
//! count, shard count, engine thread count, or query region, and for
//! full fan-outs as well as sensor subsets.
//!
//! Each case builds a small CAD transect, partitions it over in-process
//! shard servers with the same [`router::Ring`] the router uses, fronts
//! them with an in-process [`router::Router`], and compares the
//! `results` array (compact re-serialization, so equal strings mean the
//! shared serializer saw identical values) against a reference server
//! that owns every sensor. A second reference with a different fan-out
//! thread count pins down thread-count invariance on the way.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "a test fails by panicking"
)]

use obs::json::Json;
use proptest::prelude::*;
use router::{Ring, Router, RouterConfig, ShardSpec};
use segdiff::{SegDiffConfig, TransectIndex};
use segdiff_server::httpd::Running;
use segdiff_server::loadgen::fetch;
use segdiff_server::{Engine, Server, ServerConfig};
use sensorgen::{generate_sensor, CadTransectConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "segdiff-clusterprop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), &dst).expect("copy file");
        }
    }
}

/// Builds, finishes, and checkpoints a clean transect, then drops it so
/// later read-only opens never race a live buffer pool.
fn build_transect(dir: &Path, sensors: u32) {
    let cfg = CadTransectConfig::default()
        .with_days(2)
        .with_sensors(sensors)
        .clean();
    let mut t = TransectIndex::create(dir, SegDiffConfig::default(), sensors).expect("create");
    for k in 0..sensors {
        t.ingest_series(k, &generate_sensor(&cfg, k, 7))
            .expect("ingest");
    }
    t.finish_all().expect("finish");
    t.build_indexes_all().expect("build indexes");
    t.flush_all().expect("flush");
}

fn start_server(engine: Engine) -> Running {
    Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            threads: 2,
            queue_depth: 32,
            read_timeout: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .expect("bind shard server")
    .spawn()
}

fn results_of(host: &str, body: &str) -> Result<String, String> {
    let (status, text) = fetch(host, "POST", "/query", Some(body))?;
    if status != 200 {
        return Err(format!("POST /query on {host}: status {status}: {text}"));
    }
    let doc = Json::parse(&text).map_err(|e| format!("bad response: {e}"))?;
    Ok(doc
        .get("results")
        .map(Json::to_string_compact)
        .unwrap_or_default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn router_matches_single_process_byte_for_byte(
        sensors in 4u32..8,
        shards in 2usize..4,
        wide_engine in any::<bool>(),
        is_drop in any::<bool>(),
        v_mag in 0.5f64..3.0,
        t_frac in 0.2f64..1.0,
    ) {
        let threads = if wide_engine { 3 } else { 1 };
        let (kind, v) = if is_drop { ("drop", -v_mag) } else { ("jump", v_mag) };
        let t_hours = t_frac * 4.0;
        let body = format!(r#"{{"kind":"{kind}","v":{v},"t_hours":{t_hours},"plan":"index"}}"#);

        let ids: Vec<u32> = (0..sensors).collect();
        let buckets = Ring::new(shards).partition(&ids);
        // The ring occasionally hashes every sensor away from one shard;
        // a shard serving nothing cannot be opened, so skip that case.
        prop_assume!(buckets.iter().all(|b| !b.is_empty()));

        let dir = tmpdir("ref");
        build_transect(&dir, sensors);
        // Shards read a private copy: the reference holds buffer pools
        // over the original, and two pools over one file tear reads.
        let shard_dir = tmpdir("shards");
        copy_dir(&dir, &shard_dir);

        let full = Arc::new(TransectIndex::open(&dir, 2048).expect("open reference"));
        let reference = start_server(Engine::transect(Arc::clone(&full), 1));
        let reference_wide = start_server(Engine::transect(Arc::clone(&full), threads));

        let mut servers = Vec::new();
        let mut specs = Vec::new();
        for bucket in &buckets {
            let sub = TransectIndex::open_subset(&shard_dir, 2048, bucket).expect("open subset");
            let running = start_server(Engine::transect(Arc::new(sub), threads));
            specs.push(ShardSpec { primary: running.host().to_string(), replica: None });
            servers.push(running);
        }

        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                shards: specs,
                threads: 2,
                queue_depth: 32,
                read_timeout: Duration::from_millis(1000),
                health_interval: Duration::from_millis(200),
            },
        )
        .expect("bind router")
        .spawn();

        let want = results_of(reference.host(), &body).expect("reference query");
        let want_wide = results_of(reference_wide.host(), &body).expect("wide reference query");
        let got = results_of(router.host(), &body).expect("router query");
        prop_assert_eq!(
            &want, &want_wide,
            "fan-out thread count changed the reference answer"
        );
        prop_assert_eq!(&got, &want, "router full fan-out diverged from one process");

        // A subset query must scatter to only the owning shards and
        // still merge into the one-process answer for those sensors.
        let subset: Vec<String> =
            ids.iter().step_by(2).map(u32::to_string).collect();
        let subset_body = format!(
            r#"{{"kind":"{kind}","v":{v},"t_hours":{t_hours},"plan":"index","sensors":[{}]}}"#,
            subset.join(",")
        );
        let want_subset = results_of(reference.host(), &subset_body).expect("reference subset");
        let got_subset = results_of(router.host(), &subset_body).expect("router subset");
        prop_assert_eq!(
            &got_subset, &want_subset,
            "router subset query diverged from one process"
        );

        router.stop().expect("router run");
        for running in servers.into_iter().chain([reference, reference_wide]) {
            running.stop().expect("server run");
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }
}
