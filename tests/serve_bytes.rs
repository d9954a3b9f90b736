//! The serving path's byte-identity contract, end to end.
//!
//! `/query` writes its response instead of building a JSON tree, and the
//! router splices the shards' bytes instead of parsing and re-printing
//! them. Both rest on one claim: the bytes are the same as before. This
//! test holds a two-shard cluster to it over a small transect — every
//! response shape, through the router and from a single process, must
//! carry the same array bytes; those bytes must be the tree form of the
//! in-process `query` answer; and the served answer must still satisfy
//! Theorem 1 (no true event is missed).

use router::{Ring, Router, RouterConfig, ShardSpec};
use segdiff::TransectIndex;
use segdiff_repro::obs::json::Json;
use segdiff_repro::prelude::*;
use segdiff_server::httpd::Running;
use segdiff_server::loadgen::fetch;
use segdiff_server::{Engine, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SENSORS: u32 = 5;
/// The shards close an idle connection after this long.
const SHARD_READ_TIMEOUT: Duration = Duration::from_millis(150);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("segdiff-servebytes-{tag}-{}", std::process::id()));
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

fn start_server(engine: Engine) -> Running {
    Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            threads: 2,
            queue_depth: 32,
            read_timeout: SHARD_READ_TIMEOUT,
            ..ServerConfig::default()
        },
    )
    .expect("bind server")
    .spawn()
}

fn post(host: &str, body: &str) -> String {
    let (status, text) = fetch(host, "POST", "/query", Some(body)).expect("query");
    assert_eq!(status, 200, "{body} on {host}: {text}");
    text
}

/// The raw `"results":[…]` or `"by_sensor":[…]` bytes of a transect or
/// router response: from the key to the `,"sensors":` that follows the
/// array in both.
fn array_bytes(body: &str) -> &str {
    let start = body
        .find(r#","results":["#)
        .or_else(|| body.find(r#","by_sensor":["#))
        .expect("an array key");
    let end = body.rfind(r#","sensors":"#).expect("a sensors field");
    &body[start + 1..end]
}

/// The tree form of a pair list: what the response writer must emit.
fn pairs_json(pairs: &[SegmentPair]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|p| {
                Json::obj([
                    ("t_d", Json::Float(p.t_d)),
                    ("t_c", Json::Float(p.t_c)),
                    ("t_b", Json::Float(p.t_b)),
                    ("t_a", Json::Float(p.t_a)),
                ])
            })
            .collect(),
    )
}

fn parse_pairs(results: &Json) -> Vec<SegmentPair> {
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_f64).expect("a stamp");
    results
        .as_array()
        .expect("a results array")
        .iter()
        .map(|item| SegmentPair {
            t_d: field(item, "t_d"),
            t_c: field(item, "t_c"),
            t_b: field(item, "t_b"),
            t_a: field(item, "t_a"),
        })
        .collect()
}

#[test]
fn served_and_routed_bytes_equal_one_process_and_the_in_process_answer() {
    let cfg = CadTransectConfig::default()
        .with_days(3)
        .with_sensors(SENSORS)
        .clean();
    let series: Vec<TimeSeries> = (0..SENSORS).map(|k| generate_sensor(&cfg, k, 7)).collect();
    let dir = tmpdir("ref");
    {
        let mut t = TransectIndex::create(&dir, SegDiffConfig::default(), SENSORS).expect("create");
        for (k, s) in series.iter().enumerate() {
            t.ingest_series(k as u32, s).expect("ingest");
        }
        t.finish_all().expect("finish");
        t.build_indexes_all().expect("build indexes");
        t.flush_all().expect("flush");
    }
    // Shards read a private copy: two pools over one file tear reads.
    let shard_dir = tmpdir("shards");
    copy_dir(&dir, &shard_dir);

    let full = Arc::new(TransectIndex::open(&dir, 2048).expect("open reference"));
    let single = start_server(Engine::transect(Arc::clone(&full), 2));
    let ids: Vec<u32> = (0..SENSORS).collect();
    let buckets = Ring::new(2).partition(&ids);
    assert!(
        buckets.iter().all(|b| !b.is_empty()),
        "both shards must own sensors: {buckets:?}"
    );
    let shards: Vec<Running> = buckets
        .iter()
        .map(|bucket| {
            let sub = TransectIndex::open_subset(&shard_dir, 2048, bucket).expect("open subset");
            start_server(Engine::transect(Arc::new(sub), 2))
        })
        .collect();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            shards: shards
                .iter()
                .map(|s| ShardSpec {
                    primary: s.host().to_string(),
                    replica: None,
                })
                .collect(),
            threads: 2,
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
    .spawn();

    let mut pairs_seen = 0;
    for (kind, v, t_hours) in [
        ("drop", -2.0, 1.0),
        ("jump", 1.5, 2.5),
        ("drop", -0.75, 4.0),
        ("drop", -90.0, 0.5), // nothing drops 90 degrees
    ] {
        let region = match kind {
            "drop" => QueryRegion::drop(t_hours * HOUR, v),
            _ => QueryRegion::jump(t_hours * HOUR, v),
        };
        let (per_sensor, _) = full
            .query_all(&region, QueryPlan::Index)
            .expect("in-process");
        let core = format!(r#""kind":"{kind}","v":{v},"t_hours":{t_hours},"plan":"index""#);

        for filter in [None, Some(vec![0u32, 3, 4]), Some(vec![2])] {
            let wanted: Vec<u32> = filter.clone().unwrap_or_else(|| ids.clone());
            let sensors = match &filter {
                None => String::new(),
                Some(f) => format!(
                    r#","sensors":[{}]"#,
                    f.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
                ),
            };

            // Flat: the same bytes from one process and through the
            // router, and they are the in-process answer's tree form.
            let body = format!("{{\"series\":\"cad\",{core}{sensors}}}");
            let one = post(single.host(), &body);
            let routed = post(router.host(), &body);
            assert_eq!(array_bytes(&routed), array_bytes(&one), "{body}");
            let expected: Vec<SegmentPair> = wanted
                .iter()
                .flat_map(|&k| per_sensor[k as usize].iter().copied())
                .collect();
            assert_eq!(
                array_bytes(&one),
                format!(r#""results":{}"#, pairs_json(&expected).to_string_compact()),
                "{body}"
            );
            let doc = Json::parse(&routed).expect("router body parses");
            assert_eq!(doc.to_string_compact(), routed, "canonical form: {body}");
            assert_eq!(
                doc.get("count").and_then(Json::as_u64),
                Some(expected.len() as u64)
            );
            assert_eq!(doc.get("series").and_then(Json::as_str), Some("cad"));
            pairs_seen += expected.len();

            // Grouped: same entries, and each sensor's served answer
            // misses no true event of its series (Theorem 1).
            let body = format!("{{{core}{sensors},\"per_sensor\":true}}");
            let one = post(single.host(), &body);
            let routed = post(router.host(), &body);
            assert_eq!(array_bytes(&routed), array_bytes(&one), "{body}");
            let doc = Json::parse(&routed).expect("router body parses");
            assert_eq!(doc.to_string_compact(), routed, "canonical form: {body}");
            let entries = doc
                .get("by_sensor")
                .and_then(Json::as_array)
                .expect("by_sensor");
            assert_eq!(entries.len(), wanted.len(), "{body}");
            for (entry, &k) in entries.iter().zip(&wanted) {
                assert_eq!(entry.get("sensor").and_then(Json::as_u64), Some(k.into()));
                let served = parse_pairs(entry.get("results").expect("results"));
                assert_eq!(served, per_sensor[k as usize], "sensor {k} of {body}");
                let events = oracle::true_events(&series[k as usize], &region);
                assert_eq!(
                    oracle::find_missed_event(&events, &served),
                    None,
                    "sensor {k} of {body}"
                );
            }
        }

        // A shard asked directly answers with the bytes the router
        // splices: its own sensors of the single process's entries.
        for (shard, bucket) in shards.iter().zip(&buckets) {
            let body = format!("{{{core},\"per_sensor\":true}}");
            let direct = post(shard.host(), &body);
            let direct = Json::parse(&direct).expect("shard body parses");
            let entries = direct
                .get("by_sensor")
                .and_then(Json::as_array)
                .expect("by_sensor");
            assert_eq!(entries.len(), bucket.len());
            for (entry, &k) in entries.iter().zip(bucket) {
                assert_eq!(
                    entry.get("results").expect("results").to_string_compact(),
                    pairs_json(&per_sensor[k as usize]).to_string_compact()
                );
            }
        }
    }
    assert!(
        pairs_seen > 100,
        "the regions must match something: {pairs_seen}"
    );

    // The shards have by now idled the router's pooled connections out
    // more than once; a stale one costs a reconnect, never a failover.
    let body = r#"{"kind":"drop","v":-2,"t_hours":1,"plan":"index"}"#;
    let before = post(router.host(), body);
    std::thread::sleep(SHARD_READ_TIMEOUT * 2);
    let after = post(router.host(), body);
    assert_eq!(array_bytes(&after), array_bytes(&before));
    assert_eq!(
        segdiff_repro::obs::global()
            .counter("router.shard_errors")
            .get(),
        0,
        "an idled-out connection must not count as a shard failure"
    );

    // Errors keep their shape through the router.
    let (status, text) = fetch(
        router.host(),
        "POST",
        "/query",
        Some(r#"{"kind":"drop","v":-2,"t_hours":1,"sensors":[99]}"#),
    )
    .expect("query");
    assert_eq!(status, 400, "{text}");
    assert!(text.starts_with(r#"{"error":"shard "#), "{text}");

    router.stop().expect("router run");
    for running in shards.into_iter().chain([single]) {
        running.stop().expect("server run");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&shard_dir).ok();
}
