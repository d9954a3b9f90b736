#![warn(missing_docs)]

//! **segdiff-server** — a concurrent HTTP query service over a SegDiff
//! index, built entirely on `std::net` (zero external dependencies).
//!
//! The paper evaluates SegDiff as an offline index; this crate turns it
//! into the online artifact a deployment would actually run: many
//! clients searching one shared index at once. The pieces:
//!
//! * [`http`] — minimal HTTP/1.1 framing (requests, responses,
//!   keep-alive, `Content-Length` bodies), shared by server and client;
//! * [`httpd`] — the one accept loop, worker pool and keep-alive
//!   connection loop, generic over a request handler; the router
//!   (`segdiff-router`) runs on it too;
//! * [`queue`] — the bounded accept queue between the non-blocking
//!   accept loop and the worker pool (`503` load-shedding when full);
//! * [`routes`] — the route table: every `(method, path)` the service
//!   answers, the query parameters it accepts and its handler, plus the
//!   dispatcher that answers 404/405/400 from the table;
//! * [`spec`] — the `/query` and `/subscribe` bodies, parsed and checked
//!   once into typed values;
//! * [`engine`] — the sensors a service answers from and the one query
//!   path over them;
//! * [`replica`] and [`rowstream`] — a warm replica, which applies a
//!   primary's shipped `segments` rows (`GET /segments`) to a live store;
//! * [`answer`] — the `/query` answer writer the router shares;
//! * [`service`] — the handlers: `POST /query`, `GET /metrics`,
//!   `GET /healthz`, `GET /series`, `GET /alerts`,
//!   `GET /debug/traces`, `POST /shutdown`, plus the standing-query
//!   surface: `POST /subscribe`, `GET /subscribe`,
//!   `GET /notifications?sub=&after=`, `DELETE /subscribe/<id>`, and
//!   the chunked live feed `GET /subscribe/<id>/stream`;
//! * [`observer`] — self-observation: the background thread sampling
//!   every registered metric into ring-buffered time series and feeding
//!   them through the paper's own drop/jump detection as standing
//!   alert rules;
//! * [`server`] — bind, run, flush on drain, and the SIGINT/SIGTERM
//!   latch ([`server::signal`]);
//! * [`loadgen`] — a closed-loop load generator with persistent
//!   connections, used by `segdiff loadgen` and the bench harness.
//!
//! Concurrent reads are safe because [`segdiff::SegDiffIndex::query`]
//! and `query_cached` take `&self`: a search generates its answer from
//! the sensor's resident `segments` run, shared behind an `Arc` that a
//! short lock hands out, and asks the buffer pool (one clock under one
//! mutex) for no page, so worker threads genuinely execute in parallel.
//! Repeated queries are
//! answered from the epoch-tagged result cache (`cache.*` counters).

pub mod answer;
pub mod engine;
pub mod http;
pub mod httpd;
pub mod loadgen;
pub mod observer;
pub mod queue;
pub mod replica;
pub mod routes;
pub mod rowstream;
pub mod server;
pub mod service;
pub mod spec;

pub use engine::Engine;
pub use http::{Request, Response};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use observer::{Observability, Observer};
pub use queue::BoundedQueue;
pub use replica::{Replica, ReplicaConfig};
pub use server::{Server, ServerConfig};
pub use service::{Service, ShardRole};
pub use spec::{QuerySpec, SubscribeSpec};

#[cfg(test)]
mod e2e_tests {
    use super::loadgen::{fetch, query_mix};
    use super::*;
    use obs::json::Json;
    use segdiff::{QueryPlan, SegDiffConfig, SegDiffIndex};
    use sensorgen::{generate_sensor, CadTransectConfig};
    use std::sync::Arc;
    use std::time::Duration;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("segdiff-server-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn build_index(dir: &std::path::Path) -> Arc<SegDiffIndex> {
        let series = generate_sensor(&CadTransectConfig::default().with_days(5).clean(), 12, 7);
        let mut idx = SegDiffIndex::create(dir, SegDiffConfig::default()).unwrap();
        idx.ingest_series(&series).unwrap();
        idx.finish().unwrap();
        idx.build_indexes().unwrap();
        Arc::new(idx)
    }

    fn start_server(idx: Arc<SegDiffIndex>, threads: usize) -> httpd::Running {
        Server::bind(
            "127.0.0.1:0",
            idx,
            ServerConfig {
                threads,
                queue_depth: 32,
                read_timeout: Duration::from_millis(250),
                sample_period: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
    }

    /// A search wider than the index window (8 h by default) is a 400
    /// that names the window and counts as a bad request — on `/query`,
    /// and on `/subscribe`, whose standing query would never hear a row —
    /// and the worker that took it is still there for the next request.
    /// A `T` of 300 digits in hours is named in a few.
    fn expect_window_400(host: &str) {
        let bad_before = obs::global().counter("server.bad_requests").get();
        let huge = r#"{"kind":"drop","v":-1,"t_seconds":1.7976931348623157e308}"#;
        for (route, too_long) in [
            ("/query", r#"{"kind":"drop","v":-2.0,"t_hours":8.5}"#),
            (
                "/query",
                r#"{"kind":"jump","v":2.0,"t_hours":9000,"plan":"scan","per_sensor":true}"#,
            ),
            ("/query", huge),
            ("/subscribe", r#"{"kind":"drop","v":-6,"t_hours":24}"#),
            (
                "/subscribe",
                r#"{"kind":"jump","v":2,"t_hours":8.5,"sensors":[0]}"#,
            ),
            ("/subscribe", huge),
        ] {
            let (status, body) = fetch(host, "POST", route, Some(too_long)).unwrap();
            assert_eq!(status, 400, "{route} {too_long}: {body}");
            assert!(body.len() < 256, "{route} {too_long}: {body}");
            let error = Json::parse(&body).unwrap();
            let error = error.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("window of 8 h"), "{too_long}: {error}");
        }
        let bad = obs::global().counter("server.bad_requests").get() - bad_before;
        assert!(bad >= 6, "server.bad_requests moved by {bad}");
        let at_the_window = r#"{"kind":"drop","v":-2.0,"t_hours":8}"#;
        for route in ["/query"; 8].into_iter().chain(["/subscribe"]) {
            let (status, body) = fetch(host, "POST", route, Some(at_the_window)).unwrap();
            assert_eq!(status, 200, "{route}: {body}");
        }
    }

    #[test]
    fn serves_queries_matching_offline_results() {
        let dir = TempDir::new("e2e");
        let idx = build_index(&dir.0);
        let (expected, _) = idx
            .query(
                &featurespace::QueryRegion::drop(3600.0, -2.0),
                QueryPlan::Index,
            )
            .unwrap();
        let running = start_server(Arc::clone(&idx), 4);
        let host = running.host().to_string();

        let (status, body) = fetch(&host, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

        let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
        let (status, body) = fetch(&host, "POST", "/query", Some(query)).unwrap();
        assert_eq!(status, 200, "body: {body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), expected.len());
        for (got, want) in results.iter().zip(expected.iter()) {
            assert_eq!(got.get("t_d").unwrap().as_f64().unwrap(), want.t_d);
            assert_eq!(got.get("t_a").unwrap().as_f64().unwrap(), want.t_a);
        }

        // Same query again: answered from the epoch-tagged cache.
        let (_, body) = fetch(&host, "POST", "/query", Some(query)).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("count").unwrap().as_u64().unwrap(),
            expected.len() as u64
        );

        // Traced query carries a span tree.
        let traced = r#"{"kind":"drop","v":-2.5,"t_hours":1.0,"plan":"scan","trace":true}"#;
        let (_, body) = fetch(&host, "POST", "/query", Some(traced)).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert!(doc.get("trace").is_some(), "missing trace: {body}");

        // Bad input is a 400, not a worker panic.
        let (status, _) = fetch(
            &host,
            "POST",
            "/query",
            Some(r#"{"kind":"drop","v":2.0,"t_hours":1.0}"#),
        )
        .unwrap();
        assert_eq!(status, 400);
        expect_window_400(&host);
        let (status, _) = fetch(&host, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);

        // Metrics dump includes server and cache counters.
        let (status, text) = fetch(&host, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("server.requests"), "metrics: {text}");
        assert!(text.contains("cache."), "metrics: {text}");

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    /// The transect engine serves the parallel fan-out path: a `/query`
    /// answer equals the offline `query_all` results concatenated in
    /// sensor order, whatever the pool size.
    #[test]
    fn serves_transect_fan_out_matching_offline_results() {
        use segdiff::TransectIndex;

        let dir = TempDir::new("transect");
        let cfg = CadTransectConfig::default()
            .with_days(3)
            .with_sensors(3)
            .clean();
        let mut t = TransectIndex::create(&dir.0, SegDiffConfig::default(), 3).unwrap();
        for k in 0..3 {
            t.ingest_series(k, &generate_sensor(&cfg, k, 7)).unwrap();
        }
        t.finish_all().unwrap();
        t.build_indexes_all().unwrap();
        let t = Arc::new(t);

        let region = featurespace::QueryRegion::drop(3600.0, -2.0);
        let (offline, _) = t.query_all(&region, QueryPlan::Index).unwrap();
        let expected: Vec<_> = offline.into_iter().flatten().collect();

        let server = Server::bind(
            "127.0.0.1:0",
            Engine::transect(Arc::clone(&t), 2),
            ServerConfig {
                threads: 4,
                queue_depth: 32,
                read_timeout: Duration::from_millis(250),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let running = server.spawn();
        let host = running.host().to_string();

        let (status, body) = fetch(&host, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("sensors").and_then(Json::as_u64), Some(3));

        let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
        let (status, body) = fetch(&host, "POST", "/query", Some(query)).unwrap();
        assert_eq!(status, 200, "body: {body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("sensors").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(false)));
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), expected.len());
        for (got, want) in results.iter().zip(expected.iter()) {
            assert_eq!(got.get("t_d").unwrap().as_f64().unwrap(), want.t_d);
            assert_eq!(got.get("t_a").unwrap().as_f64().unwrap(), want.t_a);
        }
        expect_window_400(&host);

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    /// The self-observation surface end to end: `/query` responses carry
    /// trace ids, `/debug/traces` retains the finished requests,
    /// `/series` serves the sampled metric history, `/alerts` lists the
    /// standing rules, and `/metrics?format=json` stamps every line with
    /// a `ts` field.
    #[test]
    fn observability_routes_serve_series_alerts_and_traces() {
        let dir = TempDir::new("observe");
        let idx = build_index(&dir.0);
        let running = start_server(idx, 2);
        let host = running.host().to_string();

        // A couple of queries to give the rings and series content.
        let query = r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#;
        let mut trace_ids = Vec::new();
        for _ in 0..3 {
            let (status, body) = fetch(&host, "POST", "/query", Some(query)).unwrap();
            assert_eq!(status, 200, "body: {body}");
            let doc = Json::parse(&body).unwrap();
            let id = doc.get("trace_id").and_then(Json::as_u64).unwrap();
            assert!(id > 0, "trace_id must be assigned: {body}");
            trace_ids.push(id);
        }
        assert!(
            trace_ids.windows(2).all(|w| w[0] != w[1]),
            "trace ids must be unique: {trace_ids:?}"
        );

        // The trace ring has the queries, newest first, with their ids.
        let (status, body) = fetch(&host, "GET", "/debug/traces?n=50", None).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        let traces = doc.get("traces").unwrap().as_array().unwrap();
        for id in &trace_ids {
            assert!(
                traces
                    .iter()
                    .any(|t| t.get("trace_id").and_then(Json::as_u64) == Some(*id)),
                "trace {id} missing from ring: {body}"
            );
        }
        // Full dump parses too and query traces carry span trees.
        let (status, body) = fetch(&host, "GET", "/debug/traces?n=50&full=1", None).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert!(
            doc.get("traces")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .any(
                    |t| t.get("name").and_then(Json::as_str) == Some("POST /query")
                        && t.get("trace").is_some()
                ),
            "query trace must include its span tree: {body}"
        );
        // The slow ring answers (possibly empty) and bad params are 400s.
        let (status, _) = fetch(&host, "GET", "/debug/traces?ring=slow", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = fetch(&host, "GET", "/debug/traces?ring=fast", None).unwrap();
        assert_eq!(status, 400);
        let (status, _) = fetch(&host, "GET", "/debug/traces?n=0", None).unwrap();
        assert_eq!(status, 400);

        // The sampler (50ms period here) publishes derived series.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = fetch(&host, "GET", "/series", None).unwrap();
            assert_eq!(status, 200);
            let doc = Json::parse(&body).unwrap();
            let names: Vec<String> = doc
                .get("series")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .filter_map(|j| j.as_str().map(str::to_string))
                .collect();
            if names.iter().any(|n| n == "server.requests.rate")
                && names.iter().any(|n| n == "server.inflight")
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never published request series: {names:?}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        let (status, body) = fetch(
            &host,
            "GET",
            "/series?name=server.requests.rate&window=1h",
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert!(
            doc.get("count").and_then(Json::as_u64).unwrap() >= 1,
            "windowed series must have points: {body}"
        );
        let (status, _) = fetch(&host, "GET", "/series?name=no.such.series", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = fetch(&host, "GET", "/series?name=x&window=soon", None).unwrap();
        assert_eq!(status, 400);

        // The standing rules are served; the clean run fired nothing...
        let (status, body) = fetch(&host, "GET", "/alerts", None).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        let rules = doc.get("rules").unwrap().as_array().unwrap();
        assert!(
            rules
                .iter()
                .any(|r| r.get("name").and_then(Json::as_str) == Some("query-latency-jump")),
            "default rules must be listed: {body}"
        );
        // ...from the latency-jump rule (the rate rule can legitimately
        // see the load stopping, so only the jump rule is asserted).
        assert!(
            !doc.get("alerts")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .any(|a| a.get("rule").and_then(Json::as_str) == Some("query-latency-jump")),
            "no latency alert on a clean baseline: {body}"
        );

        // Satellite: every JSON metrics line is stamped with `ts`.
        let (status, text) = fetch(&host, "GET", "/metrics?format=json", None).unwrap();
        assert_eq!(status, 200);
        let mut saw_gauge = false;
        for line in text.lines() {
            let j = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            assert!(
                j.get("ts").and_then(Json::as_u64).unwrap() > 0,
                "line missing ts: {line}"
            );
            if j.get("kind").and_then(Json::as_str) == Some("gauge") {
                saw_gauge = true;
            }
        }
        assert!(saw_gauge, "gauges must be exported: {text}");
        assert!(text.contains("server.inflight"), "{text}");
        assert!(text.contains("pool.resident_pages"), "{text}");

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    #[test]
    fn loadgen_closed_loop_round_trips() {
        let dir = TempDir::new("loadgen");
        let idx = build_index(&dir.0);
        let running = start_server(idx, 4);
        let host = running.host().to_string();

        let report = loadgen::run(&LoadgenConfig {
            host: host.clone(),
            concurrency: 4,
            duration: Duration::from_millis(600),
            bodies: query_mix(&featurespace::QueryRegion::drop(3600.0, -2.0)),
        })
        .unwrap();
        assert!(report.ok > 0, "no successful requests: {report:?}");
        assert_eq!(report.non_2xx, 0, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.latency.count == report.ok);
        assert!(report.latency.p50 <= report.latency.p99);

        // The mix repeats queries, so the server cache must have hits.
        let (_, text) = fetch(&host, "GET", "/metrics?format=json", None).unwrap();
        let hits: u64 = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|j| j.get("name").and_then(Json::as_str) == Some("cache.hit"))
            .filter_map(|j| j.get("value").and_then(Json::as_u64))
            .sum();
        assert!(hits > 0, "expected cache hits after repeated queries");

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    /// The standing-query surface end to end: register over HTTP, attach
    /// a live ingest to the server's registry, ingest a planted drop,
    /// and receive it through both delivery paths — the durable polling
    /// cursor and the chunked live stream — then unsubscribe.
    #[test]
    fn standing_queries_subscribe_ingest_poll_and_stream() {
        use super::http::{read_chunk, read_chunked_head, write_request};
        use std::io::BufReader;
        use std::net::TcpStream;

        let dir = TempDir::new("subs");
        let live_dir = TempDir::new("subs-live");
        let idx = build_index(&dir.0);
        let server = Server::bind(
            "127.0.0.1:0",
            idx,
            ServerConfig {
                threads: 4,
                queue_depth: 32,
                read_timeout: Duration::from_millis(250),
                sample_period: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let subs = Arc::clone(&server.service().observability().subs);
        let running = server.spawn();
        let host = running.host().to_string();

        // Register: the response echoes the stored subscription with id.
        let body = r#"{"label":"deep","kind":"drop","v":-3.0,"t_hours":1.0,"sensors":[7]}"#;
        let (status, resp) = fetch(&host, "POST", "/subscribe", Some(body)).unwrap();
        assert_eq!(status, 200, "body: {resp}");
        let doc = Json::parse(&resp).unwrap();
        let sub_id = doc.get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(doc.get("label").and_then(Json::as_str), Some("deep"));

        // It shows up in the listing.
        let (status, resp) = fetch(&host, "GET", "/subscribe", None).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(1));

        // Before any ingest: the cursor exists but is empty.
        let path = format!("/notifications?sub={sub_id}&after=0");
        let (status, resp) = fetch(&host, "GET", &path, None).unwrap();
        assert_eq!(status, 200, "body: {resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(0));

        // A live ingest path shares the server's registry: a second
        // index (sensor 7) pushes committed features into it.
        let mut live = SegDiffIndex::create(&live_dir.0, SegDiffConfig::default()).unwrap();
        live.attach_subscriptions(Arc::clone(&subs), 7);
        let mut series = sensorgen::TimeSeries::new();
        let mut v = 10.0;
        for i in 0..200 {
            let t = i as f64 * 300.0;
            if (80..86).contains(&i) {
                v -= 4.0 / 6.0; // a planted 4-degree drop over 30 min
            }
            series.push(t, v);
        }
        live.ingest_series(&series).unwrap();
        live.finish().unwrap();

        // The polling cursor delivers the planted drop.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let (first_seq, next_after) = loop {
            let (status, resp) = fetch(&host, "GET", &path, None).unwrap();
            assert_eq!(status, 200, "body: {resp}");
            let doc = Json::parse(&resp).unwrap();
            let notifications = doc.get("notifications").unwrap().as_array().unwrap();
            if let Some(n) = notifications.iter().find(|n| {
                n.get("t_d").and_then(Json::as_f64).unwrap() <= 25_800.0
                    && n.get("t_a").and_then(Json::as_f64).unwrap() >= 24_000.0
            }) {
                assert_eq!(n.get("sensor").and_then(Json::as_u64), Some(7));
                assert_eq!(n.get("kind").and_then(Json::as_str), Some("drop"));
                assert!(n.get("committed_ms").and_then(Json::as_u64).unwrap() > 0);
                break (
                    n.get("seq").and_then(Json::as_u64).unwrap(),
                    doc.get("next_after").and_then(Json::as_u64).unwrap(),
                );
            }
            assert!(
                std::time::Instant::now() < deadline,
                "planted drop never arrived: {resp}"
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        assert!(first_seq >= 1 && next_after >= first_seq);

        // Resuming past the cursor returns nothing new (exactly once).
        let (status, resp) = fetch(
            &host,
            "GET",
            &format!("/notifications?sub={sub_id}&after={next_after}"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(0), "{resp}");

        // The live stream replays from seq 0 and terminates after max=1:
        // hello line first, then the notification as an NDJSON chunk.
        let stream = TcpStream::connect(&host).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        write_request(
            &mut writer,
            "GET",
            &format!("/subscribe/{sub_id}/stream?after=0&max=1"),
            &host,
            None,
        )
        .unwrap();
        let (status, headers) = read_chunked_head(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked"));
        let hello = read_chunk(&mut reader).unwrap().unwrap();
        let hello = Json::parse(std::str::from_utf8(&hello).unwrap().trim()).unwrap();
        assert!(hello.get("stream").is_some(), "hello line: {hello:?}");
        let mut lines = Vec::new();
        while let Some(chunk) = read_chunk(&mut reader).unwrap() {
            let text = String::from_utf8(chunk).unwrap();
            lines.extend(text.lines().map(Json::parse).map(Result::unwrap));
        }
        assert!(
            lines
                .iter()
                .any(|l| l.get("seq").and_then(Json::as_u64) == Some(first_seq)),
            "stream must replay the notification: {lines:?}"
        );

        // Streaming an unknown subscription is an ordinary 404.
        let (status, resp) = fetch(&host, "GET", "/subscribe/999/stream", None).unwrap();
        assert_eq!(status, 404, "body: {resp}");

        // Unsubscribe; the cursor and the id are gone.
        let (status, _) = fetch(&host, "DELETE", &format!("/subscribe/{sub_id}"), None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = fetch(&host, "GET", &path, None).unwrap();
        assert_eq!(status, 404);

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    /// The PR 6 audit satellite: malformed or unknown query parameters
    /// are structured JSON 400 bodies on every route, old and new.
    #[test]
    fn malformed_query_params_are_structured_400s_everywhere() {
        let dir = TempDir::new("params");
        let idx = build_index(&dir.0);
        let running = start_server(idx, 2);
        let host = running.host().to_string();

        let expect_structured_400 = |method: &str, target: &str| {
            let (status, body) = fetch(&host, method, target, None).unwrap();
            assert_eq!(status, 400, "{method} {target}: {body}");
            let doc = Json::parse(&body)
                .unwrap_or_else(|e| panic!("{method} {target}: non-JSON 400 body {body:?}: {e}"));
            assert!(
                doc.get("error").and_then(Json::as_str).is_some(),
                "{method} {target}: 400 body must carry an error field: {body}"
            );
        };
        // Every route rejects a parameter it does not declare — the
        // dispatcher validates before any handler runs, so `/shutdown`
        // does not shut down and the stream is never opened.
        for def in routes::ROUTES {
            let target = format!("{}?bogus=1", def.path.replace("<id>", "1"));
            expect_structured_400(def.method, &target);
        }
        for (method, target) in [
            ("GET", "/metrics?format=xml"),
            ("GET", "/metrics?fmt=json"),
            ("GET", "/healthz?verbose=1"),
            ("GET", "/series?nam=x"),
            ("GET", "/series?name"), // pair without '='
            ("GET", "/alerts?after=soon"),
            ("GET", "/alerts?since=0"),
            ("GET", "/debug/traces?full=2"),
            ("GET", "/debug/traces?ring=fast"),
            ("GET", "/debug/traces?count=5"),
            ("GET", "/notifications"), // missing sub
            ("GET", "/notifications?sub=xyz"),
            ("GET", "/notifications?sub=1&max=0"),
            ("GET", "/notifications?sub=1&page=2"),
            ("GET", "/subscribe?x=1"),
            ("DELETE", "/subscribe/xyz"),
        ] {
            expect_structured_400(method, target);
        }
        // Bad subscription bodies too.
        let (status, body) = fetch(
            &host,
            "POST",
            "/subscribe",
            Some(r#"{"kind":"drop","v":2.0,"t_hours":1.0}"#),
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(Json::parse(&body).unwrap().get("error").is_some());
        // A well-formed search the index cannot answer: `t_hours` above
        // its window.
        let beyond = r#"{"kind":"drop","v":-2.0,"t_hours":24}"#;
        let (status, body) = fetch(&host, "POST", "/query", Some(beyond)).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(Json::parse(&body).unwrap().get("error").is_some());

        // And the unknowns stay 404 with an error body.
        for target in ["/notifications?sub=999", "/subscribe/999"] {
            let (status, body) = fetch(&host, "GET", target, None).unwrap();
            assert_eq!(status, 404, "{target}: {body}");
            assert!(Json::parse(&body).unwrap().get("error").is_some());
        }

        let (status, _) = fetch(&host, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
    }

    #[test]
    fn shutdown_flag_drains_and_stops() {
        let dir = TempDir::new("drain");
        let idx = build_index(&dir.0);
        let running = Server::bind("127.0.0.1:0", idx, ServerConfig::default())
            .unwrap()
            .spawn();
        let host = running.host().to_string();
        let (status, _) = fetch(&host, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        running.stop().unwrap();
        // The listener is gone: new connections are refused.
        assert!(fetch(&host, "GET", "/healthz", None).is_err());
    }

    /// Binds a server for `t` on `addr`, retrying while a port a stopped
    /// server held is still in use.
    fn rebind(addr: &str, t: &Arc<segdiff::TransectIndex>, config: &ServerConfig) -> Server {
        for _ in 0..40 {
            match Server::bind(addr, Engine::transect(Arc::clone(t), 2), config.clone()) {
                Ok(server) => return server,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        panic!("rebind {addr}");
    }

    /// The replication loop end to end over real HTTP, on the row stream.
    /// After every replica `round()`, each sensor's `segments()` on the
    /// replica is bit-equal to the primary's and the `/query` answers are
    /// byte-equal, across: a bootstrap; the primary's `compact_storage()`
    /// (a seal and feature-table cuts) between polls; a primary restart
    /// with more rows (tailed, no rebuild); a primary replaced by a
    /// different, shorter store (that sensor rebuilt from row 0, one
    /// `replica.rebuilds`); the replica's own `compact_storage()`; and
    /// more rows tailed onto the replica's sealed run.
    #[test]
    fn replica_bootstraps_tails_and_serves() {
        use segdiff::TransectIndex;
        use sensorgen::TimeSeries;

        let prim = TempDir::new("replica-prim");
        let rep = TempDir::new("replica-rep");
        let cfg = CadTransectConfig::default()
            .with_days(3)
            .with_sensors(2)
            .clean();
        let series = [generate_sensor(&cfg, 0, 7), generate_sensor(&cfg, 1, 7)];
        let (quarter, half) = (series[0].len() / 4, series[0].len() / 2);
        let part = |s: &TimeSeries, rows: std::ops::Range<usize>| {
            TimeSeries::from_parts(s.times()[rows.clone()].to_vec(), s.values()[rows].to_vec())
        };
        // A primary store: sensor 0 holds `rows` of its series, sensor 1
        // all of its own.
        let create = |rows: usize| {
            std::fs::remove_dir_all(&prim.0).ok();
            let mut t = TransectIndex::create(&prim.0, SegDiffConfig::default(), 2).unwrap();
            t.ingest_series(0, &series[0].prefix(rows)).unwrap();
            t.ingest_series(1, &series[1]).unwrap();
            t.finish_all().unwrap();
            t.build_indexes_all().unwrap();
            Arc::new(t)
        };
        // The primary reopened with sensor 0's `rows` ingested on top.
        let extend = |rows: std::ops::Range<usize>| {
            let mut t = TransectIndex::open(&prim.0, 4096).unwrap();
            t.ingest_series(0, &part(&series[0], rows)).unwrap();
            t.finish_all().unwrap();
            Arc::new(t)
        };

        let config = ServerConfig {
            threads: 2,
            queue_depth: 32,
            read_timeout: Duration::from_millis(250),
            ..ServerConfig::default()
        };
        let mut primary = create(half);
        let mut running = rebind("127.0.0.1:0", &primary, &config).spawn();
        let primary_host = running.host().to_string();

        let bodies = [
            r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#,
            r#"{"kind":"jump","v":1.5,"t_hours":2.5,"per_sensor":true}"#,
        ];
        let answers_of = |host: &str| -> Vec<String> {
            let answer = |body: &&str| {
                let (status, text) = fetch(host, "POST", "/query", Some(body)).unwrap();
                assert_eq!(status, 200, "body: {text}");
                let doc = Json::parse(&text).unwrap();
                let part = doc.get("results").or_else(|| doc.get("by_sensor"));
                part.unwrap().to_string_compact()
            };
            bodies.iter().map(answer).collect()
        };
        let bits = |rows: Vec<segmentation::Segment>| -> Vec<[u64; 4]> {
            let row = |s: &segmentation::Segment| [s.t_start, s.v_start, s.t_end, s.v_end];
            rows.iter().map(|s| row(s).map(f64::to_bits)).collect()
        };
        let rebuilds = || obs::global().counter("replica.rebuilds").get();

        let mut replica = Replica::bootstrap(ReplicaConfig {
            primary: primary_host.clone(),
            root: rep.0.clone(),
            threads: 2,
            ..ReplicaConfig::default()
        })
        .unwrap();
        assert_eq!(replica.sensor_ids(), vec![0, 1]);
        let engine = replica.engine();
        let rep_running = Server::bind(
            "127.0.0.1:0",
            engine.clone(),
            ServerConfig {
                role: ShardRole::Replica,
                ..config.clone()
            },
        )
        .unwrap()
        .spawn();
        let replica_host = rep_running.host().to_string();
        let mirrors = |primary: &TransectIndex, what: &str| {
            for sensor in 0..2 {
                let want = primary.sensor(sensor).unwrap().segments().unwrap();
                let got = engine.with_sensor(sensor, |i| i.segments().unwrap());
                assert!(
                    got.map(bits) == Some(bits(want)),
                    "{what}: sensor {sensor}'s rows differ"
                );
            }
            let want = answers_of(&primary_host);
            assert_eq!(answers_of(&replica_host), want, "{what}");
            want
        };

        let first = mirrors(&primary, "bootstrap");
        assert_ne!(first[0], "[]", "the CAD tides must produce drop results");
        let (status, body) = fetch(&replica_host, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let health = Json::parse(&body).unwrap();
        assert_eq!(health.get("role").and_then(Json::as_str), Some("replica"));
        let rows: u64 = (0..2)
            .map(|s| primary.sensor(s).unwrap().stats().n_segments)
            .sum();
        assert_eq!(
            health.get("applied_rows").and_then(Json::as_u64),
            Some(rows),
            "replica /healthz must report the rows it applied: {body}"
        );
        assert_eq!(health.get("sensors").and_then(Json::as_u64), Some(2));
        expect_window_400(&replica_host);
        let rebuilt = rebuilds();

        // A seal and cuts on the served primary between two polls.
        for sensor in 0..2 {
            primary.sensor(sensor).unwrap().compact_storage().unwrap();
        }
        replica.round().unwrap();
        mirrors(&primary, "primary compacted between polls");

        // A restart with more rows: sensor 0 tails across a seal.
        running.stop().unwrap();
        drop(primary);
        primary = extend(half..series[0].len());
        primary.sensor(0).unwrap().compact_storage().unwrap();
        running = rebind(&primary_host, &primary, &config).spawn();
        replica.round().unwrap();
        let longer = mirrors(&primary, "primary restarted with more rows");
        assert_ne!(longer, first, "the second half must change the answers");
        assert_eq!(rebuilds(), rebuilt, "a longer primary is tailed");

        // A different, shorter store: sensor 0 rebuilds from row 0, and
        // sensor 1 (the same rows again) is left as it is.
        running.stop().unwrap();
        drop(primary);
        primary = create(quarter);
        running = rebind(&primary_host, &primary, &config).spawn();
        replica.round().unwrap();
        let shorter = mirrors(&primary, "primary replaced by a shorter store");
        assert_eq!(rebuilds(), rebuilt + 1, "one sensor rebuilt");

        // The replica compacts on its own; its answers do not move, and
        // rows shipped later append behind its sealed run.
        for sensor in 0..2 {
            let compacted = engine.with_sensor(sensor, |i| i.compact_storage().map(drop));
            assert!(matches!(compacted, Some(Ok(()))), "sensor {sensor}");
        }
        assert_eq!(answers_of(&replica_host), shorter, "replica compacted");
        replica.round().unwrap();
        mirrors(&primary, "replica compacted");
        running.stop().unwrap();
        drop(primary);
        primary = extend(quarter..half);
        running = rebind(&primary_host, &primary, &config).spawn();
        replica.round().unwrap();
        mirrors(&primary, "rows tailed onto the replica's sealed run");
        assert_eq!(rebuilds(), rebuilt + 1);

        for host in [&primary_host, &replica_host] {
            let (status, _) = fetch(host, "POST", "/shutdown", None).unwrap();
            assert_eq!(status, 200);
        }
        running.stop().unwrap();
        rep_running.stop().unwrap();
    }
}
