//! CI gate for the sharded serving tier (DESIGN.md §5i).
//!
//! The smoke builds a small transect, partitions its sensors with the
//! same consistent-hash ring `segdiff router` uses, and launches the
//! real deployment shape as separate OS processes: one `segdiff serve`
//! per shard, one warm replica applying shard 0's shipped rows, and a
//! `segdiff router` in front. It then asserts the tentpole claims:
//!
//! 1. **Byte identity** — the router's `results` array for a
//!    scatter–gathered query equals, byte for byte, the answer of a
//!    single in-process server over the whole transect.
//! 2. **Tail latency** — a closed-loop load run through the router
//!    stays under the `ci/serving-guard.json` p99 bound.
//! 3. **Failover** — SIGKILL of shard 0's primary degrades nothing:
//!    reads fail over to the warm replica (the time to the first
//!    successful retry is recorded), and the answers still match.
//! 4. **Blast radius** — SIGKILL of a replica-less shard degrades only
//!    that shard's sensors: queries touching them get a structured 503
//!    naming exactly those sensors, queries avoiding them still 200.
//!
//! Separate processes are the point: `kill(2)` on a real primary is the
//! failure the router must survive, and no in-process harness can fake
//! the half-open sockets it leaves behind.

use crate::gate::{await_until, Gate, Proc};
use crate::harness::scratch_dir;
use featurespace::QueryRegion;
use obs::json::Json;
use router::Ring;
use segdiff::{SegDiffConfig, TransectIndex};
use segdiff_server::loadgen::{self, fetch, query_mix};
use segdiff_server::{Engine, LoadgenConfig, Server, ServerConfig};
use sensorgen::{generate_sensor, CadTransectConfig, HOUR};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the `clustersmoke` binary parses.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Path to the `segdiff` binary to spawn shards and the router from.
    pub segdiff: PathBuf,
    /// Artifact directory (shard/replica/router logs, `summary.json`).
    pub out: Option<PathBuf>,
    /// Shard count.
    pub shards: usize,
    /// Sensors in the generated transect.
    pub sensors: u32,
    /// Days of data per sensor.
    pub days: u32,
    /// Load phase duration.
    pub duration: Duration,
    /// Router health-probe interval.
    pub health_interval_ms: u64,
    /// Optional guard file with a `max_p99_ms` bound for the load phase.
    pub guard: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            segdiff: PathBuf::from("./target/release/segdiff"),
            out: None,
            shards: 4,
            sensors: 12,
            days: 3,
            duration: Duration::from_secs(5),
            health_interval_ms: 200,
            guard: None,
        }
    }
}

/// Builds the transect dataset all shards are carved from.
fn build_transect(root: &Path, sensors: u32, days: u32) -> Result<(), String> {
    let cfg = CadTransectConfig::default()
        .with_days(days)
        .with_sensors(sensors)
        .clean();
    let mut t = TransectIndex::create(root, SegDiffConfig::default(), sensors)
        .map_err(|e| format!("create transect: {e}"))?;
    for k in 0..sensors {
        t.ingest_series(k, &generate_sensor(&cfg, k, 7))
            .map_err(|e| format!("ingest sensor {k}: {e}"))?;
    }
    t.finish_all().map_err(|e| format!("finish: {e}"))?;
    t.build_indexes_all()
        .map_err(|e| format!("build indexes: {e}"))?;
    Ok(())
}

/// Recursive copy (the per-sensor stores are a handful of small files).
/// Every shard process gets a private copy of its sensors so no two
/// pagestore instances ever share a file.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_dir(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// POSTs `body` to `/query`, returning `(status, parsed)`.
fn post_query(host: &str, body: &str) -> Result<(u16, Json), String> {
    let (status, text) = fetch(host, "POST", "/query", Some(body))?;
    let doc = Json::parse(&text).map_err(|e| format!("bad /query response {text:?}: {e}"))?;
    Ok((status, doc))
}

/// The canonical probe body, optionally restricted to `sensors`.
fn probe_body(sensors: Option<&[u32]>) -> String {
    let filter = sensors.map_or(String::new(), |ids| {
        let csv: Vec<String> = ids.iter().map(ToString::to_string).collect();
        format!(r#","sensors":[{}]"#, csv.join(","))
    });
    format!(r#"{{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"{filter}}}"#)
}

/// The `results` array of a 200 answer, re-serialized compactly. Both
/// sides of every byte-identity check go through this, so equal strings
/// mean the parsed values round-trip to the same bytes.
fn results_bytes(host: &str, body: &str) -> Result<String, String> {
    let (status, doc) = post_query(host, body)?;
    if status != 200 {
        return Err(format!("POST /query returned {status}: {doc}"));
    }
    Ok(doc
        .get("results")
        .map(Json::to_string_compact)
        .unwrap_or_default())
}

/// The `unavailable_sensors` list of a 503 answer.
fn unavailable_sensors(doc: &Json) -> Vec<u64> {
    let list = doc.get("unavailable_sensors").and_then(Json::as_array);
    list.unwrap_or_default()
        .iter()
        .filter_map(Json::as_u64)
        .collect()
}

/// Runs the whole smoke, recording every assertion in `gate`. `Err` is
/// an infrastructure failure (nothing more could be measured). Every
/// process log lands under `cfg.out`.
pub fn run_clustersmoke(cfg: &ClusterConfig, gate: &mut Gate) -> Result<(), String> {
    let dir = scratch_dir("clustersmoke");
    std::fs::remove_dir_all(&dir).ok();
    let root = dir.join("transect");
    eprintln!(
        "clustersmoke: building {} sensors x {} days under {}",
        cfg.sensors,
        cfg.days,
        root.display()
    );
    build_transect(&root, cfg.sensors, cfg.days)?;

    let ids: Vec<u32> = (0..cfg.sensors).collect();
    let ring = Ring::new(cfg.shards);
    let buckets = ring.partition(&ids);
    if let Some(shard) = buckets.iter().position(Vec::is_empty) {
        let hint = "raise --sensors or lower --shards";
        return Err(format!("shard {shard} owns no sensors; {hint}"));
    }
    let assignment = buckets
        .iter()
        .map(|b| Json::Array(b.iter().map(|&s| Json::from(s)).collect()));
    gate.field("shards", buckets.len());
    gate.field("assignment", Json::Array(assignment.collect()));

    let logs = cfg.out.clone().unwrap_or_else(|| dir.join("logs"));
    std::fs::create_dir_all(&logs).map_err(|e| format!("mkdir {}: {e}", logs.display()))?;

    // The single-process reference: an in-process server over the whole
    // transect. Every byte-identity check compares against it.
    let reference = Server::bind(
        "127.0.0.1:0",
        Engine::transect(
            Arc::new(TransectIndex::open(&root, 4096).map_err(|e| e.to_string())?),
            4,
        ),
        ServerConfig::default(),
    )
    .map_err(|e| format!("bind reference server: {e}"))?
    .spawn();
    let ref_host = reference.host().to_string();

    // One private store copy + one `segdiff serve` process per shard, each
    // on a port the OS picks; `Proc::serve` reads it from the banner.
    let mut procs: Vec<Proc> = Vec::new();
    for (shard, bucket) in buckets.iter().enumerate() {
        let shard_root = dir.join(format!("shard-{shard}"));
        for &sensor in bucket {
            copy_dir(
                &root.join(format!("sensor-{sensor}")),
                &shard_root.join(format!("sensor-{sensor}")),
            )?;
        }
        let csv: Vec<String> = bucket.iter().map(ToString::to_string).collect();
        let shard_root = shard_root.display().to_string();
        let args = ["serve", "--index", &shard_root, "--sensors", &csv.join(",")];
        procs.push(Proc::serve(
            &cfg.segdiff,
            args.into_iter().chain(["--port", "0", "--threads", "4"]),
            &logs.join(format!("shard-{shard}.log")),
        )?);
    }

    // Warm replica of shard 0: applies the primary's `segments` rows from
    // row 0 over HTTP, then polls for more.
    let replica_root = dir.join("replica-0").display().to_string();
    let primary = format!("http://{}", procs[0].host);
    let args = ["serve", "--index", &replica_root, "--replica-of", &primary];
    let args = args.into_iter().chain(["--port", "0", "--poll-ms", "100"]);
    let replica = Proc::serve(&cfg.segdiff, args, &logs.join("replica-0.log"))?;

    // The router over all shards, replica attached to shard 0.
    let interval = cfg.health_interval_ms.to_string();
    let mut router_args = ["router", "--port", "0", "--health-interval-ms", &interval]
        .map(String::from)
        .to_vec();
    for (shard, p) in procs.iter().enumerate() {
        let spec = match shard {
            0 => format!("{},{}", p.host, replica.host),
            _ => p.host.clone(),
        };
        router_args.extend(["--shard".to_string(), spec]);
    }
    let router = Proc::serve(&cfg.segdiff, &router_args, &logs.join("router.log"))?;
    let router_host = router.host.clone();
    await_until(Duration::from_secs(30), "router status ok", || {
        let (status, body) = fetch(&router_host, "GET", "/healthz", None).ok()?;
        let doc = Json::parse(&body).ok()?;
        (status == 200 && doc.get("status").and_then(Json::as_str) == Some("ok")).then_some(())
    })?;

    // 1. Byte identity, full fan-out and per-shard subsets.
    let want = results_bytes(&ref_host, &probe_body(None))?;
    let got = results_bytes(&router_host, &probe_body(None))?;
    gate.check(
        "scatter-gather bytes == single-process bytes",
        want == got,
        format!("reference {} bytes, router {} bytes", want.len(), got.len()),
    );
    for (shard, bucket) in buckets.iter().enumerate() {
        let body = probe_body(Some(bucket));
        let want = results_bytes(&ref_host, &body)?;
        let got = results_bytes(&router_host, &body)?;
        gate.check(
            &format!("shard {shard} subset bytes match"),
            want == got,
            format!("reference {} bytes, router {} bytes", want.len(), got.len()),
        );
    }

    // 2. Load through the router under the serving p99 guard.
    let report = loadgen::run(&LoadgenConfig {
        host: router_host.clone(),
        concurrency: 8,
        duration: cfg.duration,
        bodies: query_mix(&QueryRegion::drop(HOUR, -2.0)),
    })?;
    gate.field("load_ok", report.ok);
    gate.field("load_failures", report.non_2xx + report.errors);
    gate.field("qps", report.qps());
    gate.field("p99_ms", report.latency.p99 as f64 / 1e6);
    gate.check(
        "load phase completed cleanly",
        report.ok > 0 && report.errors == 0 && report.non_2xx == 0,
        format!(
            "{} ok, {} non-2xx, {} errors",
            report.ok, report.non_2xx, report.errors
        ),
    );
    if let Some(guard_path) = &cfg.guard {
        let verdict = loadgen::check_p99_guard(&report.latency, guard_path);
        gate.check(
            "router p99 within guard",
            verdict.is_ok(),
            verdict.unwrap_or_else(|e| e),
        );
    }

    // 3. Kill shard 0's primary: reads must fail over to the replica
    //    and the answers must still match the reference.
    procs[0].kill();
    eprintln!(
        "clustersmoke: killed {} (primary of shard 0)",
        procs[0].name
    );
    let body0 = probe_body(Some(&buckets[0]));
    let killed_at = Instant::now();
    let after_failover = await_until(
        Duration::from_secs(10),
        "failover to shard 0's replica",
        || match post_query(&router_host, &body0) {
            Ok((200, doc)) => Some(doc.get("results").map(Json::to_string_compact)),
            _ => None,
        },
    )?;
    let failover_ms = killed_at.elapsed().as_millis() as u64;
    gate.field("failover_ms", failover_ms);
    let want0 = results_bytes(&ref_host, &body0)?;
    gate.check(
        "replica answers shard 0 byte-identically",
        after_failover.as_deref() == Some(want0.as_str()),
        format!(
            "reference {} bytes, replica answer {} bytes",
            want0.len(),
            after_failover.map_or(0, |s| s.len())
        ),
    );
    // Sooner is fine (request-path failure triggers an immediate
    // re-probe); much later than two probe intervals plus transport
    // slack means the state machine is stuck.
    gate.check(
        "failover within two health-check intervals",
        failover_ms <= 2 * cfg.health_interval_ms + 1_000,
        format!(
            "took {failover_ms} ms (interval {} ms)",
            cfg.health_interval_ms
        ),
    );

    // 4. Kill a replica-less shard: its sensors 503 with exact blast
    //    radius, every other shard keeps answering.
    procs[1].kill();
    eprintln!("clustersmoke: killed {} (no replica)", procs[1].name);
    let body1 = probe_body(Some(&buckets[1]));
    let unavailable = await_until(
        Duration::from_secs(10),
        "structured 503 for the dead shard",
        || match post_query(&router_host, &body1) {
            Ok((503, doc)) => Some(unavailable_sensors(&doc)),
            _ => None,
        },
    )?;
    let want_unavailable: Vec<u64> = buckets[1].iter().map(|&s| u64::from(s)).collect();
    let listed = Json::Array(unavailable.iter().map(|&s| Json::from(s)).collect());
    gate.field("unavailable_sensors", listed);
    gate.check(
        "503 names exactly the dead shard's sensors",
        unavailable == want_unavailable,
        format!("got {unavailable:?}, want {want_unavailable:?}"),
    );
    // A full fan-out query needs shard 1, so it degrades too — with the
    // same sensor list, nothing more.
    let (status, doc) = post_query(&router_host, &probe_body(None))?;
    gate.check(
        "full fan-out degrades with the same blast radius",
        status == 503 && unavailable_sensors(&doc) == want_unavailable,
        format!("got {status}: {doc}; want 503 naming {want_unavailable:?}"),
    );
    // Queries that avoid the dead shard still answer byte-identically.
    let survivors: Vec<u32> = buckets
        .iter()
        .enumerate()
        .filter(|&(shard, _)| shard != 1)
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    let body_rest = probe_body(Some(&survivors));
    let want_rest = results_bytes(&ref_host, &body_rest)?;
    let got_rest = results_bytes(&router_host, &body_rest)?;
    gate.check(
        "surviving shards still answer byte-identically",
        want_rest == got_rest,
        format!(
            "reference {} bytes, router {} bytes",
            want_rest.len(),
            got_rest.len()
        ),
    );

    // Teardown. Children die via Drop; the reference drains cleanly.
    drop((procs, replica, router));
    reference
        .stop()
        .map_err(|e| format!("reference server: {e}"))?;
    std::fs::remove_dir_all(dir.join("transect")).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default smoke topology must give every shard work — this is
    /// the same deterministic ring the router and launcher build, so a
    /// green test here means the CI job cannot die on an empty bucket.
    #[test]
    fn default_assignment_fills_every_shard() {
        let cfg = ClusterConfig::default();
        let ids: Vec<u32> = (0..cfg.sensors).collect();
        let buckets = Ring::new(cfg.shards).partition(&ids);
        assert_eq!(buckets.len(), cfg.shards);
        assert_eq!(
            buckets.iter().map(Vec::len).sum::<usize>(),
            cfg.sensors as usize
        );
        for (shard, bucket) in buckets.iter().enumerate() {
            assert!(!bucket.is_empty(), "shard {shard} owns no sensors");
        }
    }

    #[test]
    fn probe_bodies_parse_as_query_specs() {
        use segdiff_server::QuerySpec;
        let spec = QuerySpec::from_json(&probe_body(None)).expect("full body");
        assert!(spec.sensors.is_empty());
        let spec = QuerySpec::from_json(&probe_body(Some(&[3, 5]))).expect("subset body");
        assert_eq!(spec.sensors, vec![3, 5]);
    }
}
