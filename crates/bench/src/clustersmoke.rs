//! CI gate for the sharded serving tier (DESIGN.md §5i).
//!
//! The smoke builds a small transect, partitions its sensors with the
//! same consistent-hash ring `segdiff router` uses, and launches the
//! real deployment shape as separate OS processes: one `segdiff serve`
//! per shard, one warm replica tailing shard 0's WAL, and a
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

use crate::harness::scratch_dir;
use obs::json::Json;
use router::Ring;
use segdiff::{SegDiffConfig, TransectIndex};
use segdiff_server::loadgen::{self, fetch, query_mix};
use segdiff_server::{Engine, LoadgenConfig, Server, ServerConfig};
use sensorgen::{generate_sensor, CadTransectConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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
    /// Router listens on `base_port`; shard `i` on `base_port + 1 + i`;
    /// the replica on `base_port + 30`.
    pub base_port: u16,
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
            base_port: 7700,
            duration: Duration::from_secs(5),
            health_interval_ms: 200,
            guard: None,
        }
    }
}

/// What one smoke run measured; `failures` empty means PASS.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Sensor ids owned by each shard (ring assignment).
    pub buckets: Vec<Vec<u32>>,
    /// Router endpoint used for all client traffic.
    pub router_host: String,
    /// Completed 2xx requests in the load phase.
    pub ok: u64,
    /// Non-2xx plus transport errors in the load phase.
    pub load_failures: u64,
    /// Load-phase throughput.
    pub qps: f64,
    /// Load-phase p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Wall time from SIGKILL of shard 0's primary to the first
    /// successful read through the replica.
    pub failover_ms: u64,
    /// `unavailable_sensors` reported after the replica-less shard died.
    pub unavailable: Vec<u64>,
    /// Every failed assertion, in order.
    pub failures: Vec<String>,
}

/// A spawned cluster member, killed on drop so a failed run never
/// leaves orphans behind.
struct Proc {
    name: String,
    child: Child,
}

impl Proc {
    fn kill(&mut self) {
        // SIGKILL: teardown mirrors the fault the smoke injects.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
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

/// Spawns one `segdiff` subcommand with stdout+stderr into `log`.
fn spawn_segdiff(binary: &Path, name: &str, args: &[String], log: &Path) -> Result<Proc, String> {
    let out = std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("clone log handle: {e}"))?;
    let child = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {name} ({}): {e}", binary.display()))?;
    Ok(Proc {
        name: name.to_string(),
        child,
    })
}

/// Polls `f` every 50 ms until it yields, or fails after `deadline`.
fn await_until<T>(
    deadline: Duration,
    what: &str,
    mut f: impl FnMut() -> Option<T>,
) -> Result<T, String> {
    let t0 = Instant::now();
    loop {
        if let Some(v) = f() {
            return Ok(v);
        }
        if t0.elapsed() > deadline {
            return Err(format!("timed out after {deadline:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `true` once `host` answers `GET /healthz` with 200.
fn is_healthy(host: &str) -> bool {
    matches!(fetch(host, "GET", "/healthz", None), Ok((200, _)))
}

/// POSTs `body` to `/query`, returning `(status, parsed)`.
fn post_query(host: &str, body: &str) -> Result<(u16, Json), String> {
    let (status, text) = fetch(host, "POST", "/query", Some(body))?;
    let doc = Json::parse(&text).map_err(|e| format!("bad /query response {text:?}: {e}"))?;
    Ok((status, doc))
}

/// The canonical probe body, optionally restricted to `sensors`.
fn probe_body(sensors: Option<&[u32]>) -> String {
    match sensors {
        None => r#"{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index"}"#.to_string(),
        Some(ids) => {
            let csv: Vec<String> = ids.iter().map(ToString::to_string).collect();
            format!(
                r#"{{"kind":"drop","v":-2.0,"t_hours":1.0,"plan":"index","sensors":[{}]}}"#,
                csv.join(",")
            )
        }
    }
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

/// Runs the whole smoke. `Err` is an infrastructure failure (nothing
/// could be measured); assertion failures land in `outcome.failures`.
pub fn run_clustersmoke(cfg: &ClusterConfig) -> Result<ClusterOutcome, String> {
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
    for (shard, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            return Err(format!(
                "shard {shard} owns no sensors; raise --sensors or lower --shards"
            ));
        }
    }

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

    // One private store copy + one `segdiff serve` process per shard.
    let host_of = |port: u16| format!("127.0.0.1:{port}");
    let mut procs: Vec<Proc> = Vec::new();
    let mut shard_hosts = Vec::new();
    for (shard, bucket) in buckets.iter().enumerate() {
        let shard_root = dir.join(format!("shard-{shard}"));
        for &sensor in bucket {
            copy_dir(
                &root.join(format!("sensor-{sensor}")),
                &shard_root.join(format!("sensor-{sensor}")),
            )?;
        }
        let port = cfg.base_port + 1 + shard as u16;
        let csv: Vec<String> = bucket.iter().map(ToString::to_string).collect();
        let args = vec![
            "serve".to_string(),
            "--index".to_string(),
            shard_root.display().to_string(),
            "--sensors".to_string(),
            csv.join(","),
            "--port".to_string(),
            port.to_string(),
            "--threads".to_string(),
            "4".to_string(),
        ];
        procs.push(spawn_segdiff(
            &cfg.segdiff,
            &format!("shard-{shard}"),
            &args,
            &logs.join(format!("shard-{shard}.log")),
        )?);
        shard_hosts.push(host_of(port));
    }
    for host in &shard_hosts {
        let host = host.clone();
        await_until(Duration::from_secs(30), &format!("shard at {host}"), || {
            is_healthy(&host).then_some(())
        })?;
    }

    // Warm replica of shard 0: bootstraps a snapshot over HTTP, then
    // tails the primary's WAL.
    let replica_port = cfg.base_port + 30;
    let replica_host = host_of(replica_port);
    let replica_args = vec![
        "serve".to_string(),
        "--index".to_string(),
        dir.join("replica-0").display().to_string(),
        "--replica-of".to_string(),
        format!("http://{}", shard_hosts[0]),
        "--port".to_string(),
        replica_port.to_string(),
        "--poll-ms".to_string(),
        "100".to_string(),
    ];
    procs.push(spawn_segdiff(
        &cfg.segdiff,
        "replica-0",
        &replica_args,
        &logs.join("replica-0.log"),
    )?);
    await_until(Duration::from_secs(30), "replica of shard 0", || {
        is_healthy(&replica_host).then_some(())
    })?;

    // The router over all shards, replica attached to shard 0.
    let router_host = host_of(cfg.base_port);
    let mut router_args = vec![
        "router".to_string(),
        "--port".to_string(),
        cfg.base_port.to_string(),
        "--health-interval-ms".to_string(),
        cfg.health_interval_ms.to_string(),
    ];
    for (shard, host) in shard_hosts.iter().enumerate() {
        router_args.push("--shard".to_string());
        if shard == 0 {
            router_args.push(format!("{host},{replica_host}"));
        } else {
            router_args.push(host.clone());
        }
    }
    procs.push(spawn_segdiff(
        &cfg.segdiff,
        "router",
        &router_args,
        &logs.join("router.log"),
    )?);
    {
        let router_host = router_host.clone();
        await_until(Duration::from_secs(30), "router status ok", move || {
            let (status, body) = fetch(&router_host, "GET", "/healthz", None).ok()?;
            let doc = Json::parse(&body).ok()?;
            (status == 200 && doc.get("status").and_then(Json::as_str) == Some("ok")).then_some(())
        })?;
    }

    let mut failures = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        if ok {
            eprintln!("clustersmoke: ok: {name}");
        } else {
            eprintln!("clustersmoke: FAIL: {name}: {detail}");
            failures.push(format!("{name}: {detail}"));
        }
    };

    // 1. Byte identity, full fan-out and per-shard subsets.
    let want = results_bytes(&ref_host, &probe_body(None))?;
    let got = results_bytes(&router_host, &probe_body(None))?;
    check(
        "scatter-gather bytes == single-process bytes",
        want == got,
        format!("reference {} bytes, router {} bytes", want.len(), got.len()),
    );
    for (shard, bucket) in buckets.iter().enumerate() {
        let body = probe_body(Some(bucket));
        let want = results_bytes(&ref_host, &body)?;
        let got = results_bytes(&router_host, &body)?;
        check(
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
        bodies: query_mix("drop", -2.0, 1.0),
    })?;
    let p99_ms = report.latency.p99 as f64 / 1e6;
    check(
        "load phase completed cleanly",
        report.ok > 0 && report.errors == 0 && report.non_2xx == 0,
        format!(
            "{} ok, {} non-2xx, {} errors",
            report.ok, report.non_2xx, report.errors
        ),
    );
    if let Some(guard_path) = &cfg.guard {
        let verdict = loadgen::check_p99_guard(&report.latency, guard_path);
        check(
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
    let after_failover = {
        let router_host = router_host.clone();
        let body0 = body0.clone();
        await_until(
            Duration::from_secs(10),
            "failover to shard 0's replica",
            move || match post_query(&router_host, &body0) {
                Ok((200, doc)) => Some(doc.get("results").map(Json::to_string_compact)),
                _ => None,
            },
        )?
    };
    let failover_ms = killed_at.elapsed().as_millis() as u64;
    let want0 = results_bytes(&ref_host, &body0)?;
    check(
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
    check(
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
    let unavailable = {
        let router_host = router_host.clone();
        await_until(
            Duration::from_secs(10),
            "structured 503 for the dead shard",
            move || match post_query(&router_host, &body1) {
                Ok((503, doc)) => Some(
                    doc.get("unavailable_sensors")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect::<Vec<u64>>())
                        .unwrap_or_default(),
                ),
                _ => None,
            },
        )?
    };
    let want_unavailable: Vec<u64> = buckets[1].iter().map(|&s| u64::from(s)).collect();
    check(
        "503 names exactly the dead shard's sensors",
        unavailable == want_unavailable,
        format!("got {unavailable:?}, want {want_unavailable:?}"),
    );
    // A full fan-out query needs shard 1, so it degrades too — with the
    // same sensor list, nothing more.
    match post_query(&router_host, &probe_body(None))? {
        (503, doc) => {
            let got: Vec<u64> = doc
                .get("unavailable_sensors")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default();
            check(
                "full fan-out degrades with the same blast radius",
                got == want_unavailable,
                format!("got {got:?}, want {want_unavailable:?}"),
            );
        }
        (status, doc) => check(
            "full fan-out degrades with the same blast radius",
            false,
            format!("got {status}: {doc}"),
        ),
    }
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
    check(
        "surviving shards still answer byte-identically",
        want_rest == got_rest,
        format!(
            "reference {} bytes, router {} bytes",
            want_rest.len(),
            got_rest.len()
        ),
    );

    // Teardown. Children die via Drop; the reference drains cleanly.
    drop(procs);
    reference
        .stop()
        .map_err(|e| format!("reference server: {e}"))?;
    std::fs::remove_dir_all(dir.join("transect")).ok();

    Ok(ClusterOutcome {
        buckets,
        router_host,
        ok: report.ok,
        load_failures: report.non_2xx + report.errors,
        qps: report.qps(),
        p99_ms,
        failover_ms,
        unavailable,
        failures,
    })
}

/// Renders the verdict CI uploads as `summary.json`.
pub fn summary_json(outcome: &ClusterOutcome) -> Json {
    Json::obj([
        ("pass", Json::Bool(outcome.failures.is_empty())),
        ("shards", Json::from(outcome.buckets.len() as u64)),
        (
            "assignment",
            Json::Array(
                outcome
                    .buckets
                    .iter()
                    .map(|b| Json::Array(b.iter().map(|&s| Json::from(u64::from(s))).collect()))
                    .collect(),
            ),
        ),
        ("load_ok", Json::from(outcome.ok)),
        ("load_failures", Json::from(outcome.load_failures)),
        ("qps", Json::from(outcome.qps)),
        ("p99_ms", Json::from(outcome.p99_ms)),
        ("failover_ms", Json::from(outcome.failover_ms)),
        (
            "unavailable_sensors",
            Json::Array(outcome.unavailable.iter().map(|&s| Json::from(s)).collect()),
        ),
        (
            "failures",
            Json::Array(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Writes `summary.json` under `dir`.
pub fn write_summary(dir: &Path, summary: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut f = std::fs::File::create(dir.join("summary.json"))
        .map_err(|e| format!("create summary.json: {e}"))?;
    writeln!(f, "{summary}").map_err(|e| format!("write summary.json: {e}"))
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

    #[test]
    fn summary_round_trips() {
        let outcome = ClusterOutcome {
            buckets: vec![vec![0, 2], vec![1]],
            router_host: "127.0.0.1:7700".to_string(),
            ok: 100,
            load_failures: 0,
            qps: 50.0,
            p99_ms: 12.5,
            failover_ms: 180,
            unavailable: vec![1],
            failures: Vec::new(),
        };
        let doc = summary_json(&outcome);
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
        let parsed = Json::parse(&doc.to_string_compact()).expect("round trip");
        assert_eq!(parsed.get("failover_ms").and_then(Json::as_u64), Some(180));
    }
}
