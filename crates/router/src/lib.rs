//! Cluster front-end for sharded segdiff serving.
//!
//! `segdiff router` runs this: a process that owns no data, only a
//! [`Ring`] (consistent hash of sensor ids onto N shards), a
//! [`HealthBoard`] (per-shard primary→replica→down failover state fed
//! by background `/healthz` probes), and a scatter–gather executor for
//! `POST /query` (see [`scatter`]). Shards are ordinary `segdiff serve`
//! processes — each owns its heaps, WAL, buffer pool, and subscription
//! registry — so the router composes the existing HTTP surface instead
//! of introducing a new protocol.
//!
//! The front end itself is the shard servers' own: [`Router::run`]
//! starts the health thread and hands the listener to
//! [`segdiff_server::httpd::serve`] with the router as the request
//! handler, and requests go through the same table-driven
//! [`dispatch`] over [`ROUTES`]:
//!
//! * `POST /query` — scatter to the owning shards over kept-alive
//!   connections and splice their per-sensor fragments in sensor order
//!   (the union [`segdiff::merge_sharded`] defines): the `results`
//!   array is byte-identical to a single process serving all sensors.
//! * `GET /healthz` — role `"router"` plus the live per-shard states.
//! * `GET /metrics` — the process-global registry (text or JSON lines).
//! * `POST /shutdown` — cooperative drain, same as the shard servers.

pub mod health;
pub mod ring;
pub mod scatter;

pub use health::{HealthBoard, ShardSpec, ShardState};
pub use ring::Ring;

use obs::json::Json;
use segdiff_server::http::{Request, Response};
use segdiff_server::httpd::{self, Handler, Reply, Running, Tuning};
use segdiff_server::routes::{dispatch, render_table, RouteDef};
use segdiff_server::service::metrics_dump;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// One entry per shard, in ring order (shard i of N).
    pub shards: Vec<ShardSpec>,
    /// Worker threads serving client connections.
    pub threads: usize,
    /// Accepted connections waiting for a worker before `503`s start.
    pub queue_depth: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// How often the health thread re-probes every shard. Failover to a
    /// warm replica happens within one interval (sooner when a query
    /// hits the dead primary first).
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            threads: 8,
            queue_depth: 64,
            read_timeout: Duration::from_millis(1000),
            health_interval: Duration::from_millis(500),
        }
    }
}

/// `router.*` counters and latency, registered globally so `/metrics`
/// and the self-observation pipeline see them like any other subsystem.
pub struct RouterMetrics {
    pub queries: Arc<obs::Counter>,
    pub scatter_requests: Arc<obs::Counter>,
    pub shard_errors: Arc<obs::Counter>,
    pub degraded: Arc<obs::Counter>,
    pub bad_requests: Arc<obs::Counter>,
    pub query_nanos: Arc<obs::Histogram>,
}

impl RouterMetrics {
    fn new() -> Self {
        let r = obs::global();
        RouterMetrics {
            queries: r.counter("router.queries"),
            scatter_requests: r.counter("router.scatter_requests"),
            shard_errors: r.counter("router.shard_errors"),
            degraded: r.counter("router.degraded"),
            bad_requests: r.counter("router.bad_requests"),
            query_nanos: r.histogram("router.query_nanos"),
        }
    }
}

/// A bound-but-not-yet-running router.
pub struct Router {
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    config: RouterConfig,
    board: Arc<HealthBoard>,
    ring: Ring,
    upstreams: scatter::Upstreams,
    metrics: RouterMetrics,
}

impl Router {
    /// Binds `addr` and prepares the ring and health board over
    /// `config.shards`. No thread is spawned until [`Router::run`].
    pub fn bind(addr: &str, config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::other("router needs at least one shard"));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Router {
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            board: Arc::new(HealthBoard::new(config.shards.clone())),
            ring: Ring::new(config.shards.len()),
            upstreams: scatter::Upstreams::default(),
            metrics: RouterMetrics::new(),
            config,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes the router drain and stop when set.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The health board (tests inspect failover state through it).
    pub fn board(&self) -> &Arc<HealthBoard> {
        &self.board
    }

    /// Serves on the calling thread until shutdown. Probes every shard
    /// once before accepting, so the first query already knows the
    /// cluster topology.
    pub fn run(self) -> io::Result<()> {
        self.board.probe_all();
        let served = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("router-health".to_string())
                .spawn_scoped(scope, || self.probe_until_shutdown())?;
            let served = httpd::serve(
                &self.listener,
                &self.shutdown,
                Tuning {
                    name: "router",
                    threads: self.config.threads,
                    queue_depth: self.config.queue_depth,
                    read_timeout: self.config.read_timeout,
                },
                &self,
            );
            // The health thread leaves the scope only once the flag is
            // set, whichever way the loop ended.
            self.shutdown.store(true, Ordering::Release);
            served
        });
        obs::info!("router drained");
        served
    }

    /// [`Router::run`] on a thread of its own.
    pub fn spawn(self) -> Running {
        Running::start(self.addr, self.shutdown_flag(), move || self.run())
    }

    /// The health thread: re-probes every shard each interval.
    fn probe_until_shutdown(&self) {
        let interval = self.config.health_interval;
        while !self.shutdown.load(Ordering::Acquire) {
            let t0 = std::time::Instant::now();
            self.board.probe_all();
            while t0.elapsed() < interval && !self.shutdown.load(Ordering::Acquire) {
                let left = interval.saturating_sub(t0.elapsed());
                std::thread::sleep(left.min(Duration::from_millis(20)));
            }
        }
    }

    /// `POST /query`: scatter–gather over the shards.
    fn query(&self, req: &Request, _id: u64) -> Response {
        match req.body_str() {
            Ok(body) => scatter::scatter_query(
                &self.board,
                &self.ring,
                &self.upstreams,
                body,
                &self.metrics,
            ),
            Err(e) => {
                self.metrics.bad_requests.inc();
                Response::error(400, e.to_string())
            }
        }
    }

    /// `POST /shutdown`: cooperative drain.
    fn initiate_shutdown(&self) -> Response {
        self.shutdown.store(true, Ordering::Release);
        Response::json(200, &Json::obj([("status", Json::from("draining"))])).with_close()
    }
}

/// Every route the router answers.
pub const ROUTES: &[RouteDef<Router, Response>] = &[
    RouteDef::new(
        "POST",
        "/query",
        &[],
        "scatter one drop/jump query to the owning shards and merge; same body as a shard's `/query`",
        Router::query,
    ),
    RouteDef::new(
        "GET",
        "/healthz",
        &[],
        "role `router` plus every shard's failover state and endpoints",
        |router, _, _| healthz(&router.board),
    ),
    RouteDef::new(
        "GET",
        "/metrics",
        &["format"],
        "full telemetry registry dump (`?format=json` for NDJSON)",
        |_, req, _| metrics_dump(req),
    ),
    RouteDef::new(
        "POST",
        "/shutdown",
        &[],
        "graceful drain: finish in-flight work, stop probing",
        |router, _, _| router.initiate_shutdown(),
    ),
];

/// The markdown table of [`ROUTES`] — the block between the README's
/// `router-routes-table` markers.
pub fn markdown_table() -> String {
    render_table(ROUTES)
}

impl Handler for Router {
    fn serve(&self, req: &Request) -> Reply {
        dispatch(ROUTES, self, req)
            .unwrap_or_else(|rejected| {
                if rejected.status == 400 {
                    self.metrics.bad_requests.inc();
                }
                rejected
            })
            .into()
    }
}

/// `GET /healthz`: the router's own status plus every shard's failover
/// state, endpoints, and last-known sensor count.
fn healthz(board: &HealthBoard) -> Response {
    let states = board.snapshot();
    let shards: Vec<Json> = board
        .specs()
        .iter()
        .zip(&states)
        .enumerate()
        .map(|(i, (spec, health))| {
            let mut fields = vec![
                ("shard".to_string(), Json::Uint(i as u64)),
                (
                    "state".to_string(),
                    Json::Str(health.state.name().to_string()),
                ),
                ("primary".to_string(), Json::Str(spec.primary.clone())),
            ];
            if let Some(replica) = &spec.replica {
                fields.push(("replica".to_string(), Json::Str(replica.clone())));
            }
            fields.extend([
                (
                    "sensors".to_string(),
                    Json::Uint(health.sensors.len() as u64),
                ),
                ("epoch".to_string(), Json::Uint(health.epoch)),
                (
                    "last_durable_lsn".to_string(),
                    Json::Uint(health.last_durable_lsn),
                ),
            ]);
            if health.state == ShardState::Replica {
                fields.push(("applied_rows".to_string(), Json::Uint(health.applied_rows)));
            }
            Json::Object(fields)
        })
        .collect();
    let all_up = states.iter().all(|h| h.state != ShardState::Down);
    Response::json(
        200,
        &Json::obj([
            (
                "status",
                Json::Str(if all_up { "ok" } else { "degraded" }.to_string()),
            ),
            ("role", Json::Str("router".to_string())),
            ("shards", Json::Array(shards)),
            ("sensors", Json::Uint(board.known_sensors().len() as u64)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_rejects_empty_shard_list() {
        assert!(Router::bind("127.0.0.1:0", RouterConfig::default()).is_err());
    }

    /// A router over two shards nobody listens on.
    fn two_shard_router() -> Router {
        let config = RouterConfig {
            shards: vec![
                ShardSpec {
                    primary: "192.0.2.1:9".to_string(),
                    replica: None,
                },
                ShardSpec {
                    primary: "192.0.2.2:9".to_string(),
                    replica: None,
                },
            ],
            ..RouterConfig::default()
        };
        Router::bind("127.0.0.1:0", config).expect("bind")
    }

    #[test]
    fn bind_builds_ring_over_shards() {
        let router = two_shard_router();
        assert_eq!(router.ring.num_shards(), 2);
        assert_eq!(router.board().num_shards(), 2);
        assert_ne!(router.local_addr().port(), 0);
    }

    fn status_of(router: &Router, method: &str, target: &str) -> u16 {
        let raw = format!("{method} {target} HTTP/1.1\r\n\r\n");
        let req = segdiff_server::http::read_request(&mut io::BufReader::new(raw.as_bytes()))
            .expect("request parses");
        match router.serve(&req) {
            Reply::Response(resp) => {
                let body = String::from_utf8(resp.body).expect("utf-8 body");
                assert!(
                    resp.status < 400 || body.starts_with(r#"{"error":"#),
                    "{method} {target}: unstructured error body {body}"
                );
                resp.status
            }
            Reply::Stream(_) => panic!("the router never streams"),
        }
    }

    /// The router's four routes go through the shared table: undeclared
    /// parameters are counted 400s before any handler runs, known paths
    /// under the wrong method are 405s, anything else is a 404.
    #[test]
    fn routes_validate_params_methods_and_paths() {
        let router = two_shard_router();
        let bad_before = router.metrics.bad_requests.get();
        for def in ROUTES {
            let target = format!("{}?bogus=1", def.path);
            assert_eq!(status_of(&router, def.method, &target), 400, "{target}");
        }
        assert_eq!(router.metrics.bad_requests.get() - bad_before, 4);
        assert!(
            !router.shutdown.load(Ordering::Acquire),
            "a rejected /shutdown must not shut down"
        );

        assert_eq!(status_of(&router, "GET", "/healthz"), 200);
        assert_eq!(status_of(&router, "GET", "/metrics?format=json"), 200);
        assert_eq!(status_of(&router, "GET", "/metrics?format=xml"), 400);
        for def in ROUTES {
            assert_eq!(status_of(&router, "PUT", def.path), 405, "{}", def.path);
        }
        assert_eq!(status_of(&router, "GET", "/query"), 405);
        assert_eq!(status_of(&router, "GET", "/subscribe"), 404);
        assert_eq!(status_of(&router, "GET", "/nope"), 404);

        assert_eq!(status_of(&router, "POST", "/shutdown"), 200);
        assert!(router.shutdown.load(Ordering::Acquire));
    }
}
