//! Request routing and query execution against a shared index.
//!
//! The service is the pure request→response core of the server: it owns
//! no sockets and no threads, which makes every route unit-testable
//! without networking. Handlers run concurrently on worker threads over
//! the shared read-only indexes of one [`Engine`], so everything here
//! takes `&self`.
//!
//! Every request is traced: the service assigns a process-unique trace
//! id, installs it in the handler thread (whence it propagates onto the
//! executor's worker pool), collects the span tree, and records the
//! finished request into the tail-sampling
//! [`TraceStore`](obs::tracering::TraceStore) — slow or erroring
//! requests are retained in a separate ring that fast traffic cannot
//! evict. `GET /debug/traces` serves both rings; `GET /series` and
//! `GET /alerts` serve the sampled metric history and the standing
//! drop/jump alerts (see [`crate::observer`]).

use crate::answer::{write_answer, Envelope};
use crate::engine::Engine;
use crate::http::{finish_chunks, write_chunk, write_chunked_head, Request, Response};
use crate::httpd::{Handler, Reply};
use crate::observer::Observability;
use crate::routes::{dispatch, ROUTES};
use crate::spec::{QuerySpec, SubscribeSpec};
use obs::export::Exporter;
use obs::json::Json;
use obs::tracering::TraceRecord;
use obs::TraceNode;
use pagestore::StoreError;
use segdiff::{Subscription, SubscriptionRegistry};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which role this process plays in a cluster deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRole {
    /// Owns its sensors: ingests, serves queries, ships `segments` rows.
    #[default]
    Primary,
    /// Applies a primary's shipped `segments` rows to a live store and
    /// serves read queries from it.
    Replica,
}

impl ShardRole {
    /// The wire name reported by `GET /healthz`.
    pub fn name(self) -> &'static str {
        match self {
            ShardRole::Primary => "primary",
            ShardRole::Replica => "replica",
        }
    }
}

/// `server.*` telemetry published to the global registry.
struct ServiceMetrics {
    requests: Arc<obs::Counter>,
    queries: Arc<obs::Counter>,
    bad_requests: Arc<obs::Counter>,
    not_found: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    inflight: Arc<obs::Gauge>,
    request_nanos: Arc<obs::Histogram>,
    query_nanos: Arc<obs::Histogram>,
}

impl ServiceMetrics {
    fn new() -> Self {
        let r = obs::global();
        ServiceMetrics {
            requests: r.counter("server.requests"),
            queries: r.counter("server.queries"),
            bad_requests: r.counter("server.bad_requests"),
            not_found: r.counter("server.not_found"),
            errors: r.counter("server.errors"),
            inflight: r.gauge("server.inflight"),
            request_nanos: r.histogram("server.request_nanos"),
            query_nanos: r.histogram("server.query_nanos"),
        }
    }
}

/// The HTTP-facing facade over one query engine.
pub struct Service {
    engine: Engine,
    role: ShardRole,
    shutdown: Arc<AtomicBool>,
    in_flight: AtomicU64,
    metrics: ServiceMetrics,
    observability: Arc<Observability>,
}

/// Parses a `/series` window parameter: plain seconds (`"90"`) or a
/// number with an `s`/`m`/`h` suffix (`"90s"`, `"5m"`, `"2h"`).
fn parse_window(raw: &str) -> Result<Duration, String> {
    let (digits, unit_secs) = match raw.as_bytes().last() {
        Some(b's') => (&raw[..raw.len() - 1], 1u64),
        Some(b'm') => (&raw[..raw.len() - 1], 60),
        Some(b'h') => (&raw[..raw.len() - 1], 3600),
        _ => (raw, 1),
    };
    match digits.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(Duration::from_secs(n.saturating_mul(unit_secs))),
        _ => Err(format!(
            "window must be a positive duration like 90, 90s, 5m or 2h, got {raw:?}"
        )),
    }
}

/// Parses an optional unsigned query parameter, with a default.
fn parse_u64_param(req: &Request, key: &str, default: u64) -> Result<u64, String> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| format!("{key} must be a non-negative integer, got {raw:?}")),
    }
}

/// How often the live feed polls the registry for fresh notifications.
const STREAM_POLL: Duration = Duration::from_millis(25);

/// Idle live-feed connections get a heartbeat line this often, so a
/// silent sensor still produces traffic and a dead client is detected
/// by the write failing.
const STREAM_HEARTBEAT: Duration = Duration::from_millis(1000);

/// The body of `GET /subscribe/<id>/stream`: the chunked head, a hello
/// line, then notifications after `cursor` as they are published.
fn stream_notifications(
    mut w: &mut dyn Write,
    registry: &SubscriptionRegistry,
    shutdown: &AtomicBool,
    sub: &Subscription,
    mut cursor: u64,
    max: u64,
) -> std::io::Result<()> {
    fn line(mut w: &mut dyn Write, doc: &Json) -> std::io::Result<()> {
        write_chunk(&mut w, format!("{}\n", doc.to_string_compact()).as_bytes())
    }
    write_chunked_head(&mut w, 200, "application/x-ndjson")?;
    // First line: what the stream is serving and where it starts, so a
    // client can resume over `GET /notifications` after a disconnect.
    let hello = Json::obj([("stream", sub.to_json()), ("after", Json::from(cursor))]);
    line(w, &hello)?;
    let mut delivered = 0u64;
    let mut last_write = Instant::now();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return finish_chunks(&mut w);
        }
        let Some((batch, next)) = registry.since(sub.id, cursor, 256) else {
            // Unsubscribed mid-stream: end cleanly.
            return finish_chunks(&mut w);
        };
        cursor = next;
        for n in &batch {
            line(w, &n.to_json())?;
            last_write = Instant::now();
            delivered += 1;
            if max > 0 && delivered >= max {
                return finish_chunks(&mut w);
            }
        }
        if batch.is_empty() && last_write.elapsed() >= STREAM_HEARTBEAT {
            line(w, &Json::obj([("heartbeat", Json::from(obs::unix_ms()))]))?;
            last_write = Instant::now();
        }
        std::thread::sleep(STREAM_POLL);
    }
}

/// `GET /metrics` — the process-global telemetry registry as text or
/// (`?format=json`) NDJSON. The shard server and the router serve the
/// same handler.
pub fn metrics_dump(req: &Request) -> Response {
    let snapshot = obs::global().snapshot();
    match req.query_param("format") {
        Some("json") => Response::text(
            200,
            obs::export::JsonLinesExporter::default().export(&snapshot),
        ),
        None | Some("text") => Response::text(200, obs::export::TextExporter.export(&snapshot)),
        Some(other) => Response::error(
            400,
            format!("format must be \"text\" or \"json\", got {other:?}"),
        ),
    }
}

/// What a route handler of the shard server returns: the reply, and the
/// span tree when the handler collected one (only `/query` does).
pub struct Handled(Reply, Option<TraceNode>);

impl From<Response> for Handled {
    fn from(resp: Response) -> Handled {
        Handled(resp.into(), None)
    }
}

/// The accounting and tracing around [`dispatch`]: every request is
/// counted, gets a process-unique trace id (propagated to executor
/// worker threads via [`obs::TraceIdScope`]) and lands in the
/// tail-sampling trace ring when it finishes — with its span tree for
/// `/query`, summary-only for the cheap routes.
impl Handler for Service {
    fn serve(&self, req: &Request) -> Reply {
        let start = Instant::now();
        let started_ms = obs::unix_ms();
        self.metrics.requests.inc();
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        self.metrics.inflight.add(1);
        let trace_id = obs::next_trace_id();
        let scope = obs::TraceIdScope::enter(trace_id);
        let Handled(reply, root) = dispatch(ROUTES, self, req).unwrap_or_else(|resp| {
            if resp.status == 404 {
                self.metrics.not_found.inc();
            }
            resp.into()
        });
        drop(scope);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.metrics.inflight.sub(1);
        let status = match &reply {
            Reply::Response(resp) => resp.status,
            Reply::Stream(_) => 200,
        };
        if status == 400 {
            self.metrics.bad_requests.inc();
        }
        if status >= 400 {
            self.metrics.errors.inc();
        }
        let wall = start.elapsed();
        self.metrics.request_nanos.record_duration(wall);
        self.observability.traces.record(TraceRecord {
            trace_id,
            name: format!("{} {}", req.method, req.path),
            started_ms,
            wall_nanos: wall.as_nanos().min(u64::MAX as u128) as u64,
            status,
            error: status >= 400,
            root,
        });
        reply
    }
}

impl Service {
    /// Creates a service over `engine` (a single index or a transect).
    /// Setting `shutdown` (from any thread, or via `POST /shutdown`)
    /// makes the accept loop drain.
    pub fn new(engine: impl Into<Engine>, shutdown: Arc<AtomicBool>) -> Self {
        Service::with_observability(engine, shutdown, Arc::new(Observability::default()))
    }

    /// [`Service::new`] with explicitly configured observability stores
    /// (series capacity, alert rules, trace slow threshold).
    pub fn with_observability(
        engine: impl Into<Engine>,
        shutdown: Arc<AtomicBool>,
        observability: Arc<Observability>,
    ) -> Self {
        Service {
            engine: engine.into(),
            role: ShardRole::Primary,
            shutdown,
            in_flight: AtomicU64::new(0),
            metrics: ServiceMetrics::new(),
            observability,
        }
    }

    /// Sets the role `GET /healthz` reports (default primary).
    pub fn set_role(&mut self, role: ShardRole) {
        self.role = role;
    }

    /// The engine queries execute against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The observability stores the service records into and serves from.
    pub fn observability(&self) -> &Arc<Observability> {
        &self.observability
    }

    /// The shared shutdown flag.
    pub fn shutdown_flag(&self) -> &Arc<AtomicBool> {
        &self.shutdown
    }

    /// Number of requests currently executing.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Answers one request on a transport that cannot hand its socket
    /// over: the live feed, which needs one, is refused.
    pub fn handle(&self, req: &Request) -> Response {
        match self.serve(req) {
            Reply::Response(resp) => resp,
            Reply::Stream(_) => Response::error(
                400,
                "the stream endpoint requires a dedicated streaming connection",
            ),
        }
    }

    /// `POST /query`.
    pub(crate) fn query(&self, req: &Request, _id: u64) -> Handled {
        let trace_id = obs::current_trace_id().unwrap_or(0);
        let body = match req.body_str() {
            Ok(b) => b,
            Err(e) => return Response::error(400, e.to_string()).into(),
        };
        let spec = match QuerySpec::from_json(body) {
            Ok(s) => s,
            Err(e) => return Response::error(400, e).into(),
        };
        self.metrics.queries.inc();
        let start = Instant::now();
        obs::trace_begin();
        let subset = (!spec.sensors.is_empty()).then_some(spec.sensors.as_slice());
        let outcome = self.engine.query(&spec.region, spec.plan, subset);
        let trace = obs::trace_take();
        let (parts, stats, cached) = match outcome {
            Ok(t) => t,
            Err(StoreError::InvalidArgument(m)) => {
                return Handled(Response::error(400, m).into(), trace);
            }
            Err(e) => {
                let resp = Response::error(500, format!("query failed: {e}"));
                return Handled(resp.into(), trace);
            }
        };
        self.metrics.query_nanos.record_duration(start.elapsed());
        let envelope = Envelope {
            spec: &spec,
            stats: &stats,
            cached,
            epoch: self.engine.epoch(),
            served: self.engine.served(),
            trace_id,
            trace: trace.as_ref().filter(|_| spec.trace),
        };
        let body = write_answer(&envelope, &parts);
        Handled(Response::json_bytes(200, body).into(), trace)
    }

    /// `GET /series` — the sampled metric history. Without a `name`
    /// parameter, lists the sampled series; with one, returns the points
    /// inside `window` (e.g. `60s`, `5m`, `2h`; default the whole ring).
    pub(crate) fn series_dump(&self, req: &Request) -> Response {
        let store = &self.observability.series;
        let Some(name) = req.query_param("name") else {
            let names = store.names();
            return Response::json(
                200,
                &Json::obj([
                    ("count", Json::from(names.len() as u64)),
                    (
                        "series",
                        Json::Array(names.into_iter().map(Json::Str).collect()),
                    ),
                ]),
            );
        };
        let window = match req.query_param("window").map(parse_window) {
            None => None,
            Some(Ok(w)) => Some(w),
            Some(Err(e)) => return Response::error(400, e),
        };
        let points = match window {
            Some(w) => store.window(name, w, obs::unix_ms()),
            None => store.since(name, 0),
        };
        if points.is_empty() && !store.names().iter().any(|n| n == name) {
            return Response::error(404, format!("no sampled series named {name:?}"));
        }
        Response::json(
            200,
            &Json::obj([
                ("name", Json::from(name)),
                ("count", Json::from(points.len() as u64)),
                (
                    "points",
                    Json::Array(
                        points
                            .iter()
                            .map(|p| {
                                Json::obj([
                                    ("ts_ms", Json::from(p.ts_ms)),
                                    ("value", Json::Float(p.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )
    }

    /// `GET /alerts` — the standing rules and the bounded log of alerts
    /// they have fired, oldest first. `?after=N` returns only alerts
    /// with sequence number > N (the polling cursor `segdiff alerts
    /// --follow` rides on); each alert then carries its `seq` and the
    /// response a `next_after` to resume from.
    pub(crate) fn alerts_dump(&self, req: &Request) -> Response {
        let after = match parse_u64_param(req, "after", 0) {
            Ok(n) => n,
            Err(e) => return Response::error(400, e),
        };
        let engine = &self.observability.alerts;
        let rules: Vec<Json> = engine
            .rules()
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::from(r.name.as_str())),
                    ("metric", Json::from(r.metric.as_str())),
                    ("kind", Json::from(r.kind.name())),
                    ("v", Json::Float(r.v)),
                    ("t_seconds", Json::Float(r.t_seconds)),
                    ("epsilon", Json::Float(r.epsilon)),
                    ("scale", Json::Float(r.scale)),
                    ("transform", Json::from(r.transform.name())),
                ])
            })
            .collect();
        let alerts = engine.alerts_since(after);
        let next_after = alerts.last().map(|(seq, _)| *seq).unwrap_or(after);
        Response::json(
            200,
            &Json::obj([
                ("rules", Json::Array(rules)),
                ("fired", Json::from(alerts.len() as u64)),
                ("next_after", Json::from(next_after)),
                (
                    "alerts",
                    Json::Array(
                        alerts
                            .iter()
                            .map(|(seq, a)| {
                                let mut obj = a.to_json();
                                if let Json::Object(fields) = &mut obj {
                                    fields.insert(0, ("seq".to_string(), Json::from(*seq)));
                                }
                                obj
                            })
                            .collect(),
                    ),
                ),
            ]),
        )
    }

    /// `GET /debug/traces` — recently finished requests from the trace
    /// rings. `?ring=slow` selects the tail-sampled slow/error ring,
    /// `?n=` bounds the count (default 20), `?full=1` includes span
    /// trees.
    pub(crate) fn traces_dump(&self, req: &Request) -> Response {
        let store = &self.observability.traces;
        let n = match req.query_param("n") {
            None => 20,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if n >= 1 => n.min(4096),
                _ => {
                    return Response::error(
                        400,
                        format!("n must be a positive integer, got {raw:?}"),
                    );
                }
            },
        };
        let ring = req.query_param("ring").unwrap_or("recent");
        let records = match ring {
            "recent" => store.recent(n),
            "slow" => store.slow(n),
            other => {
                return Response::error(
                    400,
                    format!("ring must be \"recent\" or \"slow\", got {other:?}"),
                );
            }
        };
        let full = match req.query_param("full") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => {
                return Response::error(400, format!("full must be \"0\" or \"1\", got {other:?}"));
            }
        };
        Response::json(
            200,
            &Json::obj([
                ("ring", Json::from(ring)),
                ("count", Json::from(records.len() as u64)),
                (
                    "slow_threshold_ms",
                    Json::Float(store.slow_threshold().as_secs_f64() * 1e3),
                ),
                (
                    "traces",
                    Json::Array(
                        records
                            .iter()
                            .map(|r| {
                                if full {
                                    r.to_json_full()
                                } else {
                                    r.to_json_summary()
                                }
                            })
                            .collect(),
                    ),
                ),
            ]),
        )
    }

    /// `POST /subscribe` — register a standing query. The body is a
    /// [`SubscribeSpec`]; the response echoes the stored subscription,
    /// including the `id` used by `GET /notifications?sub=` and
    /// `GET /subscribe/<id>/stream`.
    pub(crate) fn subscribe_create(&self, req: &Request) -> Response {
        let body = match req.body_str() {
            Ok(b) => b,
            Err(e) => return Response::error(400, e.to_string()),
        };
        let spec = match SubscribeSpec::from_json(body) {
            Ok(s) => s,
            Err(e) => return Response::error(400, e),
        };
        // A search slower than a covered sensor's window never hears a row.
        if let Err(StoreError::InvalidArgument(m)) =
            self.engine.check_window(&spec.region, &spec.sensors)
        {
            return Response::error(400, m);
        }
        let sub = self.observability.subs.subscribe(
            &spec.label,
            spec.region,
            &spec.sensors,
            obs::unix_ms(),
        );
        Response::json(200, &sub.to_json())
    }

    /// `GET /subscribe` — every registered subscription plus the
    /// per-sensor event-frequency characterization (events observed and
    /// the expected rate per hour over the observed span).
    pub(crate) fn subscribe_list(&self) -> Response {
        let registry = &self.observability.subs;
        let subs = registry.subscriptions();
        let sensors: Vec<Json> = registry
            .sensor_stats()
            .iter()
            .map(|(sensor, f)| {
                Json::obj([
                    ("sensor", Json::from(u64::from(*sensor))),
                    ("events", Json::from(f.events)),
                    ("first_ms", Json::from(f.first_ms)),
                    ("last_ms", Json::from(f.last_ms)),
                    ("expected_per_hour", Json::Float(f.expected_per_hour())),
                ])
            })
            .collect();
        Response::json(
            200,
            &Json::obj([
                ("count", Json::from(subs.len() as u64)),
                (
                    "subscriptions",
                    Json::Array(subs.iter().map(|s| s.to_json()).collect()),
                ),
                ("sensors", Json::Array(sensors)),
            ]),
        )
    }

    /// `GET /notifications?sub=<id>` — the durable polling cursor.
    /// Returns notifications with sequence number > `after` (default 0,
    /// i.e. everything retained), at most `max` (default 100), plus a
    /// `next_after` to resume from.
    pub(crate) fn notifications(&self, req: &Request) -> Response {
        let sub = match req.query_param("sub") {
            None => return Response::error(400, "missing query parameter \"sub\""),
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    return Response::error(
                        400,
                        format!("sub must be a subscription id, got {raw:?}"),
                    );
                }
            },
        };
        let after = match parse_u64_param(req, "after", 0) {
            Ok(n) => n,
            Err(e) => return Response::error(400, e),
        };
        let max = match parse_u64_param(req, "max", 100) {
            Ok(n) if (1..=1000).contains(&n) => n as usize,
            Ok(n) => return Response::error(400, format!("max must be in 1..=1000, got {n}")),
            Err(e) => return Response::error(400, e),
        };
        match self.observability.subs.since(sub, after, max) {
            None => Response::error(404, format!("no subscription {sub}")),
            Some((items, next_after)) => Response::json(
                200,
                &Json::obj([
                    ("sub", Json::from(sub)),
                    ("count", Json::from(items.len() as u64)),
                    ("next_after", Json::from(next_after)),
                    (
                        "notifications",
                        Json::Array(items.iter().map(|n| n.to_json()).collect()),
                    ),
                ]),
            ),
        }
    }

    /// `GET /subscribe/<id>`.
    pub(crate) fn subscribe_get(&self, id: u64) -> Response {
        match self.observability.subs.subscription(id) {
            Some(sub) => Response::json(200, &sub.to_json()),
            None => Response::error(404, format!("no subscription {id}")),
        }
    }

    /// `DELETE /subscribe/<id>`.
    pub(crate) fn subscribe_delete(&self, id: u64) -> Response {
        if self.observability.subs.unsubscribe(id) {
            Response::json(
                200,
                &Json::obj([
                    ("status", Json::from("unsubscribed")),
                    ("id", Json::from(id)),
                ]),
            )
        } else {
            Response::error(404, format!("no subscription {id}"))
        }
    }

    /// `GET /subscribe/<id>/stream` — the chunked live notification feed.
    ///
    /// Takes over the socket and writes one NDJSON line per notification
    /// as chunks on a `Transfer-Encoding: chunked` response, starting
    /// from `?after=` (default: only notifications published from now
    /// on). The stream ends cleanly (zero-length chunk) on server
    /// shutdown, on unsubscribe, or after `?max=` notifications; it ends
    /// abruptly when the client goes away and a write fails. The worker
    /// thread is occupied for the stream's lifetime — live feeds are for
    /// watchers, not for fan-out; polling `GET /notifications` scales to
    /// many consumers.
    pub(crate) fn subscribe_stream(&self, req: &Request, sub_id: u64) -> Handled {
        let registry = Arc::clone(&self.observability.subs);
        let Some(sub) = registry.subscription(sub_id) else {
            return Response::error(404, format!("no subscription {sub_id}"))
                .with_close()
                .into();
        };
        // Default to "from now": everything already published is the
        // polling cursor's job; the live feed is about what happens next.
        let from_now = registry.last_seq(sub_id).unwrap_or(0);
        let (cursor, max) = match (
            parse_u64_param(req, "after", from_now),
            parse_u64_param(req, "max", 0), // 0 = unbounded
        ) {
            (Ok(cursor), Ok(max)) => (cursor, max),
            (Err(e), _) | (_, Err(e)) => return Response::error(400, e).with_close().into(),
        };
        let shutdown = Arc::clone(&self.shutdown);
        let feed = move |w: &mut dyn Write| {
            // A failed write means the client went away.
            let _ = stream_notifications(w, &registry, &shutdown, &sub, cursor, max);
        };
        Handled(Reply::Stream(Box::new(feed)), None)
    }

    /// `GET /healthz` — liveness plus the shard's cluster-facing state:
    /// role, served sensor ids, last durable WAL LSN, what recovery did
    /// at open, and (on replicas) the `segments` rows applied.
    pub(crate) fn healthz(&self) -> Response {
        let ids = self.engine.sensor_ids();
        let (clean, replayed_pages, truncated_rows) = self.engine.recovery_summary();
        let mut fields = vec![
            ("status".to_string(), Json::from("ok")),
            ("role".to_string(), Json::from(self.role.name())),
            ("epoch".to_string(), Json::Uint(self.engine.epoch())),
            (
                "sensors".to_string(),
                Json::Uint(self.engine.num_sensors() as u64),
            ),
            (
                "sensor_ids".to_string(),
                Json::Array(ids.iter().map(|&g| Json::Uint(u64::from(g))).collect()),
            ),
            (
                "cache_entries".to_string(),
                Json::from(self.engine.cache_entries()),
            ),
            (
                "last_durable_lsn".to_string(),
                Json::Uint(self.engine.last_durable_lsn()),
            ),
        ];
        if self.role == ShardRole::Replica {
            fields.push((
                "applied_rows".to_string(),
                Json::Uint(self.engine.applied_rows()),
            ));
        }
        fields.push((
            "recovery".to_string(),
            Json::obj([
                ("clean", Json::Bool(clean)),
                ("replayed_pages", Json::Uint(replayed_pages)),
                ("truncated_rows", Json::Uint(truncated_rows)),
            ]),
        ));
        Response::json(200, &Json::Object(fields))
    }

    /// `GET /segments?sensor=G&after_row=N` — the sensor's `segments`
    /// rows from row N on, with its ε, window and counts
    /// ([`crate::rowstream`]): what a replica applies.
    pub(crate) fn segments(&self, req: &Request) -> Response {
        let raw = req.query_param("sensor").unwrap_or_default();
        let Ok(sensor) = raw.parse::<u32>() else {
            return Response::error(400, format!("sensor must be a sensor id, got {raw:?}"));
        };
        let after = match parse_u64_param(req, "after_row", 0) {
            Ok(n) => n,
            Err(e) => return Response::error(400, e),
        };
        match self.engine.rows_after(sensor, after) {
            None => Response::error(404, format!("no sensor {sensor}")),
            Some(Ok(body)) => Response::binary(200, body),
            Some(Err(e)) => Response::error(500, format!("segments read failed: {e}")),
        }
    }

    pub(crate) fn initiate_shutdown(&self) -> Response {
        obs::info!("shutdown requested over HTTP");
        self.shutdown.store(true, Ordering::Release);
        Response::json(200, &Json::obj([("status", Json::from("shutting down"))])).with_close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::tests::pairs_to_json;
    use crate::answer::trace_to_json;
    use segdiff::transect::CachedAnswer;
    use segdiff::{QueryPlan, SegDiffConfig, SegDiffIndex, SegmentPair, TransectIndex};
    use sensorgen::{generate_sensor, CadTransectConfig, HOUR};
    use std::path::PathBuf;

    /// The tree-built `/query` body, as `Service::query` assembled it
    /// before [`write_answer`].
    fn tree_answer(env: &Envelope, parts: &[(u32, CachedAnswer)]) -> String {
        let spec = env.spec;
        let count: usize = parts.iter().map(|(_, r)| r.len()).sum();
        let mut fields = Vec::new();
        if let Some(series) = &spec.series {
            fields.push(("series".to_string(), Json::Str(series.clone())));
        }
        fields.extend([
            ("kind".to_string(), Json::from(spec.region.kind.name())),
            ("v".to_string(), Json::Float(spec.region.v)),
            ("t_hours".to_string(), Json::Float(spec.t_hours)),
            ("plan".to_string(), Json::from(spec.plan.word())),
            ("epoch".to_string(), Json::Uint(env.epoch)),
            ("cached".to_string(), Json::Bool(env.cached)),
            ("count".to_string(), Json::Uint(count as u64)),
            (
                "rows_considered".to_string(),
                Json::Uint(env.stats.rows_considered),
            ),
            (
                "wall_ms".to_string(),
                Json::Float(env.stats.wall_seconds * 1e3),
            ),
        ]);
        if spec.per_sensor {
            let entries = parts.iter().map(|(sensor, results)| {
                Json::obj([
                    ("sensor", Json::Uint(u64::from(*sensor))),
                    ("count", Json::Uint(results.len() as u64)),
                    ("results", pairs_to_json(results)),
                ])
            });
            fields.push(("by_sensor".to_string(), Json::Array(entries.collect())));
        } else {
            let flat: Vec<SegmentPair> =
                parts.iter().flat_map(|(_, r)| r.iter().copied()).collect();
            fields.push(("results".to_string(), pairs_to_json(&flat)));
        }
        if let Some(served) = env.served {
            fields.push(("sensors".to_string(), Json::Uint(u64::from(served))));
        }
        fields.push(("trace_id".to_string(), Json::Uint(env.trace_id)));
        if let Some(node) = env.trace {
            fields.push(("trace".to_string(), trace_to_json(node)));
        }
        Json::Object(fields).to_string_compact()
    }

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("segdiff-service-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn post_query(body: &str) -> Request {
        let raw = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::read_request(&mut std::io::BufReader::new(raw.as_bytes())).unwrap()
    }

    fn build_transect(root: &std::path::Path, sensors: u32) -> TransectIndex {
        let cfg = CadTransectConfig::default()
            .with_days(3)
            .with_sensors(sensors)
            .clean();
        let mut transect = TransectIndex::create(root, SegDiffConfig::default(), sensors).unwrap();
        for k in 0..sensors {
            transect
                .ingest_series(k, &generate_sensor(&cfg, k, 7))
                .unwrap();
        }
        transect.finish_all().unwrap();
        transect.build_indexes_all().unwrap();
        transect
    }

    /// Every `/query` shape, twice (cache misses, then hits), on a bare
    /// index, a transect and a replica's filled transect: the written body
    /// equals the tree-built one byte for byte — same envelope values on
    /// both sides, so `trace_id` and `wall_ms` compare too — and what
    /// `Service::handle` serves is that body in canonical form.
    #[test]
    fn every_query_shape_is_byte_identical_to_the_tree_built_body() {
        let dir = TempDir::new("shapes");
        let cfg = CadTransectConfig::default().with_days(3).clean();
        let mut single = SegDiffIndex::create(&dir.0.join("s"), SegDiffConfig::default()).unwrap();
        single.ingest_series(&generate_sensor(&cfg, 1, 7)).unwrap();
        single.finish().unwrap();
        single.build_indexes().unwrap();
        // A transect filled sensor by sensor, as a replica fills one.
        let mut built = build_transect(&dir.0.join("c"), 3);
        let mut filled = TransectIndex::empty(&dir.0.join("c"));
        for k in [2, 0, 1] {
            filled.insert(k, built.remove(k).unwrap());
        }
        let engines = [
            (Engine::from(Arc::new(single)), "0"),
            // One fan-out thread: the sensors' spans land on this thread.
            (
                Engine::transect(Arc::new(build_transect(&dir.0.join("t"), 3)), 1),
                "0,2",
            ),
            (Engine::transect(Arc::new(filled), 1), "1,2"),
        ];

        let (mut nonempty, mut traced) = (0, 0);
        for (engine, subset) in engines {
            let bodies = [
                r#"{"kind":"drop","v":-2,"t_hours":1,"plan":"index"}"#.to_string(),
                r#"{"kind":"drop","v":-2,"t_hours":1,"plan":"index","per_sensor":true}"#
                    .to_string(),
                format!(r#"{{"kind":"jump","v":1.5,"t_hours":2.5,"sensors":[{subset}]}}"#),
                format!(
                    r#"{{"kind":"jump","v":1.5,"t_hours":2.5,"sensors":[{subset}],"per_sensor":true}}"#
                ),
                r#"{"series":"cad \"12\"\n","kind":"drop","v":-1,"t_hours":0.75}"#.to_string(),
                r#"{"kind":"drop","v":-2,"t_hours":1,"trace":true}"#.to_string(),
                r#"{"kind":"drop","v":-2,"t_hours":1,"per_sensor":true,"trace":true}"#.to_string(),
                r#"{"kind":"drop","v":-90,"t_hours":0.25}"#.to_string(),
                r#"{"kind":"drop","v":-90,"t_hours":0.25,"per_sensor":true}"#.to_string(),
            ];
            let bare = engine.served().is_none();
            assert_eq!(bare, subset == "0");
            let service = Service::new(engine, Arc::new(AtomicBool::new(false)));
            // `cached` means every part came from a cache: true exactly
            // when each wanted sensor has answered this search before.
            let mut answered = std::collections::HashSet::new();
            for round in 0..2 {
                for body in &bodies {
                    let spec = QuerySpec::from_json(body).unwrap();
                    let subset = (!spec.sensors.is_empty()).then_some(spec.sensors.as_slice());
                    obs::trace_begin();
                    let (parts, stats, cached) = service
                        .engine
                        .query(&spec.region, spec.plan, subset)
                        .unwrap();
                    let trace = obs::trace_take();
                    let search = format!("{:?} {:?}", spec.region, spec.plan);
                    let fresh = parts
                        .iter()
                        .filter(|(sensor, _)| answered.insert((search.clone(), *sensor)))
                        .count();
                    assert_eq!(cached, fresh == 0, "{body}");
                    assert!(cached || round == 0, "{body}");
                    let envelope = Envelope {
                        spec: &spec,
                        stats: &stats,
                        cached,
                        epoch: service.engine.epoch(),
                        served: service.engine.served(),
                        trace_id: 7_000_000 + round,
                        trace: trace.as_ref().filter(|_| spec.trace),
                    };
                    let written = String::from_utf8(write_answer(&envelope, &parts)).unwrap();
                    assert_eq!(written, tree_answer(&envelope, &parts), "{body}");
                    assert_eq!(written.contains(r#","sensors":3,"#), !bare, "{body}");
                    // A cache hit runs no span, so it has no tree to attach.
                    let has_trace = written.contains(r#","trace":{"span":"#);
                    assert_eq!(has_trace, spec.trace && !cached, "{body}");
                    traced += usize::from(has_trace);
                    nonempty += usize::from(parts.iter().any(|(_, r)| !r.is_empty()));

                    // Served: the same answer (the time stamps of the
                    // span tree and `wall_ms` aside), in canonical form.
                    let resp = service.handle(&post_query(body));
                    assert_eq!(resp.status, 200, "{body}");
                    let served = String::from_utf8(resp.body).unwrap();
                    let doc = Json::parse(&served).unwrap();
                    assert_eq!(doc.to_string_compact(), served, "{body}");
                    assert_eq!(doc.get("cached"), Some(&Json::Bool(true)), "{body}");
                    let reference = Json::parse(&written).unwrap();
                    for key in ["series", "kind", "v", "t_hours", "plan", "epoch", "count"] {
                        assert_eq!(doc.get(key), reference.get(key), "{key} of {body}");
                    }
                    for key in ["results", "by_sensor", "sensors"] {
                        assert_eq!(
                            doc.get(key).map(Json::to_string_compact),
                            reference.get(key).map(Json::to_string_compact),
                            "{key} of {body}"
                        );
                    }
                    assert!(spec.trace || doc.get("trace").is_none(), "{body}");
                }
            }
        }
        assert!(
            nonempty >= 30,
            "the shapes must carry pairs, got {nonempty}"
        );
        assert!(traced >= 3, "span trees must be attached, got {traced}");
    }

    /// A cache hit hands the cached vector to the writer — no pair is
    /// copied on the way to the response — from one sensor or several:
    /// each part of a transect's answer is the vector that sensor's
    /// cache holds, and new data in one sensor makes exactly its part a
    /// miss.
    #[test]
    fn per_sensor_cache_hits_share_the_cached_vector() {
        let dir = TempDir::new("share");
        let series = generate_sensor(&CadTransectConfig::default().with_days(3).clean(), 1, 7);
        let mut idx = SegDiffIndex::create(&dir.0.join("s"), SegDiffConfig::default()).unwrap();
        idx.ingest_series(&series).unwrap();
        idx.finish().unwrap();
        let idx = Arc::new(idx);
        let engine = Engine::from(Arc::clone(&idx));
        let region = featurespace::QueryRegion::drop(HOUR, -2.0);
        let query = |engine: &Engine, wanted: Option<&[u32]>| {
            engine.query(&region, QueryPlan::SeqScan, wanted).unwrap()
        };
        let (cold, _, cached) = query(&engine, Some(&[0]));
        assert!(!cached && !cold[0].1.is_empty());
        let (warm, _, cached) = query(&engine, None);
        assert!(cached);
        let (held, _, _) = idx.query_cached(&region, QueryPlan::SeqScan).unwrap();
        assert!(Arc::ptr_eq(&warm[0].1, &held));
        assert!(Arc::ptr_eq(&cold[0].1, &held));

        let root = dir.0.join("t");
        drop(build_transect(&root, 3));
        let held_by = |transect: &TransectIndex, sensor: u32| {
            let sensor = transect.sensor(sensor).unwrap();
            let (held, _, cached) = sensor.query_cached(&region, QueryPlan::SeqScan).unwrap();
            assert!(cached, "the engine's query filled this sensor's cache");
            held
        };
        let transect = Arc::new(TransectIndex::open(&root, 256).unwrap());
        let engine = Engine::transect(Arc::clone(&transect), 2);
        let (cold, _, cached) = query(&engine, None);
        assert!(!cached && cold.iter().all(|(_, part)| !part.is_empty()));
        let (warm, stats, cached) = query(&engine, Some(&[2, 0, 1]));
        assert!(cached);
        assert_eq!((stats.rows_considered, stats.io.hits), (0, 0));
        for (k, (sensor, part)) in warm.iter().enumerate() {
            assert_eq!(*sensor, k as u32);
            assert!(Arc::ptr_eq(part, &held_by(&transect, *sensor)));
            assert!(Arc::ptr_eq(part, &cold[k].1));
        }
        // One more segment in sensor 1 alone: its epoch moves, its part
        // runs again, and the other two still come from their caches.
        drop(engine);
        let mut transect = Arc::into_inner(transect).expect("the engine is gone");
        let last = series.times()[series.len() - 1];
        for step in 1..=12 {
            transect
                .push(
                    1,
                    last + 300.0 * f64::from(step),
                    40.0 * f64::from(step % 2),
                )
                .unwrap();
        }
        let engine = Engine::transect(Arc::new(transect), 2);
        let (after, stats, cached) = query(&engine, None);
        assert!(!cached && stats.rows_considered > 0);
        for (k, (_, part)) in after.iter().enumerate() {
            assert_eq!(Arc::ptr_eq(part, &warm[k].1), k != 1, "sensor {k}");
        }
    }

    /// An unknown sensor in a filter is the caller's mistake: `400`,
    /// whatever else the request names. A replica applying rows holds the
    /// slot's write guard, so a query waits for the apply and is answered.
    #[test]
    fn an_unknown_sensor_in_a_filter_is_400() {
        let dir = TempDir::new("unknown");
        let engine = Engine::transect(Arc::new(build_transect(&dir.0, 2)), 2);
        let service = Service::new(engine.clone(), Arc::new(AtomicBool::new(false)));
        let routed = r#"{"kind":"drop","v":-2,"t_hours":1,"sensors":[0,1],"per_sensor":true}"#;
        let unknown = r#"{"kind":"drop","v":-2,"t_hours":1,"sensors":[0,7]}"#;
        assert_eq!(service.handle(&post_query(routed)).status, 200);
        let resp = service.handle(&post_query(unknown));
        let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert_eq!(resp.status, 400, "{error}");
        assert!(error.contains("bad sensor filter: sensor 7"), "{error}");
        // The transect is the cell's alone, so it takes writes.
        assert_eq!(engine.apply(|t| t.num_sensors()), Ok(2));
        assert_eq!(service.handle(&post_query(routed)).status, 200);
    }
}
