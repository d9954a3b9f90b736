//! Closed-loop HTTP load generator for the query service.
//!
//! Each of `concurrency` workers keeps one persistent connection and
//! issues requests back-to-back (closed loop: a worker never has more
//! than one request outstanding, so offered load adapts to service
//! capacity instead of overrunning it). Latency is recorded per request
//! into a run-local histogram — p50/p90/p99 come from the same
//! log-bucketed estimator the server uses — and also mirrored into the
//! global registry as `loadgen.request_nanos`.

use crate::http::{read_response, write_request, HttpError};
use featurespace::QueryRegion;
use obs::json::Json;
use obs::HistogramSummary;
use segdiff::QueryPlan;
use sensorgen::HOUR;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a load run should do.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target `host:port`.
    pub host: String,
    /// Concurrent closed-loop workers.
    pub concurrency: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// JSON bodies for `POST /query`, rotated round-robin per worker
    /// (each worker starts at a different offset so the mix interleaves).
    pub bodies: Vec<String>,
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that completed with a 2xx status.
    pub ok: u64,
    /// Responses with a non-2xx status.
    pub non_2xx: u64,
    /// Transport failures that persisted after one reconnect retry.
    pub errors: u64,
    /// Transport failures per query body, parallel to
    /// [`LoadgenConfig::bodies`] — a dead shard shows up as errors
    /// concentrated on the bodies routed to it.
    pub errors_by_body: Vec<u64>,
    /// Measured wall time of the run in seconds.
    pub elapsed: f64,
    /// Request latency distribution (nanoseconds).
    pub latency: HistogramSummary,
}

impl LoadReport {
    /// Completed 2xx requests per second.
    pub fn qps(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.ok as f64 / self.elapsed
        } else {
            0.0
        }
    }

    /// Total requests attempted.
    pub fn total(&self) -> u64 {
        self.ok + self.non_2xx + self.errors
    }
}

/// Extracts `host:port` from `http://host:port[/...]` (scheme optional).
pub fn parse_url(url: &str) -> Result<String, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") {
        return Err("https is not supported".to_string());
    }
    let authority = rest.split('/').next().unwrap_or("");
    let (host, port) = authority
        .rsplit_once(':')
        .ok_or_else(|| format!("URL must include a port: {url}"))?;
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(format!("cannot parse host:port from {url}"));
    }
    Ok(authority.to_string())
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// First sleep after a transport error.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Ceiling for the exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Bounded exponential backoff with multiplicative jitter for the
/// worker error path. A flat retry delay hammers a dead server at
/// connect-failure speed and makes every worker retry in lockstep,
/// which skews tail latency the moment the server returns; doubling
/// with a ±50% jitter spreads the herd out.
struct Backoff {
    current: Duration,
    rng: u64,
}

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            current: BACKOFF_BASE,
            // xorshift needs a nonzero state.
            rng: seed | 1,
        }
    }

    /// Back to the base delay after a successful request.
    fn reset(&mut self) {
        self.current = BACKOFF_BASE;
    }

    /// The next sleep: current step scaled by a jitter in [0.5, 1.5),
    /// then the step doubles up to [`BACKOFF_CAP`].
    fn next_delay(&mut self) -> Duration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = 0.5 + (self.rng % 1000) as f64 / 1000.0;
        let delay = self.current.mul_f64(jitter);
        self.current = (self.current * 2).min(BACKOFF_CAP);
        delay
    }
}

fn connect(host: &str) -> Result<TcpStream, HttpError> {
    let stream = TcpStream::connect(host)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn roundtrip_once(
    mut stream: &TcpStream,
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Vec<u8>), HttpError> {
    write_request(&mut stream, method, path, host, body)?;
    // The reader borrows the socket and lives for one response, so no
    // buffered bytes survive a connection swap on retry.
    read_response(&mut BufReader::new(stream))
}

/// One request over a pooled connection with a single reconnect retry:
/// a keep-alive connection the server idled out looks like an EOF or a
/// reset exactly once, and a retry on a fresh connection recovers it.
pub fn pooled_request(
    conn: &mut Option<TcpStream>,
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Vec<u8>), HttpError> {
    let reused = conn.is_some();
    let stream = match conn.take() {
        Some(s) => s,
        None => connect(host)?,
    };
    match roundtrip_once(conn.insert(stream), host, method, path, body) {
        Ok(out) => Ok(out),
        Err(e) => {
            *conn = None;
            if !reused {
                return Err(e);
            }
            match roundtrip_once(conn.insert(connect(host)?), host, method, path, body) {
                Ok(out) => Ok(out),
                Err(e) => {
                    *conn = None;
                    Err(e)
                }
            }
        }
    }
}

/// One-shot request on a fresh connection; returns `(status, body)`.
pub fn fetch(
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut conn = None;
    let (status, bytes) =
        pooled_request(&mut conn, host, method, path, body).map_err(|e| e.to_string())?;
    String::from_utf8(bytes)
        .map(|text| (status, text))
        .map_err(|_| "response body is not UTF-8".to_string())
}

/// One-shot request on a fresh connection; returns the raw body bytes
/// (for binary endpoints like WAL shipping).
pub fn fetch_bytes(
    host: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Vec<u8>), String> {
    let mut conn = None;
    pooled_request(&mut conn, host, method, path, body).map_err(|e| e.to_string())
}

/// Runs the closed loop and aggregates a [`LoadReport`].
pub fn run(config: &LoadgenConfig) -> Result<LoadReport, String> {
    if config.bodies.is_empty() {
        return Err("loadgen needs at least one query body".to_string());
    }
    if config.concurrency == 0 {
        return Err("loadgen needs at least one worker".to_string());
    }
    let latency = Arc::new(obs::Histogram::new());
    let global_latency = obs::global().histogram("loadgen.request_nanos");
    let ok = Arc::new(AtomicU64::new(0));
    let non_2xx = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let errors_by_body: Arc<Vec<AtomicU64>> =
        Arc::new(config.bodies.iter().map(|_| AtomicU64::new(0)).collect());
    let start = Instant::now();

    std::thread::scope(|s| {
        for worker in 0..config.concurrency {
            let latency = Arc::clone(&latency);
            let global_latency = Arc::clone(&global_latency);
            let ok = Arc::clone(&ok);
            let non_2xx = Arc::clone(&non_2xx);
            let errors = Arc::clone(&errors);
            let errors_by_body = Arc::clone(&errors_by_body);
            let host = config.host.clone();
            let bodies = &config.bodies;
            let duration = config.duration;
            s.spawn(move || {
                let mut conn: Option<TcpStream> = None;
                let mut backoff = Backoff::new(worker as u64 + 1);
                let mut i = worker; // offset so workers interleave the mix
                while start.elapsed() < duration {
                    let idx = i % bodies.len();
                    let body = &bodies[idx];
                    i += 1;
                    let t0 = Instant::now();
                    match pooled_request(&mut conn, &host, "POST", "/query", Some(body)) {
                        Ok((status, _body)) => {
                            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                            latency.record(nanos);
                            global_latency.record(nanos);
                            backoff.reset();
                            if (200..300).contains(&status) {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                non_2xx.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            errors_by_body[idx].fetch_add(1, Ordering::Relaxed);
                            // Never sleep past the end of the run.
                            let delay = backoff.next_delay();
                            let left = duration.saturating_sub(start.elapsed());
                            std::thread::sleep(delay.min(left));
                        }
                    }
                }
            });
        }
    });

    Ok(LoadReport {
        ok: ok.load(Ordering::Relaxed),
        non_2xx: non_2xx.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        errors_by_body: errors_by_body
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        elapsed: start.elapsed().as_secs_f64(),
        latency: latency.summary(),
    })
}

/// Holds a run's p99 against the `max_p99_ms` bound of a guard file
/// (`ci/serving-guard.json`): the verdict line when the p99 is within
/// the bound; an error naming the file, the missing field or the two
/// numbers when it is not.
pub fn check_p99_guard(latency: &HistogramSummary, guard: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(guard)
        .map_err(|e| format!("guard file {}: {e}", guard.display()))?;
    let max_p99_ms = Json::parse(&text)
        .map_err(|e| format!("guard file: {e}"))?
        .get("max_p99_ms")
        .and_then(Json::as_f64)
        .ok_or("guard file needs a numeric max_p99_ms field")?;
    let p99_ms = latency.p99 as f64 / 1e6;
    if p99_ms > max_p99_ms {
        return Err(format!(
            "p99 {p99_ms:.2} ms exceeds guard limit {max_p99_ms:.2} ms"
        ));
    }
    Ok(format!(
        "p99 {p99_ms:.2} ms within limit {max_p99_ms:.2} ms"
    ))
}

/// Builds the standard query mix around one search: both plans over its
/// `T` and three fractions of it, so a run exercises scan and index paths
/// and produces plenty of repeat queries for the cache.
pub fn query_mix(region: &QueryRegion) -> Vec<String> {
    let (kind, v) = (region.kind.name(), region.v);
    let mut bodies = Vec::new();
    for plan in [QueryPlan::SeqScan, QueryPlan::Index] {
        for frac in [1.0, 0.75, 0.5, 0.25] {
            let (t_hours, plan) = (region.t * frac / HOUR, plan.word());
            bodies.push(format!(
                r#"{{"kind":"{kind}","v":{v},"t_hours":{t_hours},"plan":"{plan}"}}"#
            ));
        }
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_urls() {
        assert_eq!(
            parse_url("http://127.0.0.1:7878").unwrap(),
            "127.0.0.1:7878"
        );
        assert_eq!(
            parse_url("http://localhost:80/query").unwrap(),
            "localhost:80"
        );
        assert_eq!(parse_url("10.0.0.1:9000").unwrap(), "10.0.0.1:9000");
        assert!(parse_url("http://nohost").is_err());
        assert!(parse_url("https://h:1").is_err());
        assert!(parse_url(":123").is_err());
    }

    #[test]
    fn query_mix_is_distinct_and_valid_json() {
        let mix = query_mix(&QueryRegion::drop(HOUR, -3.0));
        assert_eq!(mix.len(), 8);
        let mut seen = std::collections::HashSet::new();
        for body in &mix {
            assert!(obs::json::Json::parse(body).is_ok(), "bad body: {body}");
            assert!(seen.insert(body.clone()), "duplicate body: {body}");
        }
    }

    #[test]
    fn report_math() {
        let r = LoadReport {
            ok: 100,
            non_2xx: 2,
            errors: 1,
            errors_by_body: vec![1, 0],
            elapsed: 4.0,
            latency: HistogramSummary::default(),
        };
        assert_eq!(r.qps(), 25.0);
        assert_eq!(r.total(), 103);
        assert_eq!(r.errors_by_body.iter().sum::<u64>(), r.errors);
    }

    #[test]
    fn p99_guard_reads_the_bound_and_compares() {
        let dir = std::env::temp_dir().join(format!("segdiff-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let guard = dir.join("guard.json");
        let latency = HistogramSummary {
            p99: 3_000_000,
            ..HistogramSummary::default()
        };

        let err = check_p99_guard(&latency, &guard).unwrap_err();
        assert!(err.contains("guard.json"), "missing file: {err}");
        std::fs::write(&guard, r#"{"max_p99_ms": "250"}"#).unwrap();
        let err = check_p99_guard(&latency, &guard).unwrap_err();
        assert!(err.contains("numeric max_p99_ms"), "{err}");
        std::fs::write(&guard, r#"{"max_p99_ms": 2.5}"#).unwrap();
        assert_eq!(
            check_p99_guard(&latency, &guard).unwrap_err(),
            "p99 3.00 ms exceeds guard limit 2.50 ms"
        );
        std::fs::write(&guard, r#"{"comment": "ci", "max_p99_ms": 250.0}"#).unwrap();
        assert_eq!(
            check_p99_guard(&latency, &guard).unwrap(),
            "p99 3.00 ms within limit 250.00 ms"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_grows_jitters_and_resets() {
        let mut b = Backoff::new(7);
        let mut prev_step = BACKOFF_BASE;
        for _ in 0..12 {
            let step = b.current;
            let delay = b.next_delay();
            // Jitter keeps each delay within [0.5, 1.5) of the step.
            assert!(
                delay >= step.mul_f64(0.5),
                "delay {delay:?} under step {step:?}"
            );
            assert!(
                delay < step.mul_f64(1.5),
                "delay {delay:?} over step {step:?}"
            );
            assert!(step >= prev_step, "steps never shrink mid-streak");
            assert!(b.current <= BACKOFF_CAP, "step is capped");
            prev_step = step;
        }
        assert_eq!(b.current, BACKOFF_CAP);
        b.reset();
        assert_eq!(b.current, BACKOFF_BASE);

        // Two workers with different seeds de-synchronize.
        let (mut x, mut y) = (Backoff::new(1), Backoff::new(2));
        let same = (0..8).filter(|_| x.next_delay() == y.next_delay()).count();
        assert!(same < 8, "seeded jitter must differ between workers");
    }
}
