//! The shard server: a [`Service`] behind the shared HTTP front end.
//!
//! [`Server::run`] starts the self-observation thread, hands the
//! listener and the service to [`crate::httpd::serve`] (accept loop,
//! worker pool, keep-alive connections, load shedding — see that module),
//! and once the loop has drained makes the store durable. Shutdown is
//! cooperative: setting the shared flag (SIGINT/SIGTERM via
//! [`signal`], or `POST /shutdown`) stops the loop; `run` returns only
//! after every worker has joined, so the caller can flush and print a
//! final metrics snapshot knowing no query is still executing.

use crate::engine::Engine;
use crate::httpd::{self, Running, Tuning};
use crate::observer::{Observability, Observer};
use crate::service::{Service, ShardRole};
use segdiff::alerts::AlertRuleSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Tunables for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (min 1).
    pub threads: usize,
    /// Accepted connections waiting for a worker before `503`s start.
    pub queue_depth: usize,
    /// Per-connection read timeout; idle keep-alive connections are
    /// closed after this long, which also bounds shutdown latency.
    pub read_timeout: Duration,
    /// How often the self-observation thread scrapes the metrics
    /// registry into the series store and evaluates alert rules.
    pub sample_period: Duration,
    /// Ring capacity (points per series) of the sampled history.
    pub series_capacity: usize,
    /// Requests at least this slow are retained in the tail-sampled
    /// slow-trace ring regardless of how much fast traffic follows.
    pub slow_trace: Duration,
    /// Standing drop/jump alert rules evaluated over the sampled
    /// series (defaults mirror `ci/alert-rules.toml`).
    pub alert_rules: AlertRuleSet,
    /// Whether this process serves as a shard primary or a warm replica
    /// (reported by `/healthz`).
    pub role: ShardRole,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 8,
            queue_depth: 64,
            read_timeout: Duration::from_millis(1000),
            sample_period: Duration::from_millis(500),
            series_capacity: obs::series::DEFAULT_SERIES_CAPACITY,
            slow_trace: Duration::from_millis(25),
            alert_rules: AlertRuleSet::defaults(),
            role: ShardRole::Primary,
        }
    }
}

/// A bound-but-not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the service over `engine` — an `Arc<SegDiffIndex>`, an
    /// `Arc<TransectIndex>`, or an explicit [`Engine`]. No thread is
    /// spawned until [`Server::run`].
    pub fn bind(addr: &str, engine: impl Into<Engine>, config: ServerConfig) -> io::Result<Server> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let observability = Arc::new(Observability::new(
            config.series_capacity,
            config.alert_rules.clone(),
            config.slow_trace,
        ));
        let mut service = Service::with_observability(engine, Arc::clone(&shutdown), observability);
        service.set_role(config.role);
        let service = Arc::new(service);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            service,
            shutdown,
            config,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes the server drain and stop when set.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The service behind this server — e.g. to reach the standing-query
    /// registry (`service().observability().subs`) so a live ingest path
    /// can push committed features into it.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serves on the calling thread until shutdown, then drains the
    /// workers and flushes the store.
    pub fn run(self) -> io::Result<()> {
        // The self-observation thread: samples every registered metric
        // into the series store and runs the standing drop/jump rules
        // over the fresh points, for as long as the server serves.
        let observer = Observer::start(self.service.observability(), self.config.sample_period);
        httpd::serve(
            &self.listener,
            &self.shutdown,
            Tuning {
                name: "server",
                threads: self.config.threads,
                queue_depth: self.config.queue_depth,
                read_timeout: self.config.read_timeout,
            },
            self.service.as_ref(),
        )?;
        // Every query has finished; make the store durable before telling
        // the caller the drain is complete. With WAL on this checkpoints
        // and truncates the log, so the next open is clean. A replica's
        // store is an ordinary live one: its flush waits for an apply in
        // progress, and a row applied after it is the log's to recover.
        let flush_start = std::time::Instant::now();
        self.service
            .engine()
            .flush()
            .map_err(|e| io::Error::other(format!("flush on drain failed: {e}")))?;
        obs::global()
            .histogram("server.flush_ms")
            .record(flush_start.elapsed().as_millis().min(u64::MAX as u128) as u64);
        obs::info!(
            "drained and flushed in {:.1} ms",
            flush_start.elapsed().as_secs_f64() * 1e3
        );
        observer.stop();
        Ok(())
    }

    /// [`Server::run`] on a thread of its own.
    pub fn spawn(self) -> Running {
        Running::start(self.addr, self.shutdown_flag(), move || self.run())
    }
}

/// Process-wide SIGINT/SIGTERM latch, installed without any external
/// crate via the C `signal(2)` entry point (libc is already linked by
/// std). The handler only stores to an atomic, which is async-signal
/// safe; the serving loop polls [`signal::triggered`].
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGINT and SIGTERM to the latch. Idempotent.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: libc `signal` is called with valid signal numbers and
        // a handler that is an `extern "C" fn(i32)` whose body only
        // performs an atomic store — async-signal-safe, no allocation,
        // no locks, no Rust unwinding across the FFI boundary.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// No-op off unix: `POST /shutdown` remains the only trigger.
    #[cfg(not(unix))]
    pub fn install() {}

    /// Whether a shutdown signal has arrived.
    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }

    /// Clears the latch (tests only).
    #[doc(hidden)]
    pub fn reset() {
        TRIGGERED.store(false, Ordering::SeqCst);
    }
}
