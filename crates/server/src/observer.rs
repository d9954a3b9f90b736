//! Self-observation: the server watching its own telemetry.
//!
//! [`Observability`] bundles the three stores the observability routes
//! serve from: the metric time-series ring ([`SeriesStore`]), the
//! standing drop/jump alert engine ([`AlertEngine`]), and the
//! tail-sampling request-trace ring ([`TraceStore`]). [`Observer`] is
//! the background thread that animates the first two: every sampling
//! period it scrapes the global metrics registry into the series store
//! (counters become rates, histograms become interval quantiles,
//! gauges pass through) and then feeds the fresh points through the
//! paper's own segmentation + feature-extraction pipeline, so a latency
//! jump or throughput drop in the server is detected by exactly the
//! machinery the server exists to serve.

use obs::series::{SamplerState, SeriesStore, DEFAULT_SERIES_CAPACITY};
use obs::tracering::TraceStore;
use segdiff::alerts::{AlertEngine, AlertRuleSet, DEFAULT_ALERT_LOG_CAPACITY};
use segdiff::SubscriptionRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many finished requests the recent-trace ring retains.
pub const TRACE_RECENT_CAPACITY: usize = 256;

/// How many slow-or-erroring requests the tail-sampled ring retains.
/// Separate from the recent ring so a burst of fast requests cannot
/// evict the evidence of the slow ones.
pub const TRACE_SLOW_CAPACITY: usize = 64;

/// The shared observability state behind `GET /series`, `GET /alerts`
/// and `GET /debug/traces`. Cheap to clone handles out of; all three
/// stores are internally synchronized.
pub struct Observability {
    /// Sampled metric time series (`server.queries.rate`, `*.p50`, ...).
    pub series: Arc<SeriesStore>,
    /// Standing drop/jump rules evaluated over the series.
    pub alerts: Arc<AlertEngine>,
    /// Tail-sampling ring of recently finished requests.
    pub traces: Arc<TraceStore>,
    /// Standing-query registry behind `POST /subscribe` and
    /// `GET /notifications`; the observer thread publishes any staged
    /// notifications every tick as a fallback to the ingest-path flush.
    pub subs: Arc<SubscriptionRegistry>,
}

impl Observability {
    /// Builds the three stores with explicit capacities and rules.
    pub fn new(series_capacity: usize, rules: AlertRuleSet, slow_trace: Duration) -> Self {
        Observability {
            series: Arc::new(SeriesStore::new(series_capacity)),
            alerts: Arc::new(AlertEngine::new(rules, DEFAULT_ALERT_LOG_CAPACITY)),
            traces: Arc::new(TraceStore::new(
                TRACE_RECENT_CAPACITY,
                TRACE_SLOW_CAPACITY,
                slow_trace,
            )),
            subs: Arc::new(SubscriptionRegistry::default()),
        }
    }
}

impl Default for Observability {
    /// Default capacities with the built-in alert rules (mirrors
    /// `ci/alert-rules.toml`).
    fn default() -> Self {
        Observability::new(
            DEFAULT_SERIES_CAPACITY,
            AlertRuleSet::defaults(),
            Duration::from_millis(25),
        )
    }
}

/// The background sampler + alert-evaluation thread. One thread does
/// both jobs in lockstep: scrape the registry into the series store,
/// then run every standing rule over the points that arrived since the
/// last tick — so an alert fires at most one sampling period after the
/// offending samples land.
pub struct Observer {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Observer {
    /// Spawns the observer thread ticking every `period`.
    pub fn start(obsv: &Observability, period: Duration) -> Observer {
        let stop = Arc::new(AtomicBool::new(false));
        let series = Arc::clone(&obsv.series);
        let alerts = Arc::clone(&obsv.alerts);
        let subs = Arc::clone(&obsv.subs);
        let stop_flag = Arc::clone(&stop);
        let period = period.max(Duration::from_millis(10));
        let join = std::thread::Builder::new()
            .name("segdiff-observer".to_string())
            .spawn(move || {
                let mut sampler = SamplerState::new();
                while !stop_flag.load(Ordering::Acquire) {
                    let now = obs::unix_ms();
                    sampler.tick(obs::global(), &series, now);
                    // Publish any notifications staged since the last
                    // ingest-path flush, so a stalled ingest cannot hold
                    // matched features out of the cursors indefinitely.
                    subs.flush();
                    // The engine logs every alert it fires.
                    alerts.tick(&series, now);
                    // Sleep in slices so stop() returns promptly even
                    // with a long sampling period.
                    let mut slept = Duration::ZERO;
                    while slept < period && !stop_flag.load(Ordering::Acquire) {
                        let slice = (period - slept).min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .ok();
        Observer { stop, join }
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            j.join().unwrap_or_else(|_| {
                obs::warn!("observer thread panicked");
            });
        }
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            j.join().unwrap_or_else(|_| {
                obs::warn!("observer thread panicked");
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_samples_the_global_registry() {
        let obsv = Observability::default();
        obs::global().counter("server.queries").add(0); // ensure it exists
        let observer = Observer::start(&obsv, Duration::from_millis(20));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if obsv
                .series
                .names()
                .iter()
                .any(|n| n == "server.queries.rate")
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never scraped server.queries; names={:?}",
                obsv.series.names()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        observer.stop();
    }

    #[test]
    fn default_observability_carries_default_rules() {
        let obsv = Observability::default();
        let rules = obsv.alerts.rules();
        assert!(!rules.is_empty());
        assert!(rules.iter().any(|r| r.name == "query-latency-jump"));
        assert!(rules.iter().any(|r| r.name == "query-rate-drop"));
        assert!(obsv.alerts.alerts().is_empty());
    }
}
