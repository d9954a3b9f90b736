//! Metric history: fixed-size ring buffers fed by a periodic scrape.
//!
//! The registry ([`crate::MetricsRegistry`]) only answers "what is the
//! value *now*" — a collapse in hit rate or a latency spike between two
//! manual scrapes is invisible. This module adds the time axis:
//!
//! * [`SeriesStore`] — named rings of `(ts, value)` points with a fixed
//!   capacity per series, so memory is bounded no matter how long the
//!   process runs.
//! * [`SamplerState`] — a scrape pass that walks every registered
//!   metric, ticked at a fixed cadence by its caller (the server's
//!   observer thread, `segdiff stats --series`), and appends *derived*
//!   series: counters become rates (`<name>.rate`, per second), gauges
//!   record their raw level (`<name>`), histograms yield
//!   interval-windowed quantiles (`<name>.p50`, `<name>.p99`) plus a
//!   sample rate (`<name>.rate`).
//!
//! Windowed quantiles matter: registry histograms are cumulative over
//! the process lifetime, so a p50 computed from lifetime buckets barely
//! moves when latency jumps. The sampler keeps the previous bucket-count
//! array per histogram and estimates quantiles from the *delta*
//! ([`crate::quantile_from_counts`]), which is exactly the distribution
//! of samples recorded since the previous tick.

use crate::metrics::{quantile_from_counts, MetricsRegistry, BUCKETS};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// Milliseconds since the unix epoch (0 if the clock is before 1970).
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// One observation in a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sample time, unix milliseconds.
    pub ts_ms: u64,
    /// Sample value (rate, level, or windowed quantile).
    pub value: f64,
}

/// Bounded per-name rings of time-series points.
///
/// Writers push through one mutex; the sampler is the only steady-state
/// writer (one push per series per tick), so contention is negligible.
#[derive(Debug, Default)]
pub struct SeriesStore {
    inner: Mutex<BTreeMap<String, VecDeque<SeriesPoint>>>,
    capacity: usize,
}

/// Default points retained per series: 720 points at the default 500 ms
/// cadence is six minutes of history — enough to hold several alert
/// windows while keeping the whole store under ~1 MB at 60 series.
pub const DEFAULT_SERIES_CAPACITY: usize = 720;

impl SeriesStore {
    /// Creates a store retaining up to `capacity` points per series.
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            inner: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(2),
        }
    }

    /// Appends a point; evicts the oldest when the ring is full. Callers
    /// are expected to push monotonically increasing `ts_ms` per series
    /// (the sampler does); readers do not re-sort.
    pub fn push(&self, name: &str, ts_ms: u64, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let ring = inner.entry(name.to_string()).or_default();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(SeriesPoint { ts_ms, value });
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.keys().cloned().collect()
    }

    /// Points of `name` with `ts_ms > after_ts_ms`, oldest first.
    pub fn since(&self, name: &str, after_ts_ms: u64) -> Vec<SeriesPoint> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .get(name)
            .map(|ring| {
                ring.iter()
                    .filter(|p| p.ts_ms > after_ts_ms)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Points of `name` within the trailing `window` ending at `now_ms`.
    pub fn window(&self, name: &str, window: Duration, now_ms: u64) -> Vec<SeriesPoint> {
        let w = window.as_millis().min(u64::MAX as u128) as u64;
        self.since(name, now_ms.saturating_sub(w))
    }

    /// The most recent point of `name`, if any.
    pub fn last(&self, name: &str) -> Option<SeriesPoint> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.get(name).and_then(|r| r.back().copied())
    }
}

/// Per-histogram baseline kept between ticks.
struct HistBaseline {
    buckets: [u64; BUCKETS],
}

/// The scrape pass. Owns only baselines; the registry and store are
/// passed in per tick so one state can serve tests, the server's
/// observer thread and `segdiff stats --series` alike.
#[derive(Default)]
pub struct SamplerState {
    prev_counters: BTreeMap<String, u64>,
    prev_hists: BTreeMap<String, HistBaseline>,
    last_ts_ms: Option<u64>,
}

impl SamplerState {
    /// A fresh sampler with no baselines: the first tick only records
    /// them (a rate needs two observations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scrapes `registry` once at time `now_ms`, appending derived
    /// series to `store`. Ticks with a non-advancing clock are skipped.
    pub fn tick(&mut self, registry: &MetricsRegistry, store: &SeriesStore, now_ms: u64) {
        let dt_secs = match self.last_ts_ms {
            Some(prev) if now_ms <= prev => return,
            Some(prev) => Some((now_ms - prev) as f64 / 1e3),
            None => None,
        };
        self.last_ts_ms = Some(now_ms);
        registry.counter("sampler.ticks").inc();

        for (name, c) in registry.counter_handles() {
            let v = c.get();
            if let (Some(dt), Some(&prev)) = (dt_secs, self.prev_counters.get(&name)) {
                let rate = v.saturating_sub(prev) as f64 / dt;
                store.push(&format!("{name}.rate"), now_ms, rate);
            }
            self.prev_counters.insert(name, v);
        }

        for (name, g) in registry.gauge_handles() {
            store.push(&name, now_ms, g.get() as f64);
        }

        for (name, h) in registry.histogram_handles() {
            let counts = h.bucket_counts();
            if let (Some(dt), Some(prev)) = (dt_secs, self.prev_hists.get(&name)) {
                let mut window = [0u64; BUCKETS];
                for ((w, a), b) in window
                    .iter_mut()
                    .zip(counts.iter())
                    .zip(prev.buckets.iter())
                {
                    *w = a.saturating_sub(*b);
                }
                let n: u64 = window.iter().sum();
                // A quiet interval reports 0 rather than a gap, so a
                // stalled workload *looks* like a drop to the alerting
                // pipeline — which is the point.
                let (p50, p99) = if n == 0 {
                    (0.0, 0.0)
                } else {
                    (
                        quantile_from_counts(&window, 0.50) as f64,
                        quantile_from_counts(&window, 0.99) as f64,
                    )
                };
                store.push(&format!("{name}.p50"), now_ms, p50);
                store.push(&format!("{name}.p99"), now_ms, p99);
                store.push(&format!("{name}.rate"), now_ms, n as f64 / dt);
            }
            self.prev_hists
                .insert(name, HistBaseline { buckets: counts });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_bounds_memory_and_orders_points() {
        let s = SeriesStore::new(4);
        for i in 0..10u64 {
            s.push("a", i * 100, i as f64);
        }
        let pts = s.since("a", 0);
        assert_eq!(pts.len(), 4, "ring evicts oldest");
        assert_eq!(pts.first().map(|p| p.ts_ms), Some(600));
        assert_eq!(pts.last().map(|p| p.ts_ms), Some(900));
        assert_eq!(s.last("a").map(|p| p.value), Some(9.0));
        assert!(s.since("missing", 0).is_empty());
    }

    #[test]
    fn window_filters_by_trailing_duration() {
        let s = SeriesStore::new(100);
        for i in 0..10u64 {
            s.push("a", 1000 + i * 1000, i as f64);
        }
        let pts = s.window("a", Duration::from_secs(3), 10_000);
        assert_eq!(pts.len(), 3);
        assert!(pts.iter().all(|p| p.ts_ms > 7_000));
    }

    #[test]
    fn sampler_derives_rates_gauges_and_windowed_quantiles() {
        let r = MetricsRegistry::new();
        let store = SeriesStore::new(100);
        let mut sampler = SamplerState::new();

        r.counter("ops").add(100);
        r.gauge("depth").set(5);
        for _ in 0..100 {
            r.histogram("lat").record(1_000);
        }
        sampler.tick(&r, &store, 1_000);
        assert!(
            store.since("ops.rate", 0).is_empty(),
            "first tick only records baselines"
        );
        assert_eq!(store.last("depth").map(|p| p.value), Some(5.0));

        // Second tick: 50 more ops over 2 s, latency now 100x slower.
        r.counter("ops").add(50);
        r.gauge("depth").set(2);
        for _ in 0..10 {
            r.histogram("lat").record(100_000);
        }
        sampler.tick(&r, &store, 3_000);
        assert_eq!(store.last("ops.rate").map(|p| p.value), Some(25.0));
        assert_eq!(store.last("depth").map(|p| p.value), Some(2.0));
        let p50 = store.last("lat.p50").map(|p| p.value).unwrap();
        assert!(
            (65_536.0..=131_071.0).contains(&p50),
            "windowed p50 sees only the slow interval, got {p50}"
        );
        assert_eq!(store.last("lat.rate").map(|p| p.value), Some(5.0));

        // Quiet interval: quantiles report 0, not a gap.
        sampler.tick(&r, &store, 4_000);
        assert_eq!(store.last("lat.p50").map(|p| p.value), Some(0.0));
        assert_eq!(store.last("lat.rate").map(|p| p.value), Some(0.0));

        // A non-advancing clock skips the tick entirely.
        let before = store.since("depth", 0).len();
        sampler.tick(&r, &store, 4_000);
        assert_eq!(store.since("depth", 0).len(), before);
    }
}
