#![warn(missing_docs)]

//! **segdiff-obs** — unified telemetry for the SegDiff system.
//!
//! The paper's entire evaluation (§6) is built on counting physical I/Os
//! and timing query phases. This crate is the substrate that makes those
//! quantities observable in one place, for every layer of the system:
//!
//! * [`MetricsRegistry`] — a global, thread-safe registry of named
//!   [`Counter`]s, [`Gauge`]s and log-bucketed [`Histogram`]s (count /
//!   min / p50 / p90 / p99 / p999 / max). The storage engine publishes
//!   buffer-pool and B+tree counters here; query execution feeds
//!   per-phase latency histograms.
//! * [`series`] — the time axis: a background sampler scrapes every
//!   registered metric at a fixed cadence into bounded ring buffers
//!   (counters as rates, gauges raw, histograms as interval-windowed
//!   quantiles), which is what `GET /series` and the dogfooded alerting
//!   pipeline read.
//! * [`tracering`] — always-on request tracing: bounded rings of recent
//!   traces with tail-sampling that always retains slow or erroring
//!   requests, plus thread-propagated trace ids
//!   ([`next_trace_id`] / [`TraceIdScope`]).
//! * [`span`] / [`SpanGuard`] — RAII span timers. Every span records its
//!   wall time into the histogram `span.<name>`; when a trace is being
//!   collected ([`trace_begin`] / [`trace_take`]) spans also assemble a
//!   parent/child call-tree ([`TraceNode`]) so a query execution yields
//!   an `EXPLAIN ANALYZE`-style trace.
//! * [`export`] — pluggable snapshot exporters: human-readable text and
//!   line-delimited JSON.
//! * [`json`] — a dependency-free JSON value type, writer and parser
//!   (used by the exporters and by round-trip tests).
//! * logging macros ([`error!`], [`warn!`], [`info!`], [`debug!`])
//!   filtered by the `SEGDIFF_LOG` environment variable
//!   (`off|error|warn|info|debug`).
//! * [`flags`] — command-line flags parsed against a usage text, the
//!   argument parser the `segdiff` CLI, `reproduce` and the CI gates share.
//!
//! The crate has **zero external dependencies** and sits below
//! `pagestore` in the dependency graph, so every layer can use it.
//!
//! # Example
//!
//! ```
//! use obs::{global, span, trace_begin, trace_take};
//!
//! global().counter("example.requests").inc();
//! trace_begin();
//! {
//!     let root = span("query");
//!     {
//!         let s = span("scan");
//!         s.record("rows_out", 42u64);
//!     }
//!     root.record("plan", "SeqScan");
//! }
//! let trace = trace_take().expect("a trace was collected");
//! assert_eq!(trace.name, "query");
//! assert_eq!(trace.children.len(), 1);
//! assert_eq!(global().counter("example.requests").get(), 1);
//! ```

mod export_impl;
pub mod flags;
mod json_impl;
mod log_impl;
mod metrics;
pub mod names;
pub mod series;
mod span_impl;
pub mod tracering;

pub use metrics::{
    quantile_from_counts, Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry,
    MetricsSnapshot, BUCKETS,
};
pub use series::unix_ms;
pub use span_impl::{
    current_trace_id, next_trace_id, set_current_trace_id, span, trace_active, trace_begin,
    trace_take, SpanGuard, TraceIdScope, TraceNode,
};

/// Snapshot exporters (text and line-delimited JSON).
pub mod export {
    pub use crate::export_impl::{Exporter, JsonLinesExporter, TextExporter};
}

/// Dependency-free JSON value, writer and parser.
pub mod json {
    pub use crate::json_impl::{write_f64, write_u64, Json};
}

#[doc(hidden)]
pub mod log {
    pub use crate::log_impl::{emit, level, set_level, Level};
}

pub use log_impl::Level;

/// The process-wide metrics registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Logs at error level (shown unless `SEGDIFF_LOG=off`).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Error, ::core::format_args!($($arg)*))
    };
}

/// Logs at warn level.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Warn, ::core::format_args!($($arg)*))
    };
}

/// Logs at info level (enable with `SEGDIFF_LOG=info`).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Info, ::core::format_args!($($arg)*))
    };
}

/// Logs at debug level (enable with `SEGDIFF_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Debug, ::core::format_args!($($arg)*))
    };
}
