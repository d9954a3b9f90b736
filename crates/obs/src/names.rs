//! The metric-name registry: every counter and histogram the system
//! publishes, checked in as data.
//!
//! Telemetry names are stringly typed at their call sites
//! (`obs::global().counter("pool.hits")`), which makes typos and doc
//! drift invisible to the compiler. This module is the single source of
//! truth the `segdiff-lint` L4 rule enforces in both directions:
//!
//! * every name passed to [`crate::MetricsRegistry::counter`] /
//!   [`crate::MetricsRegistry::histogram`] / [`crate::span`] in
//!   non-test code must [`lookup`] to a registry entry of the right
//!   kind, and
//! * every registry entry must be referenced by at least one call site
//!   — dead entries are flagged too.
//!
//! The README "Metrics reference" table is generated from this registry
//! ([`markdown_table`]) and `segdiff-lint` fails when the two diverge,
//! so the docs cannot drift either.

/// Whether a metric is a monotonic counter, an instantaneous gauge, or
/// a latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter ([`crate::Counter`]).
    Counter,
    /// Instantaneous signed level ([`crate::Gauge`]).
    Gauge,
    /// Log-bucketed histogram ([`crate::Histogram`]), nanoseconds
    /// unless the name says otherwise (`*_ms`).
    Histogram,
}

impl MetricKind {
    /// Lower-case label used in docs and JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registered metric name.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Counter or histogram.
    pub kind: MetricKind,
    /// Registered name.
    pub name: &'static str,
    /// One-line description, surfaced in the generated docs table.
    pub help: &'static str,
}

impl MetricDef {
    /// A counter entry.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        MetricDef {
            kind: MetricKind::Counter,
            name,
            help,
        }
    }

    /// A gauge entry.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        MetricDef {
            kind: MetricKind::Gauge,
            name,
            help,
        }
    }

    /// A histogram entry.
    pub const fn histogram(name: &'static str, help: &'static str) -> Self {
        MetricDef {
            kind: MetricKind::Histogram,
            name,
            help,
        }
    }
}

/// Every metric name the system may publish, grouped by namespace.
pub const METRICS: &[MetricDef] = &[
    // Buffer pool (pagestore::buffer) — the paper's I/O cost model.
    MetricDef::counter("pool.hits", "Logical page requests served from the pool"),
    MetricDef::counter(
        "pool.misses",
        "Logical page requests that had to read from a file",
    ),
    MetricDef::counter("pool.evictions", "Frames evicted to make room"),
    MetricDef::counter("pool.physical_reads", "Pages read from backing files"),
    MetricDef::counter("pool.physical_writes", "Pages written to backing files"),
    MetricDef::gauge(
        "pool.resident_pages",
        "Pages currently resident across all buffer pools",
    ),
    // Zone maps (pagestore::heap + zonemap).
    MetricDef::counter(
        "zonemap.pages_pruned",
        "Heap pages skipped unread because the heap's whole-heap zone summary failed the filter",
    ),
    MetricDef::counter(
        "zonemap.extents_pruned",
        "Heaps (or row ranges of one) skipped whole because their zone summary failed the filter: one per skip",
    ),
    // Compressed columnar pages (pagestore::colpage).
    MetricDef::counter(
        "colpage.pages_written",
        "Columnar data pages written by seals (an insert never writes one)",
    ),
    MetricDef::counter(
        "colpage.pages_decoded",
        "Columnar pages decoded back into column values during scans and fetches",
    ),
    // B+trees and their write buffers (pagestore::btree, pagestore::table).
    MetricDef::counter(
        "btree.inserts",
        "Entries inserted into B+tree indexes (counted as they enter the write buffer)",
    ),
    MetricDef::counter(
        "btree.applies",
        "Write buffers merged into their B+tree, a whole sorted buffer at a time",
    ),
    MetricDef::counter(
        "btree.apply_leaves",
        "Leaf visits made by those merges (btree.inserts / btree.apply_leaves = entries per visit)",
    ),
    MetricDef::counter("btree.range_scans", "Range scans started on B+tree indexes"),
    MetricDef::counter(
        "btree.entries_scanned",
        "Index entries visited by range scans, in the tree or its write buffer",
    ),
    // Write-ahead log (pagestore::wal).
    MetricDef::counter("wal.appends", "Records appended to the write-ahead log"),
    MetricDef::counter("wal.bytes", "Bytes appended to the write-ahead log"),
    MetricDef::counter("wal.fsyncs", "fsync(2) calls issued by the log"),
    MetricDef::counter("wal.commits", "Commit records appended"),
    MetricDef::counter(
        "wal.checkpoints",
        "Fuzzy checkpoints taken (log truncations)",
    ),
    MetricDef::counter(
        "wal.replayed_records",
        "Log records replayed during recovery",
    ),
    // Crash recovery (pagestore::recovery).
    MetricDef::counter(
        "recovery.runs",
        "Recovery passes that found an unclean shutdown",
    ),
    // Ingest (core, the paper's Algorithm 1).
    MetricDef::counter("ingest.observations", "Raw sensor observations ingested"),
    MetricDef::counter("ingest.segments", "PLA segments produced by ingestion"),
    MetricDef::counter("ingest.feature_rows", "Feature-space rows written"),
    // Worker pool (core::pool).
    MetricDef::counter("parallel.jobs", "Worker-pool fan-out jobs executed"),
    MetricDef::counter(
        "parallel.tasks",
        "Individual tasks dispatched to worker-pool threads",
    ),
    // Query result cache (core::cache).
    MetricDef::counter(
        "cache.hit",
        "Query results served from the epoch-tagged cache",
    ),
    MetricDef::counter("cache.miss", "Query cache lookups that missed"),
    MetricDef::counter("cache.insert", "Results inserted into the query cache"),
    MetricDef::counter("cache.evict", "Query cache entries evicted (LRU)"),
    // Self-observation: sampler (obs::series), tracing (obs::tracering)
    // and dogfooded alerting (core::alerts).
    MetricDef::counter("sampler.ticks", "Scrape passes taken by the metric sampler"),
    MetricDef::counter(
        "trace.recorded",
        "Finished requests retained in the recent-trace ring",
    ),
    MetricDef::counter(
        "trace.slow_retained",
        "Slow or erroring requests tail-sampled into the slow-trace ring",
    ),
    MetricDef::counter(
        "alert.evaluated",
        "Alert-rule evaluation passes over internal series",
    ),
    MetricDef::counter("alert.fired", "Standing drop/jump alerts fired"),
    // Standing queries (core::subscribe).
    MetricDef::counter("subscribe.registered", "Standing queries registered"),
    MetricDef::counter("subscribe.removed", "Standing queries unsubscribed"),
    MetricDef::gauge("subscribe.active", "Standing queries currently registered"),
    MetricDef::counter(
        "subscribe.features_evaluated",
        "Committed feature rows evaluated against the region index",
    ),
    MetricDef::counter(
        "subscribe.regions_tested",
        "Registered regions tested exactly (after grid pruning)",
    ),
    MetricDef::counter(
        "subscribe.cells_visited",
        "Region-index grid cells zone-tested per feature",
    ),
    MetricDef::counter(
        "notify.delivered",
        "Notifications published to subscription cursors",
    ),
    MetricDef::counter(
        "notify.deduped",
        "Matches suppressed by per-subscription pair dedup",
    ),
    MetricDef::counter(
        "notify.dropped",
        "Published notifications evicted from a bounded log",
    ),
    // HTTP server (server); the accept-loop four come from server::httpd.
    MetricDef::counter("server.accepted", "TCP connections accepted"),
    MetricDef::counter("server.rejected", "Connections shed with 503 (queue full)"),
    MetricDef::counter(
        "server.requeued",
        "Keep-alive connections yielded back to the queue",
    ),
    MetricDef::counter("server.requests", "HTTP requests served"),
    MetricDef::counter("server.queries", "POST /query requests executed"),
    MetricDef::counter("server.bad_requests", "Requests answered 400"),
    MetricDef::counter("server.not_found", "Requests answered 404"),
    MetricDef::counter("server.errors", "Requests answered 5xx"),
    MetricDef::gauge("server.inflight", "Requests currently executing"),
    MetricDef::gauge(
        "server.queue_depth",
        "Accepted connections waiting for a worker",
    ),
    MetricDef::histogram("server.request_nanos", "Wall time per HTTP request"),
    MetricDef::histogram("server.query_nanos", "Wall time per executed query"),
    MetricDef::histogram(
        "server.flush_ms",
        "Store flush duration at drain (milliseconds)",
    ),
    // Row shipping: replica side (server::replica; `GET /segments`).
    MetricDef::counter(
        "replica.ship_rounds",
        "Tail rounds completed by the replica",
    ),
    MetricDef::counter(
        "replica.ship_errors",
        "Tail rounds that failed (transport, status, decode, or a refused run)",
    ),
    MetricDef::counter(
        "replica.rows_applied",
        "Shipped `segments` rows the replica applied to its store",
    ),
    MetricDef::counter(
        "replica.rebuilds",
        "Sensors rebuilt from row 0 after the primary held fewer rows than the replica",
    ),
    // Cluster router (router crate).
    MetricDef::counter("router.queries", "POST /query requests routed"),
    MetricDef::counter(
        "router.scatter_requests",
        "Per-shard sub-queries issued by scatter–gather",
    ),
    MetricDef::counter(
        "router.shard_errors",
        "Sub-queries that failed against a shard endpoint",
    ),
    MetricDef::counter(
        "router.degraded",
        "Queries answered 503 with unavailable_sensors",
    ),
    MetricDef::counter("router.bad_requests", "Router requests answered 400"),
    MetricDef::counter("router.health_probes", "Shard health probes issued"),
    MetricDef::counter(
        "router.failovers",
        "Primary→replica read failovers observed",
    ),
    MetricDef::counter("router.accepted", "TCP connections accepted by the router"),
    MetricDef::counter(
        "router.rejected",
        "Router connections shed with 503 (queue full)",
    ),
    MetricDef::counter(
        "router.requeued",
        "Router keep-alive connections yielded back to the queue",
    ),
    MetricDef::gauge(
        "router.queue_depth",
        "Accepted router connections waiting for a worker",
    ),
    MetricDef::histogram("router.query_nanos", "Wall time per scatter–gather query"),
    // Load generator (server::loadgen).
    MetricDef::histogram(
        "loadgen.request_nanos",
        "Client-observed wall time per request",
    ),
    // Spans: every obs::span("<name>") records into `span.<name>`.
    MetricDef::histogram("span.query", "End-to-end query execution"),
    MetricDef::histogram("span.query.plan", "Query phase: plan selection"),
    MetricDef::histogram("span.query.scan", "Query phase: sequential feature scan"),
    MetricDef::histogram("span.query.probe", "Query phase: index probe"),
    MetricDef::histogram("span.query.fetch", "Query phase: row fetch after probe"),
    MetricDef::histogram("span.query.refine", "Query phase: candidate refinement"),
    MetricDef::histogram("span.ingest.series", "Ingest of one series"),
    MetricDef::histogram("span.ingest.finish", "Ingest finalization (flush + commit)"),
    MetricDef::histogram(
        "span.ingest.build_indexes",
        "Index build over feature tables",
    ),
    MetricDef::histogram(
        "span.ingest.compact",
        "Sealing of every table's rows into compressed columnar pages",
    ),
];

/// Finds the registry entry for `name`.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// The generated markdown metrics table (README "Metrics reference").
///
/// `segdiff-lint` regenerates this and fails when the README section
/// between the `<!-- metrics-table:begin -->` / `end` markers differs.
pub fn markdown_table() -> String {
    let mut out = String::from("| name | kind | description |\n|---|---|---|\n");
    for d in METRICS {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            d.name,
            d.kind.label(),
            d.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_exact() {
        assert!(lookup("pool.hits").is_some());
        assert!(lookup("pool.hit").is_none());
        assert!(lookup("pool.hits.extra").is_none());
        assert!(lookup("span.query.refine").is_some());
    }

    #[test]
    fn kinds_are_recorded() {
        assert_eq!(lookup("cache.hit").unwrap().kind, MetricKind::Counter);
        assert_eq!(lookup("server.inflight").unwrap().kind, MetricKind::Gauge);
        assert_eq!(
            lookup("pool.resident_pages").unwrap().kind,
            MetricKind::Gauge
        );
        assert_eq!(
            lookup("server.flush_ms").unwrap().kind,
            MetricKind::Histogram
        );
    }

    #[test]
    fn no_duplicate_or_overlapping_names() {
        for (i, a) in METRICS.iter().enumerate() {
            for b in METRICS.iter().skip(i + 1) {
                assert_ne!(a.name, b.name, "duplicate registry entry {}", a.name);
            }
        }
    }

    #[test]
    fn table_lists_every_entry() {
        let table = markdown_table();
        for d in METRICS {
            assert!(table.contains(d.name), "table missing {}", d.name);
        }
    }
}
