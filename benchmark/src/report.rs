//! What a run reports: named metrics, the correctness gate, findings.

use crate::harness::{percentile, OpTime};
use featurespace::QueryRegion;
use obs::json::Json;
use segdiff::{oracle, SegmentPair};
use sensorgen::TimeSeries;
use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_samples_per_s", "1/s"),
    ("ingest_batch_p99_ms", "ms"),
    ("query_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ok_ops_ratio", "ratio"),
    ("bytes_per_sample", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics (`--trace 1`). Every traced run
/// prints all of them; a layer a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sensorgen.generate_ns_per_sample", "ns"),
    ("sensorgen.smooth_ns_per_sample", "ns"),
    ("segmentation.push_ns_per_sample", "ns"),
    ("segmentation.samples_per_segment", "count"),
    ("core.extract_ns_per_segment", "ns"),
    ("core.subscribe_ns_per_row", "ns"),
    ("core.feature_rows_per_segment", "count"),
    ("core.subscribe_tests_per_row", "count"),
    ("core.notifications", "count"),
    ("core.ingest_unattributed_ratio", "ratio"),
    ("core.seq_scan.scan_ms", "ms"),
    ("core.seq_scan.refine_ms", "ms"),
    ("core.index.probe_ms", "ms"),
    ("core.index.fetch_ms", "ms"),
    ("core.index.refine_ms", "ms"),
    ("core.seq_scan.rows_per_result", "count"),
    ("core.index.rows_per_result", "count"),
    ("core.query_unattributed_ratio", "ratio"),
    ("core.fanout_overhead_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_get_ns", "ns"),
    ("core.build_indexes_s", "s"),
    ("core.compact_storage_s", "s"),
    ("core.open_s", "s"),
    ("pagestore.heap_append_ns_per_row", "ns"),
    ("pagestore.btree_insert_ns_per_row", "ns"),
    ("pagestore.wal_commit_ns_per_row", "ns"),
    ("pagestore.wal_bytes_per_sample", "bytes"),
    ("pagestore.wal_checkpoints", "count"),
    ("pagestore.wal_fsync_ms", "ms"),
    ("pagestore.pool_hit_ratio", "ratio"),
    ("pagestore.pool_misses_per_query", "count"),
    ("pagestore.pool_evictions_per_query", "count"),
    ("pagestore.scan_decode_ns_per_row", "ns"),
    ("pagestore.fetch_ns_per_row", "ns"),
    ("pagestore.pages_pruned_ratio", "ratio"),
    ("pagestore.extents_pruned_per_query", "count"),
    ("pagestore.btree_entries_per_query", "count"),
    ("pagestore.heap_bytes_per_row", "bytes"),
    ("pagestore.index_bytes_per_row", "bytes"),
    ("pagestore.compression_ratio", "ratio"),
    ("featurespace.kernel_ns_per_row", "ns"),
    ("featurespace.region_match_ns_per_boundary", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.counter_inc_ns", "ns"),
    ("server.parse_us", "us"),
    ("server.handle_ms", "ms"),
    ("server.write_us", "us"),
    ("server.transport_ms", "ms"),
    ("server.response_bytes_per_query", "bytes"),
    ("router.hop_ms", "ms"),
    ("harness.ref_ms_p50", "ms"),
    ("harness.speed_ratio", "ratio"),
    ("harness.ref_share", "ratio"),
    ("harness.passes", "count"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// Deterministic pass/fail accounting. Every gated op — ingest batch,
/// query, request, consistency check — is counted; none depends on a
/// timing.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    messages: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(1, if ok { Vec::new() } else { vec![what()] });
    }

    /// Counts `attempted` ops of which `failures.len()` failed.
    pub fn record(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = 10usize.saturating_sub(self.messages.len());
        self.messages.extend(failures.into_iter().take(room));
    }

    /// Theorem 1 for one search: every true event of the ingested series
    /// must be covered by a returned pair. Events are thinned by a fixed
    /// stride to keep the check cheap; covering all implies covering these.
    pub fn check_recall(
        &mut self,
        sensor: usize,
        series: &TimeSeries,
        region: &QueryRegion,
        results: &[SegmentPair],
    ) {
        let events = oracle::true_events(series, region);
        let stride = events.len().div_ceil(400).max(1);
        let thinned: Vec<(f64, f64)> = events.iter().copied().step_by(stride).collect();
        let missed = oracle::find_missed_event(&thinned, results);
        self.check(missed.is_none(), || {
            format!("Theorem 1 violated: sensor {sensor} {region:?} missed {missed:?}")
        });
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Length, content hash and first/last pair of a result vector: two
/// vectors with the same fingerprint are taken to be byte-identical.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Fingerprint {
    pub len: u64,
    pub hash: u64,
    pub first: [u64; 4],
    pub last: [u64; 4],
}

fn pair_bits(p: &SegmentPair) -> [u64; 4] {
    [
        p.t_d.to_bits(),
        p.t_c.to_bits(),
        p.t_b.to_bits(),
        p.t_a.to_bits(),
    ]
}

impl Fingerprint {
    pub fn of(results: &[SegmentPair]) -> Self {
        Self::of_parts(std::slice::from_ref(&results))
    }

    /// Fingerprint of the concatenation of per-sensor result lists.
    pub fn of_parts<P: AsRef<[SegmentPair]>>(parts: &[P]) -> Self {
        let mut print = Fingerprint {
            hash: 0xCBF2_9CE4_8422_2325,
            ..Fingerprint::default()
        };
        for p in parts.iter().flat_map(|part| part.as_ref()) {
            let bits = pair_bits(p);
            if print.len == 0 {
                print.first = bits;
            }
            print.last = bits;
            print.len += 1;
            for w in bits {
                print.hash = (print.hash ^ w).wrapping_mul(0x0000_0100_0000_01B3);
                print.hash ^= print.hash >> 29;
            }
        }
        print
    }
}

/// Everything the nine end-to-end metrics are computed from.
pub struct EndToEnd {
    /// Σ of the set-up steps' medians, ms.
    pub setup: OpTime,
    /// Typical latency per ingest batch.
    pub ingest_batches: Vec<OpTime>,
    /// Ingest work of the live path that is not a batch (`finish`).
    pub ingest_tail: OpTime,
    pub samples: u64,
    /// Typical latency per query op.
    pub queries: Vec<OpTime>,
    pub store_bytes: u64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The metrics from normalised (`raw = false`) or raw wall times.
    pub fn metrics(&self, gate: &Gate, raw: bool) -> Vec<(String, f64)> {
        let ms = |t: &OpTime| if raw { t.raw_ms } else { t.norm_ms };
        let batch_ms: Vec<f64> = self.ingest_batches.iter().map(ms).collect();
        let query_ms: Vec<f64> = self.queries.iter().map(ms).collect();
        let ingest_s = (batch_ms.iter().sum::<f64>() + ms(&self.ingest_tail)) / 1e3;
        let query_s = query_ms.iter().sum::<f64>() / 1e3;
        let values = [
            ms(&self.setup) / 1e3,
            self.samples as f64 / ingest_s,
            percentile(&batch_ms, 0.99),
            query_ms.len() as f64 / query_s,
            percentile(&query_ms, 0.50),
            percentile(&query_ms, 0.99),
            1.0 - gate.failed as f64 / gate.attempted.max(1) as f64,
            self.store_bytes as f64 / self.samples as f64,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, _), v)| (name.to_string(), v))
            .collect()
    }
}

/// Per-layer metrics by name; unknown names are a bug in the benchmark.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The JSON object of one metric list: `{name: {"value": v, "unit": u}}`.
pub fn metrics_json(values: &[(String, f64)], units: &[(&str, &str)]) -> Json {
    Json::Object(
        values
            .iter()
            .map(|(name, value)| {
                let unit = units
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or("", |(_, u)| *u);
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}
