//! Beyond-paper experiment: throughput of the concurrent query service.
//!
//! The paper measures single-query latency; a deployment cares about
//! sustained queries/second under concurrency. This experiment builds
//! one index, then for each worker-thread count starts the HTTP server
//! in-process, drives it with the closed-loop load generator, and
//! reports throughput, tail latency, and result-cache effectiveness.
//! Scaling from 1 worker to N workers is the end-to-end proof that the
//! striped buffer pool and reader/writer table locks actually let
//! queries execute in parallel.

use crate::harness::{build_segdiff, default_series, scratch_dir, Scale};
use crate::report::Report;
use segdiff_server::loadgen::{self, query_mix};
use segdiff_server::{LoadgenConfig, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// One measured `(threads, load)` combination.
#[derive(Debug, Clone)]
pub struct ServingPoint {
    /// Server worker threads.
    pub threads: usize,
    /// Completed 2xx requests per second.
    pub qps: f64,
    /// Completed 2xx requests.
    pub ok: u64,
    /// Non-2xx responses plus transport errors.
    pub failures: u64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Result-cache hits during the run.
    pub cache_hits: u64,
    /// Result-cache misses during the run.
    pub cache_misses: u64,
}

/// Runs the load mix against servers with each thread count in
/// `thread_counts`, `duration` per point. The result cache is cleared
/// before every point so each configuration warms it from the same
/// cold start.
pub fn run_serving(
    scale: &Scale,
    thread_counts: &[usize],
    duration: Duration,
) -> Vec<ServingPoint> {
    let dir = scratch_dir("serving");
    let series = default_series(scale.subset_days, scale.seed);
    let built = build_segdiff(&series, 0.2, 8.0 * 3600.0, 4096, &dir, true);
    let index = Arc::new(built.index);
    let bodies = query_mix("drop", -2.0, 1.0);

    let mut points = Vec::new();
    for &threads in thread_counts {
        index.result_cache().clear();
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&index),
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
        .expect("bind serving benchmark server")
        .spawn();

        let before = obs::global().snapshot();
        let report = loadgen::run(&LoadgenConfig {
            host: server.host().to_string(),
            concurrency: 8,
            duration,
            bodies: bodies.clone(),
        })
        .expect("loadgen run");
        let delta = obs::global().snapshot().delta(&before);

        server.stop().expect("server run");

        let ms = |nanos: u64| nanos as f64 / 1e6;
        points.push(ServingPoint {
            threads,
            qps: report.qps(),
            ok: report.ok,
            failures: report.non_2xx + report.errors,
            p50_ms: ms(report.latency.p50),
            p90_ms: ms(report.latency.p90),
            p99_ms: ms(report.latency.p99),
            cache_hits: delta.counters.get("cache.hit").copied().unwrap_or(0),
            cache_misses: delta.counters.get("cache.miss").copied().unwrap_or(0),
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    points
}

/// Renders the serving table and the threads-1-vs-N scaling ratio.
pub fn serving_report(points: &[ServingPoint], report: &mut Report) {
    report.heading("Serving (beyond the paper): concurrent query service");
    report.para(
        "One shared index served over HTTP by a fixed worker pool; a closed-loop \
         load generator (8 connections) drives a drop/jump mix over both plans. \
         Queries repeat, so most are answered by the epoch-tagged result cache; \
         scaling with worker threads shows the striped buffer pool and RwLock \
         table internals executing queries in parallel.",
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{:.0}", p.qps),
                format!("{:.2}", p.p50_ms),
                format!("{:.2}", p.p90_ms),
                format!("{:.2}", p.p99_ms),
                p.ok.to_string(),
                p.failures.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * p.cache_hits as f64 / (p.cache_hits + p.cache_misses).max(1) as f64
                ),
            ]
        })
        .collect();
    report.table(
        &[
            "threads",
            "qps",
            "p50 ms",
            "p90 ms",
            "p99 ms",
            "ok",
            "failures",
            "cache hit rate",
        ],
        &rows,
    );
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        if first.threads < last.threads && first.qps > 0.0 {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            report.para(&format!(
                "Scaling {} -> {} worker threads: {:.2}x throughput \
                 (host parallelism: {} core{}; thread scaling is bounded by \
                 the cores available to the run).",
                first.threads,
                last.threads,
                last.qps / first.qps,
                cores,
                if cores == 1 { "" } else { "s" }
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_point_renders() {
        let points = vec![
            ServingPoint {
                threads: 1,
                qps: 100.0,
                ok: 100,
                failures: 0,
                p50_ms: 1.0,
                p90_ms: 2.0,
                p99_ms: 3.0,
                cache_hits: 90,
                cache_misses: 10,
            },
            ServingPoint {
                threads: 8,
                qps: 400.0,
                ok: 400,
                failures: 0,
                p50_ms: 0.5,
                p90_ms: 1.0,
                p99_ms: 2.0,
                cache_hits: 390,
                cache_misses: 10,
            },
        ];
        let mut report = Report::new();
        serving_report(&points, &mut report);
        let md = report.markdown();
        assert!(md.contains("| threads |"), "{md}");
        assert!(md.contains("4.00x throughput"), "{md}");
        assert!(md.contains("90.0%"), "{md}");
    }

    #[test]
    fn tiny_serving_run_completes() {
        let points = run_serving(&Scale::tiny(), &[2], Duration::from_millis(400));
        assert_eq!(points.len(), 1);
        assert!(points[0].ok > 0, "{points:?}");
        assert_eq!(points[0].failures, 0, "{points:?}");
    }
}
