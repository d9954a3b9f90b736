//! The repo's benchmark. One invocation runs one workload for one seed:
//!
//! ```text
//! segdiff-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! segdiff-benchmark aa --runs <k>        # A/A repeatability check
//! ```
//!
//! It prints every metric by name with its unit, checks that the engine's
//! outputs are correct, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; it exits non-zero when
//! any output was wrong. See `README.md` for the protocol.

mod aa;
mod corpus;
mod harness;
mod ingest;
mod layers;
mod query;
mod refkernel;
mod report;
mod serve;
mod trace;

use harness::Clock;
use obs::json::Json;
use report::{metrics_json, EndToEnd, Gate, Layers, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "ingest_live",
    "query_resident",
    "query_bigcorpus",
    "serve_cached",
];

/// State shared by the phases of one run.
pub struct Ctx {
    pub seed: u64,
    /// `--seconds`: how long the timed passes may take; it chooses the
    /// number of passes over the fixed op list and nothing else.
    pub seconds: f64,
    pub trace: bool,
    /// This run's private directory under `benchmark/out/`.
    pub tmp: PathBuf,
    pub clock: Clock,
    pub gate: Gate,
    pub layers: Layers,
    pub tracer: trace::Tracer,
    /// Timing oddities worth a look; never failures.
    pub findings: Vec<String>,
    /// fsyncs issued by the traced `pagestore.wal_fsync_ms` probe, the
    /// only ones a run may make.
    pub probe_fsyncs: u64,
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: segdiff-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         segdiff-benchmark aa --runs <k>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    // `SegDiffIndex::open` takes its fsync policy from the environment;
    // every `create` below also says `with_sync(false)` in code.
    std::env::set_var("SEGDIFF_SYNC", "0");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("aa") {
        return match flag(&args, "--runs").and_then(|v| v.parse().ok()) {
            Some(runs) => aa::run(runs),
            None => usage(),
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(&args, "--workload"),
        flag(&args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(&args, "--seconds").and_then(|v| v.parse::<f64>().ok()),
        flag(&args, "--trace").and_then(|v| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !WORKLOADS.contains(&workload) || seconds.is_nan() || seconds <= 0.0 {
        return usage();
    }
    run_workload(workload, seed, seconds, trace)
}

/// Removes the run's directory when the run ends, also by a panic.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let tmp = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = RemoveOnDrop(tmp.clone());
    let clock = Clock::new();
    // The reference tables are the harness's memory, not the engine's.
    let rss_baseline_mb = harness::rss_mb();
    let fsyncs_before = obs::global().counter("wal.fsyncs").get();
    let mut ctx = Ctx {
        seed,
        seconds,
        trace,
        tmp: tmp.clone(),
        clock,
        gate: Gate::default(),
        layers: Layers::default(),
        tracer: trace::Tracer::new(),
        findings: Vec::new(),
        probe_fsyncs: 0,
    };

    let mut e2e: EndToEnd = match workload {
        "ingest_live" => ingest::run(&mut ctx),
        "query_resident" => query::run(&mut ctx, false),
        "query_bigcorpus" => query::run(&mut ctx, true),
        _ => serve::run(&mut ctx),
    };
    e2e.peak_rss_mb = harness::peak_rss_mb() - rss_baseline_mb;
    if trace {
        layers::common(&mut ctx);
    }
    // No measured path may sync.
    let fsyncs = obs::global().counter("wal.fsyncs").get() - fsyncs_before - ctx.probe_fsyncs;
    ctx.gate.check(fsyncs == 0, || {
        format!("{fsyncs} WAL fsyncs in a run whose flush policy is never to sync")
    });

    let normalised = e2e.metrics(&ctx.gate, false);
    let raw = e2e.metrics(&ctx.gate, true);
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    for ((name, unit), ((_, value), (_, raw_value))) in
        END_TO_END.iter().zip(normalised.iter().zip(&raw))
    {
        println!("{name} {value} {unit} (raw {raw_value})");
    }
    let reported: Vec<(String, f64)> = if trace {
        ctx.tracer.print_tiling(workload);
        let path = out_dir().join(format!("trace-{workload}.json"));
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
        println!(
            "tracing overhead: traced op time / untraced = {}",
            ctx.layers.get("harness.trace_overhead_ratio")
        );
        let values: Vec<(String, f64)> = PER_LAYER
            .iter()
            .map(|(name, _)| (name.to_string(), ctx.layers.get(name)))
            .collect();
        for ((name, unit), (_, value)) in PER_LAYER.iter().zip(&values) {
            println!("{name} {value} {unit}");
        }
        values
    } else {
        normalised
    };
    println!(
        "reference kernel: {} runs, p10 {:.4} p50 {:.4} p90 {:.4} ms (nominal {})",
        ctx.clock.ref_runs(),
        ctx.clock.ref_ms_percentile(0.10),
        ctx.clock.ref_ms_p50(),
        ctx.clock.ref_ms_percentile(0.90),
        refkernel::REF_NOMINAL_MS
    );
    for finding in &ctx.findings {
        println!("finding: {finding}");
    }
    for message in ctx.gate.messages() {
        println!("FAILED: {message}");
    }
    let correct = ctx.gate.failed == 0;
    // The raw (un-normalised) figures, for the A/A table.
    println!("raw {}", metrics_json(&raw, END_TO_END).to_string_compact());
    let units = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Uint(ctx.gate.attempted)),
            ("failed", Json::Uint(ctx.gate.failed)),
            ("metrics", metrics_json(&reported, units)),
        ])
        .to_string_compact()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
