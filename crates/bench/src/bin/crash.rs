//! Crash-injection harness for the durability subsystem.
//!
//! The parent repeatedly spawns a child process (this same binary with
//! `--child`) that ingests a deterministic transect into a WAL-backed
//! index, throttled so the kill window is wide, and SIGKILLs it at a
//! random point. After every kill the parent reopens the index — which
//! runs WAL recovery — and holds it to the one crash checker,
//! [`oracle::check_prefix`], which the simulated-crash schedules
//! (`crates/sim`) share:
//!
//! 1. **Prefix consistency**: the recovered index equals the index a
//!    crash-free run would have produced over some prefix of the input
//!    (segment chain unbroken, feature tables exactly reproducible by
//!    replaying extraction over the stored segments).
//! 2. **Theorem 1 and Lemma 5 over the prefix**: a drop and a jump query
//!    against the recovered index find every true event inside the
//!    recovered prefix — no event is lost across the crash/recovery seam —
//!    and every pair they return holds a change within `2ε` of `V`.
//! 3. **The B+trees are the heap's**: the child maintains every query
//!    B+tree while it ingests, so a kill loses write buffers and leaves
//!    tree files behind the heap; whether recovery dropped and rebuilt
//!    them or a completed run's reopen re-derived the buffers, the index
//!    plan must answer exactly as the sequential scan does.
//!
//! The child then *resumes* from the recovered prefix, so one run also
//! exercises repeated crash–recover–resume cycles over the same store.
//! The child whose prefix first passes half the input compacts the store
//! there ([`SegDiffIndex::compact_storage`]: columnar, clustered, sealed,
//! the B+trees emptied), later children ingest behind the sealed rows,
//! and the one that passes three quarters compacts again, so kills land
//! before, inside and after a seal of a row store and a seal of a sealed
//! prefix with a raw tail.
//!
//! ```sh
//! cargo run --release -p segdiff-bench --bin crash -- --iterations 20
//! ```
//!
//! Flags: `--iterations N` (default 20), `--days D` (default 2),
//! `--seed S`, `--throttle-us U` (per-observation ingest delay in the
//! child), `--dir PATH` (index directory), `--log PATH` (recovery log,
//! default `crash-recovery.log` in the index dir's parent).

use featurespace::QueryRegion;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use segdiff::{oracle, SegDiffConfig, SegDiffIndex};
use sensorgen::{generate_sensor, CadTransectConfig, TimeSeries, HOUR};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Duration;

struct Args {
    child: bool,
    iterations: u32,
    days: u32,
    seed: u64,
    throttle_us: u64,
    dir: Option<PathBuf>,
    log: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        child: false,
        iterations: 20,
        days: 2,
        seed: 7,
        throttle_us: 2000,
        dir: None,
        log: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match a.as_str() {
            "--child" => args.child = true,
            "--iterations" => args.iterations = num("--iterations") as u32,
            "--days" => args.days = num("--days") as u32,
            "--seed" => args.seed = num("--seed"),
            "--throttle-us" => args.throttle_us = num("--throttle-us"),
            "--dir" => args.dir = Some(PathBuf::from(it.next().expect("--dir PATH"))),
            "--log" => args.log = Some(PathBuf::from(it.next().expect("--log PATH"))),
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }
    args
}

/// The workload both parent and child derive independently: a clean CAD
/// transect (no anomalies), fully determined by `days` and `seed`.
fn workload(days: u32, seed: u64) -> TimeSeries {
    generate_sensor(
        &CadTransectConfig::default().with_days(days).clean(),
        12,
        seed,
    )
}

fn durable_config() -> SegDiffConfig {
    // SIGKILL leaves the OS page cache intact, so fsyncs are not needed
    // for crash *consistency* — and skipping them keeps iterations fast.
    SegDiffConfig::default()
        .with_sync(false)
        .with_pool_pages(512)
}

/// Child mode: resume (or start) ingesting the workload into `dir`,
/// sleeping `throttle_us` per observation so kills land mid-ingest.
fn run_child(dir: &Path, days: u32, seed: u64, throttle_us: u64) {
    let series = workload(days, seed);
    let (mut idx, last_t) = if dir.join("segdiff.meta").exists() {
        match SegDiffIndex::open(dir, 512) {
            Ok(idx) => {
                let last_t = idx
                    .segments()
                    .expect("segments")
                    .last()
                    .map(|s| s.t_end)
                    .unwrap_or(f64::NEG_INFINITY);
                (idx, last_t)
            }
            // A kill inside create() can leave a meta file whose tables
            // were pruned as uncommitted; start over like the parent does.
            Err(pagestore::StoreError::NotFound(_)) => {
                std::fs::remove_dir_all(dir).ok();
                (
                    SegDiffIndex::create(dir, durable_config()).expect("create"),
                    f64::NEG_INFINITY,
                )
            }
            Err(e) => panic!("child reopen failed: {e}"),
        }
    } else {
        std::fs::remove_dir_all(dir).ok();
        (
            SegDiffIndex::create(dir, durable_config()).expect("create"),
            f64::NEG_INFINITY,
        )
    };
    // Idempotent: builds only the B+trees a kill kept from existing.
    idx.build_indexes().expect("build_indexes");
    let marks = [series.len() / 2, series.len() * 3 / 4].map(|i| series.times()[i]);
    // `segments` is sealed last: past a mark, rows behind its sealed ones
    // are a compaction that has yet to finish — or rows that arrived since
    // one did, which sealing once more does no harm.
    let segments = idx.database().table("segments").expect("segments");
    let mut due = last_t > marks[0] && segments.sealed_rows() < segments.num_rows();
    let mut prev = last_t;
    for (t, v) in series.iter().filter(|&(t, _)| t > last_t) {
        if due || marks.iter().any(|&mark| prev <= mark && mark < t) {
            idx.compact_storage().expect("compact_storage");
            due = false;
        }
        prev = t;
        idx.push(t, v).expect("push");
        if throttle_us > 0 {
            std::thread::sleep(Duration::from_micros(throttle_us));
        }
    }
    idx.finish().expect("finish");
    exit(0);
}

/// The rows sealed across the feature tables (a kill inside a compaction
/// leaves some of them sealed whole and the others with their raw tail).
fn sealed_rows(idx: &SegDiffIndex) -> u64 {
    ["drop1", "drop2", "drop3", "jump1", "jump2", "jump3"]
        .iter()
        .map(|name| idx.database().table(name).expect("table").sealed_rows())
        .sum()
}

/// One recovered-prefix check ([`oracle::check_prefix`]). Returns a
/// human-readable summary for the recovery log.
fn verify(dir: &Path, series: &TimeSeries) -> Result<String, String> {
    let idx = match SegDiffIndex::open(dir, 512) {
        Ok(idx) => idx,
        // Killed before the first commit made it to disk: recovery pruned
        // everything, which is a valid (empty) prefix. Start over.
        Err(pagestore::StoreError::NotFound(_)) => {
            std::fs::remove_dir_all(dir).ok();
            return Ok("empty prefix (killed before first commit); reset".into());
        }
        Err(e) => return Err(format!("reopen failed: {e}")),
    };
    let report = idx
        .recovery_report()
        .ok_or("index opened without WAL recovery")?
        .clone();
    // A kill before the child's `build_indexes` finished leaves some
    // B+trees unbuilt; the ones that exist stay as recovery left them.
    idx.build_indexes().map_err(|e| e.to_string())?;
    let regions = [
        QueryRegion::drop(1.0 * HOUR, -1.0),
        QueryRegion::jump(2.0 * HOUR, 1.0),
    ];
    let seen = oracle::check_prefix(&idx, series, &regions)?;
    Ok(format!(
        "clean={} replayed={} truncated={} dropped_indexes={} sealed_rows={} segments={} events={} results={}",
        report.clean,
        report.replayed_pages,
        report.truncated_rows,
        report.dropped_indexes,
        sealed_rows(&idx),
        seen.segments,
        seen.events,
        seen.results
    ))
}

fn main() {
    let args = parse_args();
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("segdiff-crash-{}", std::process::id()))
    });
    if args.child {
        run_child(&dir, args.days, args.seed, args.throttle_us);
    }

    let log_path = args.log.clone().unwrap_or_else(|| {
        let mut name = dir.file_name().unwrap_or_default().to_os_string();
        name.push("-recovery.log");
        dir.with_file_name(name)
    });
    let mut log = std::fs::File::create(&log_path).expect("create recovery log");
    let exe = std::env::current_exe().expect("current_exe");
    let series = workload(args.days, args.seed);
    let full_span = series.times().last().copied().unwrap_or(0.0);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC4A5_4CBA);
    std::fs::remove_dir_all(&dir).ok();

    let mut kills = 0u32;
    let mut completions = 0u32;
    let mut failures = 0u32;
    for i in 0..args.iterations {
        let mut child = Command::new(&exe)
            .arg("--child")
            .args(["--dir".as_ref(), dir.as_os_str()])
            .args(["--days", &args.days.to_string()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--throttle-us", &args.throttle_us.to_string()])
            .spawn()
            .expect("spawn child");
        let delay_ms: u64 = rng.random_range(5..400);
        std::thread::sleep(Duration::from_millis(delay_ms));
        let completed = match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "child failed on its own: {status}");
                completions += 1;
                true
            }
            None => {
                child.kill().expect("SIGKILL child"); // SIGKILL on unix
                child.wait().expect("reap child");
                kills += 1;
                false
            }
        };
        let outcome = verify(&dir, &series);
        let line = format!(
            "iter={i} delay_ms={delay_ms} {}: {}",
            if completed { "completed" } else { "killed" },
            match &outcome {
                Ok(s) => s.clone(),
                Err(e) => format!("FAIL {e}"),
            }
        );
        eprintln!("[crash] {line}");
        writeln!(log, "{line}").expect("write log");
        if outcome.is_err() {
            failures += 1;
        }
        if completed {
            // Ingest ran to the end: the prefix is the whole workload.
            // Reset so remaining iterations keep exercising the seam.
            if let Ok(idx) = SegDiffIndex::open(&dir, 512) {
                let last = idx.segments().expect("segments").last().copied();
                assert_eq!(
                    last.map(|s| s.t_end),
                    Some(full_span),
                    "completed run must cover the full workload"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let summary = format!(
        "done: {} iterations, {kills} kills, {completions} completions, {failures} failures",
        args.iterations
    );
    eprintln!("[crash] {summary}");
    writeln!(log, "{summary}").expect("write log");
    println!("recovery log: {}", log_path.display());
    if failures > 0 {
        exit(1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
