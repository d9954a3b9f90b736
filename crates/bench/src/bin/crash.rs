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
//! there ([`SegDiffIndex::compact_storage`]: `segments` sealed, the
//! feature rows of the sealed run cut, the B+trees emptied), later
//! children ingest behind the sealed run, and the one that passes three
//! quarters compacts again, so kills land before, inside and after a
//! compaction of a row store and of a compacted store with rows behind
//! its sealed run.
//!
//! ```sh
//! cargo run --release -p segdiff-bench --bin crash -- --iterations 20 --out /tmp/crash
//! ```
//!
//! Flags: `--iterations N` (default 20), `--days D` (default 2),
//! `--seed S`, `--throttle-us U` (per-observation ingest delay in the
//! child), `--out DIR` (`summary.json` and `recovery.log`, one line an
//! iteration). The index lives in a scratch directory, removed when the
//! run passes.

use featurespace::QueryRegion;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use segdiff::{oracle, SegDiffConfig, SegDiffIndex};
use segdiff_bench::gate::{self, Gate, Proc};
use sensorgen::{generate_sensor, CadTransectConfig, TimeSeries, HOUR};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

/// `--child INDEX` is how the harness runs its children: the parent's
/// own flags plus the index to ingest into.
const USAGE: &str = "usage: crash [--iterations N] [--days N] [--seed S] [--throttle-us U] \
     [--out DIR] [--child INDEX]";

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
    let reopened = if dir.join("segdiff.meta").exists() {
        match SegDiffIndex::open(dir, 512) {
            Ok(idx) => Some(idx),
            // A kill inside create() can leave a meta file whose tables
            // were pruned as uncommitted; start over like the parent does.
            Err(pagestore::StoreError::NotFound(_)) => None,
            Err(e) => panic!("child reopen failed: {e}"),
        }
    } else {
        None
    };
    let mut idx = reopened.unwrap_or_else(|| {
        std::fs::remove_dir_all(dir).ok();
        SegDiffIndex::create(dir, durable_config()).expect("create")
    });
    let last = idx.segments().expect("segments").last().copied();
    let last_t = last.map_or(f64::NEG_INFINITY, |s| s.t_end);
    // Idempotent: builds only the B+trees a kill kept from existing.
    idx.build_indexes().expect("build_indexes");
    let marks = [series.len() / 2, series.len() * 3 / 4].map(|i| series.times()[i]);
    // Past a mark, segments behind the sealed run are a compaction that
    // has yet to seal them — or segments that arrived since one did, which
    // compacting once more does no harm. (A kill after the seal is
    // finished by the reopen, which cuts what the compaction had not.)
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
        "clean={} replayed={} truncated={} dropped_indexes={} sealed_segments={} segments={} events={} results={}",
        report.clean,
        report.replayed_pages,
        report.truncated_rows,
        report.dropped_indexes,
        idx.stats().sealed_segments,
        seen.segments,
        seen.events,
        seen.results
    ))
}

/// The parent loop: spawn a child, SIGKILL it after a random delay
/// unless it finished, check the recovered prefix, repeat.
fn run_crash(gate: &mut Gate, iterations: u32, days: u32, seed: u64) -> Result<(), String> {
    let work = std::env::temp_dir().join(format!("segdiff-crash-{}", std::process::id()));
    let dir = work.join("index");
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(|e| format!("mkdir {}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The child parses this process's own flags, plus where to ingest.
    let mut child_args: Vec<String> = std::env::args().skip(1).collect();
    child_args.extend(["--child".to_string(), dir.display().to_string()]);
    let series = workload(days, seed);
    let full_span = series.times().last().copied().unwrap_or(0.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A5_4CBA);

    let mut log = String::new();
    let (mut kills, mut completions) = (0u32, 0u32);
    let child_log = work.join("child.log");
    for i in 0..iterations {
        let mut child = Proc::spawn(&exe, &child_args, &child_log)?;
        let delay_ms: u64 = rng.random_range(5..400);
        std::thread::sleep(Duration::from_millis(delay_ms));
        let completed = match child.try_wait()? {
            Some(status) => {
                let output = std::fs::read_to_string(&child_log).unwrap_or_default();
                let detail = format!("iteration {i}: {status}\n{output}");
                if !gate.check("an unkilled child exits 0", status.success(), detail) {
                    break;
                }
                completions += 1;
                true
            }
            None => {
                child.kill();
                kills += 1;
                false
            }
        };
        let outcome = verify(&dir, &series);
        let state = if completed { "completed" } else { "killed" };
        let seen = outcome.clone().unwrap_or_else(|e| format!("FAIL {e}"));
        let line = format!("iter={i} delay_ms={delay_ms} {state}: {seen}");
        eprintln!("[crash] {line}");
        log.push_str(&line);
        log.push('\n');
        let what = format!("iteration {i}: check_prefix");
        gate.check(&what, outcome.is_ok(), outcome.err().unwrap_or_default());
        if completed {
            // Ingest ran to the end: the prefix is the whole workload.
            // Reset so remaining iterations keep exercising the seam.
            if let Ok(idx) = SegDiffIndex::open(&dir, 512) {
                let last = idx
                    .segments()
                    .map_err(|e| e.to_string())?
                    .last()
                    .map(|s| s.t_end);
                gate.check(
                    &format!("iteration {i}: a completed run covers the full span"),
                    last == Some(full_span),
                    format!("last segment ends at {last:?}, the input at {full_span}"),
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    gate.field("iterations", iterations);
    gate.field("kills", kills);
    gate.field("completions", completions);
    gate.artifact("recovery.log", log);
    if gate.passed() {
        std::fs::remove_dir_all(&work).ok();
    }
    Ok(())
}

fn main() {
    let (days, seed, throttle_us, child, iterations, out) = obs::flags::from_env(USAGE, |f| {
        Ok((
            f.value("--days")?.unwrap_or(2),
            f.value("--seed")?.unwrap_or(7),
            f.value("--throttle-us")?.unwrap_or(2000),
            f.value::<PathBuf>("--child")?,
            f.value("--iterations")?.unwrap_or(20),
            f.value("--out")?,
        ))
    });
    if let Some(dir) = child {
        run_child(&dir, days, seed, throttle_us);
    }
    gate::run("crash", out, |gate| run_crash(gate, iterations, days, seed))
}
