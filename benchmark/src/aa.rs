//! `aa --runs K`: the benchmark's own repeatability check.
//!
//! Runs every workload K times as set A and K times as set B, alternating
//! A and B, run `i` of either set with seed `i + 1` (so the two sets see
//! the same inputs, as two measurements of one commit would). Per workload
//! and end-to-end metric it prints the spread of set A's single runs —
//! both `(max − min) / median` and the interquartile range over the median
//! that `BENCHMARK.json`'s bounds are checked against — the two set
//! medians, their relative difference, and PASS or FAIL against the
//! metric's bound. The same table follows for the raw (un-normalised)
//! figures, so what normalisation buys is on record.

use crate::harness::median;
use obs::json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct MetricSpec {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

struct Spec {
    workloads: Vec<String>,
    run_seconds: f64,
    metrics: Vec<MetricSpec>,
}

fn load_spec() -> Result<Spec, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))
    };
    let name_of = |item: &Json| {
        item.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("entry without a name".to_string())
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        metrics: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: name_of(m)?,
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("metric without a bound")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One child run's normalised and raw metric values, in `spec.metrics`
/// order.
struct RunValues {
    normalised: Vec<f64>,
    raw: Vec<f64>,
    /// Wall time of the whole child process, seconds.
    wall_s: f64,
}

fn run_once(spec: &Spec, workload: &str, seed: u64) -> Result<RunValues, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = std::time::Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last)?;
    let raw_line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("raw "))
        .ok_or("no raw line")?;
    let raw = Json::parse(raw_line)?;
    let values = |doc: &Json| -> Result<Vec<f64>, String> {
        spec.metrics
            .iter()
            .map(|m| {
                doc.get(&m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric {} missing from {workload}", m.name))
            })
            .collect()
    };
    Ok(RunValues {
        normalised: values(result.get("metrics").ok_or("no metrics")?)?,
        raw: values(&raw)?,
        wall_s,
    })
}

/// `statistics.quantiles(values, n=4)` (the exclusive method): the first
/// and third quartile.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let frac = pos - pos.floor();
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

fn table(title: &str, spec: &Spec, workload: &str, a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    println!("\n{workload} — {title}");
    println!(
        "  {:<22} {:>9} {:>9} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "range/med", "iqr/med", "median A", "median B", "B vs A", "bound"
    );
    let mut all_pass = true;
    for (k, m) in spec.metrics.iter().enumerate() {
        let col = |runs: &[Vec<f64>]| runs.iter().map(|r| r[k]).collect::<Vec<f64>>();
        let (va, vb) = (col(a), col(b));
        let (ma, mb) = (median(&va), median(&vb));
        let range = va.iter().cloned().fold(f64::MIN, f64::max)
            - va.iter().cloned().fold(f64::MAX, f64::min);
        let (q1, q3) = quartiles(&va);
        let iqr = (q3 - q1) / ma;
        // How much worse B's median is than A's, as a share of A's.
        let worse = if m.higher_is_better {
            (ma - mb) / ma
        } else {
            (mb - ma) / ma
        };
        let pass = worse.abs() <= m.bound && iqr <= m.bound;
        all_pass &= pass;
        println!(
            "  {:<22} {:>9.4} {:>9.4} {:>14.6} {:>14.6} {:>+8.4} {:>6.2}  {}",
            m.name,
            range / ma,
            iqr,
            ma,
            mb,
            (mb - ma) / ma,
            m.bound,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    all_pass
}

pub fn run(runs: usize) -> ExitCode {
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("aa: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Quartiles need two values on either side of the median.
    let runs = runs.max(5);
    println!(
        "A/A check: {runs} runs per set, --seconds {}, {} hardware threads",
        spec.run_seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut all_pass = true;
    for workload in &spec.workloads {
        let mut sets: [Vec<RunValues>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                let seed = i as u64 + 1;
                match run_once(&spec, workload, seed) {
                    Ok(values) => {
                        println!("run {workload} seed {seed}: {:?}", values.normalised);
                        set.push(values)
                    }
                    Err(e) => {
                        eprintln!("aa: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        let pick = |set: &[RunValues], raw: bool| -> Vec<Vec<f64>> {
            set.iter()
                .map(|r| {
                    if raw {
                        r.raw.clone()
                    } else {
                        r.normalised.clone()
                    }
                })
                .collect()
        };
        let walls: Vec<f64> = sets.iter().flatten().map(|r| r.wall_s).collect();
        println!(
            "\n{workload}: a run takes {:.1} s (median), {:.1} s at most",
            median(&walls),
            walls.iter().cloned().fold(0.0, f64::max)
        );
        all_pass &= table(
            "reference-normalised",
            &spec,
            workload,
            &pick(&sets[0], false),
            &pick(&sets[1], false),
        );
        // The raw table is for the record only; it decides nothing.
        table(
            "raw wall time",
            &spec,
            workload,
            &pick(&sets[0], true),
            &pick(&sets[1], true),
        );
    }
    println!("\nA/A {}", if all_pass { "PASS" } else { "FAIL" });
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
