//! Regenerates the paper's tables and figures on the synthetic workload.
//!
//! ```sh
//! cargo run --release -p segdiff-bench --bin reproduce -- all
//! cargo run --release -p segdiff-bench --bin reproduce -- table3 table5
//! cargo run --release -p segdiff-bench --bin reproduce -- all --days 60 --out report.md
//! ```
//!
//! The usage line below lists the experiments and flags. `all` (the
//! default) runs every experiment but `bigcorpus`, the larger-than-RAM
//! columnar smoke, which runs only when named. `--days N` is the subset
//! size, `--full-days N` the scalability run, `--queries N` the
//! random-query count, `--tiny` the smoke-test scale (the other flags
//! override it) and `--out PATH` writes the report as markdown.

use obs::flags::Flags;
use segdiff_bench::experiments::{self, EpsSweep, RandomQueryPoint, ScalePoint, WPoint};
use segdiff_bench::harness::with_registry_delta;
use segdiff_bench::{Report, Scale};
use std::collections::BTreeSet;
use std::path::PathBuf;

const USAGE: &str = "usage: reproduce [all | table3 | table4 | table5 | table6 | table7 | fig7_11
                  | fig12_13 | fig14_15 | fig16_24 | ablations | durability | bigcorpus] ...
                 [--days N] [--full-days N] [--queries N] [--repeats N] [--tiny] [--out PATH]";

struct Args {
    experiments: BTreeSet<String>,
    scale: Scale,
    queries: usize,
    out: Option<PathBuf>,
}

fn parse_args(f: &Flags) -> Result<Args, String> {
    let mut scale = if f.switch("--tiny") {
        Scale::tiny()
    } else {
        Scale::default()
    };
    scale.subset_days = f.value("--days")?.unwrap_or(scale.subset_days);
    scale.full_days = f.value("--full-days")?.unwrap_or(scale.full_days);
    scale.repeats = f.value("--repeats")?.unwrap_or(scale.repeats);
    let mut experiments: BTreeSet<String> = f.words().iter().cloned().collect();
    if experiments.is_empty() {
        experiments.insert("all".to_string());
    }
    Ok(Args {
        experiments,
        scale,
        queries: f.value("--queries")?.unwrap_or(30),
        out: f.value("--out")?,
    })
}

fn main() {
    let args = obs::flags::from_env(USAGE, parse_args);
    let want = |name: &str| -> bool {
        args.experiments.contains("all") || args.experiments.contains(name)
    };
    let mut report = Report::new();
    report.para(&format!(
        "# SegDiff reproduction run\n\nsubset: {} days, full: {} days, repeats: {}, seed: {}",
        args.scale.subset_days, args.scale.full_days, args.scale.repeats, args.scale.seed
    ));

    let needs_eps = ["table3", "table4", "table5", "table6", "fig7_11"]
        .iter()
        .any(|e| want(e));
    let mut eps_sweep: Option<EpsSweep> = None;
    let mut eps_metrics = None;
    if needs_eps {
        eprintln!("[reproduce] running epsilon sweep ...");
        let (sweep, delta) = with_registry_delta(|| experiments::run_eps_sweep(&args.scale));
        eps_sweep = Some(sweep);
        eps_metrics = Some(delta);
    }
    if let Some(sweep) = &eps_sweep {
        if want("table3") {
            experiments::table3(sweep, &mut report);
        }
        if want("table4") {
            experiments::table4(sweep, &mut report);
        }
        if want("table5") {
            experiments::table5(sweep, &mut report);
        }
        if want("table6") {
            experiments::table6(sweep, &mut report);
        }
        if want("fig7_11") {
            experiments::figs7_to_11(sweep, &mut report);
        }
        if let Some(delta) = &eps_metrics {
            report.metrics("Telemetry: epsilon sweep", delta);
        }
    }

    if want("table7") || want("fig12_13") {
        eprintln!("[reproduce] running window sweep ...");
        let (points, delta): (Vec<WPoint>, _) =
            with_registry_delta(|| experiments::run_w_sweep(&args.scale));
        experiments::table7_figs12_13(&points, &mut report);
        report.metrics("Telemetry: window sweep", &delta);
    }

    if want("fig14_15") {
        eprintln!("[reproduce] running scalability experiment ...");
        let (points, delta): (Vec<ScalePoint>, _) =
            with_registry_delta(|| experiments::run_scaling(&args.scale));
        experiments::figs14_15(&points, &mut report);
        report.metrics("Telemetry: scalability", &delta);
    }

    if want("fig16_24") {
        eprintln!(
            "[reproduce] running random-query study ({} queries) ...",
            args.queries
        );
        let (points, delta): (Vec<RandomQueryPoint>, _) =
            with_registry_delta(|| experiments::run_random_queries(&args.scale, args.queries));
        experiments::figs16_24(&points, &mut report);
        report.metrics("Telemetry: random queries", &delta);
    }

    if want("ablations") {
        eprintln!("[reproduce] running ablations ...");
        let (rows, delta) = with_registry_delta(|| experiments::run_ablations(&args.scale));
        experiments::ablations_report(&rows, &mut report);
        report.metrics("Telemetry: ablations", &delta);
    }

    // Explicit-only: a larger-than-RAM run is too slow for `all`.
    if args.experiments.contains("bigcorpus") {
        eprintln!("[reproduce] running big-corpus columnar smoke ...");
        let result = segdiff_bench::bigcorpus::run_bigcorpus(&args.scale);
        segdiff_bench::bigcorpus::bigcorpus_report(&result, &mut report);
        report.metrics("Telemetry: big corpus", &result.metrics);
        if result.extents_pruned == 0 {
            eprintln!("[reproduce] big-corpus FAILED: zonemap.extents_pruned == 0");
            std::process::exit(1);
        }
    }

    if want("durability") {
        eprintln!("[reproduce] running durability experiment ...");
        let (result, delta) = with_registry_delta(|| experiments::run_durability(&args.scale));
        experiments::durability_report(&result, &mut report);
        report.metrics("Telemetry: durability", &delta);
    }

    if let Some(path) = &args.out {
        report.save(path).expect("write report");
        eprintln!("[reproduce] wrote {}", path.display());
    }
}
