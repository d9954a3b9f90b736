//! `segdiff-lint` — CLI for the workspace invariant checker.
//!
//! ```text
//! segdiff-lint [--root DIR] [--rules L3,L7] [--format text|json]
//!              [--list] [--emit-metrics-table]
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config error.
//! `--format json` emits the versioned report schema documented in the
//! README "Static analysis" section (schema, files analyzed,
//! wall-clock, per-rule counts, diagnostics).

use lint::diag::{render_report, Report, Rule};
use lint::{find_root, load_registry, run, Options};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("segdiff-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut root: Option<PathBuf> = None;
    let mut rules: Option<BTreeSet<Rule>> = None;
    let mut json = false;
    let mut list = false;
    let mut emit_metrics = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(v));
            }
            "--rules" => {
                let v = args.next().ok_or("--rules needs a list like L3,L7")?;
                let mut set = BTreeSet::new();
                for part in v.split(',') {
                    set.insert(Rule::parse(part).ok_or_else(|| format!("unknown rule `{part}`"))?);
                }
                rules = Some(set);
            }
            "--format" => {
                let v = args.next().ok_or("--format needs text|json")?;
                json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--list" => list = true,
            "--emit-metrics-table" => emit_metrics = true,
            "--help" | "-h" => {
                println!(
                    "segdiff-lint: workspace invariant checker\n\n\
                     USAGE: segdiff-lint [--root DIR] [--rules L3,L7] [--format text|json]\n\
                     \x20                 [--list] [--emit-metrics-table]\n\n\
                     Exit codes: 0 clean, 1 violations, 2 usage/config error.\n\n\
                     Rules (all enabled by default; suppress a site with\n\
                     `// lint: allow(<rule>) <reason>`):"
                );
                for r in Rule::ALL {
                    println!("  {}  {}", r.id(), r.describe());
                }
                println!(
                    "\nPanics, `unsafe` without `// SAFETY:` and `let _ =` discards are\n\
                     clippy lints, denied in the manifests' `[lints.clippy]` tables."
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if list {
        for r in Rule::ALL {
            println!("{}  {}", r.id(), r.describe());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd)
                .ok_or("cannot find the workspace root (ci/lock-order.toml); pass --root")?
        }
    };

    if emit_metrics {
        let registry = load_registry(&root).map_err(|e| e.to_string())?;
        print!("{}", lint::rules::names::markdown_table(&registry));
        return Ok(ExitCode::SUCCESS);
    }

    let opts = Options {
        rules: rules.unwrap_or_else(|| Rule::ALL.into_iter().collect()),
        root,
    };
    let start = Instant::now();
    let result = run(&opts).map_err(|e| e.to_string())?;
    let report = Report {
        rules: Rule::ALL
            .into_iter()
            .filter(|r| opts.rules.contains(r))
            .collect(),
        files_analyzed: result.files_analyzed,
        wall_ms: start.elapsed().as_millis().min(u64::MAX as u128) as u64,
        diags: result.diags,
    };
    print!("{}", render_report(&report, json));
    if report.diags.is_empty() {
        if !json {
            println!(
                "segdiff-lint: clean ({} rules, {} files, {} ms)",
                opts.rules.len(),
                report.files_analyzed,
                report.wall_ms
            );
        }
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}
