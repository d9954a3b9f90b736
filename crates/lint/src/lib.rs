#![warn(missing_docs)]

//! **segdiff-lint** — the workspace invariant checker.
//!
//! The concurrent, crash-safe layers grown in PRs 1–3 rely on
//! invariants the compiler cannot see: lock acquisition order across
//! the buffer pool and the WAL, no blocking under a lock, and a
//! hand-maintained metric namespace. In the spirit of the paper's own
//! conservative guarantees (SegDiff's "no false negatives, bounded
//! false positives", Theorem 1), this crate enforces those invariants as named,
//! individually suppressable rules over a lightweight Rust lexer — no
//! rustc plumbing, no external dependencies:
//!
//! | rule | invariant |
//! |------|-----------|
//! | L0 | `// lint: allow(…)` suppressions name known rules, carry a reason, and still suppress something |
//! | L3 | lock order follows `ci/lock-order.toml` (within one function) |
//! | L4 | metric names round-trip through `crates/obs/src/names.rs` (and the README table) |
//! | L6 | lock order holds across intra-crate calls ([`callgraph`] summaries) |
//! | L7 | no blocking call under a live guard, outside the `[[allow_blocking]]` allowlist |
//!
//! Panics, `unsafe` without `// SAFETY:` and `let _ =` discards are
//! clippy's to catch: the `[lints.clippy]` tables of the workspace
//! manifests deny them (see the README's "Static analysis").
//!
//! L0, L3, L4 and L7 are per-file passes. L6 assembles a workspace
//! call graph ([`callgraph`]) over the shared guard-lifetime walk
//! ([`flow`]) and re-checks the declared lock order on *composed*
//! paths — a helper acquiring a low-ranked lock is flagged at every
//! call site whose caller holds a higher-ranked one. Suppressions are
//! applied centrally ([`context::SuppressionIndex`]): rules emit
//! everything they see, the index drops the suppressed findings, and
//! any well-formed suppression that no longer fires is itself an L0
//! violation — the suppression inventory cannot rot.
//!
//! Run as `cargo run -p lint` (binary `segdiff-lint`); it emits
//! rustc-style `file:line:col` diagnostics (or `--format json` for the
//! versioned CI artifact schema — see [`diag::Report`]) and exits
//! nonzero on any violation.

pub mod callgraph;
pub mod config;
pub mod context;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod toml;

use config::{LockOrder, LOCK_ORDER_PATH, NAMES_RS_PATH};
use context::{FileCtx, SuppressionIndex};
use diag::{Diagnostic, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What to check and where.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root.
    pub root: PathBuf,
    /// Enabled rules (default: all).
    pub rules: BTreeSet<Rule>,
}

impl Options {
    /// All rules at the given root.
    pub fn new(root: PathBuf) -> Options {
        Options {
            root,
            rules: Rule::ALL.into_iter().collect(),
        }
    }
}

/// A fatal error (I/O, config) as opposed to lint findings.
#[derive(Debug)]
pub struct Fatal(pub String);

impl std::fmt::Display for Fatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The outcome of one run: sorted findings plus what was analyzed
/// (the binary adds wall-clock and renders a [`diag::Report`]).
#[derive(Debug)]
pub struct RunResult {
    /// Sorted, suppression-filtered findings.
    pub diags: Vec<Diagnostic>,
    /// Number of `.rs` files analyzed.
    pub files_analyzed: usize,
}

/// Runs every enabled rule over the workspace.
pub fn run(opts: &Options) -> Result<RunResult, Fatal> {
    let files = workspace_files(&opts.root)?;
    let on = |r: Rule| opts.rules.contains(&r);
    let lock_order = if on(Rule::L3) || on(Rule::L6) || on(Rule::L7) {
        let path = opts.root.join(LOCK_ORDER_PATH);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| Fatal(format!("cannot read {}: {e}", path.display())))?;
        Some(LockOrder::parse(&src).map_err(|e| Fatal(format!("{LOCK_ORDER_PATH}: {e}")))?)
    } else {
        None
    };

    let mut diags = Vec::new();
    let mut index = SuppressionIndex::default();
    let mut collected = rules::names::Collected::default();
    let mut graph = callgraph::CallGraph::default();
    let mut allowlist_used: BTreeSet<usize> = BTreeSet::new();
    for rel in &files {
        let abs = opts.root.join(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| Fatal(format!("cannot read {}: {e}", abs.display())))?;
        let ctx = FileCtx::new(rel, &src);
        index.add_file(&ctx);
        if on(Rule::L0) {
            diags.extend(ctx.audit_suppressions());
        }
        if let Some(order) = &lock_order {
            if on(Rule::L3) {
                diags.extend(rules::locks::check(&ctx, order));
            }
            if on(Rule::L6) {
                graph.add_file(&ctx, order);
            }
            if on(Rule::L7) {
                let outcome = rules::blocking::check(&ctx, order);
                diags.extend(outcome.diags);
                allowlist_used.extend(outcome.used_allowlist);
            }
        }
        if on(Rule::L4) {
            rules::names::collect(&ctx, &mut collected);
        }
    }

    if on(Rule::L4) {
        let registry = load_registry(&opts.root)?;
        let readme = std::fs::read_to_string(opts.root.join("README.md")).ok();
        diags.extend(rules::names::reconcile(
            &collected,
            &registry,
            readme.as_deref(),
        ));
    }
    if on(Rule::L6) {
        diags.extend(rules::interlock::check(&graph));
    }

    // Central suppression filtering, then the dead-suppression audit:
    // a well-formed `// lint: allow(…)` that dropped nothing is an L0
    // violation, and so is an `[[allow_blocking]]` entry that no L7
    // site needed.
    let mut diags = index.filter(diags);
    if on(Rule::L0) {
        diags.extend(index.dead(&opts.rules));
        if let Some(order) = &lock_order {
            for (i, a) in order.allow_blocking.iter().enumerate() {
                if a.reason.is_empty() {
                    diags.push(Diagnostic {
                        rule: Rule::L0,
                        file: LOCK_ORDER_PATH.to_string(),
                        line: a.line,
                        col: 1,
                        message: format!("[[allow_blocking]] entry for `{}` has no reason", a.file),
                        help: "every allowlist entry must say why blocking under a lock is sound"
                            .to_string(),
                    });
                } else if on(Rule::L7) && !allowlist_used.contains(&i) {
                    diags.push(Diagnostic {
                        rule: Rule::L0,
                        file: LOCK_ORDER_PATH.to_string(),
                        line: a.line,
                        col: 1,
                        message: format!(
                            "dead [[allow_blocking]] entry: `{}` ops [{}] cover no blocking site",
                            a.file,
                            a.ops.join(", ")
                        ),
                        help: "the blocking-under-lock site is gone — delete the entry".to_string(),
                    });
                }
            }
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(RunResult {
        diags,
        files_analyzed: files.len(),
    })
}

/// Parses the checked-in metric registry.
pub fn load_registry(root: &Path) -> Result<Vec<rules::names::RegistryEntry>, Fatal> {
    let path = root.join(NAMES_RS_PATH);
    let src = std::fs::read_to_string(&path)
        .map_err(|e| Fatal(format!("cannot read {}: {e}", path.display())))?;
    let registry = rules::names::parse_registry(&src);
    if registry.is_empty() {
        return Err(Fatal(format!(
            "{NAMES_RS_PATH}: no MetricDef entries found"
        )));
    }
    Ok(registry)
}

/// Every `.rs` file the lint walks: `crates/*/src/**` plus the facade
/// crate's `src/**`, workspace-relative with forward slashes, sorted.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, Fatal> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| Fatal(format!("cannot read {}: {e}", crates_dir.display())))?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        walk(&facade, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), Fatal> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Fatal(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Finds the workspace root: walks up from `start` looking for the
/// lock-order declaration next to a `Cargo.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join(LOCK_ORDER_PATH).is_file() && d.join("Cargo.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
