//! The workspace must satisfy its own lint, the metrics table the lint
//! re-derives lexically must match the one the live crate generates, and
//! the README route tables must be the ones the route tables render — if
//! any drifts, CI should say so here before the lint job does.

use lint::diag::Rule;
use lint::{load_registry, run, Options};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let result = run(&Options::new(root())).expect("lint must run");
    assert!(
        result.diags.is_empty(),
        "segdiff-lint found violations:\n{}",
        result
            .diags
            .iter()
            .map(|d| format!(
                "{}:{}:{} [{}] {}",
                d.file,
                d.line,
                d.col,
                d.rule.id(),
                d.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_is_exercised_by_default() {
    let opts = Options::new(root());
    assert_eq!(opts.rules.len(), Rule::ALL.len());
}

#[test]
fn lint_metrics_table_matches_obs_registry() {
    let registry = load_registry(&root()).expect("names.rs parses");
    assert_eq!(
        lint::rules::names::markdown_table(&registry),
        segdiff_repro::obs::names::markdown_table(),
        "crates/lint re-derives the metrics table lexically from \
         crates/obs/src/names.rs; the two generators must agree"
    );
}

/// The text between `<!-- {name}:begin -->` and `<!-- {name}:end -->`
/// in the README must be `expected`, byte for byte.
fn assert_readme_block(name: &str, expected: &str) {
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README.md readable");
    let (begin, end) = (
        format!("<!-- {name}:begin -->"),
        format!("<!-- {name}:end -->"),
    );
    let from = readme
        .find(&begin)
        .unwrap_or_else(|| panic!("README lacks {begin}"))
        + begin.len();
    let to = readme
        .find(&end)
        .unwrap_or_else(|| panic!("README lacks {end}"));
    assert_eq!(
        readme[from..to].trim(),
        expected.trim(),
        "README {name} drifted from the route table; replace the block with:\n{expected}"
    );
}

/// The README route tables are generated from the tables that dispatch:
/// the shard server's and the router's.
#[test]
fn readme_route_tables_match_the_dispatch_tables() {
    assert_readme_block("routes-table", &segdiff_server::routes::markdown_table());
    assert_readme_block("router-routes-table", &router::markdown_table());
}
