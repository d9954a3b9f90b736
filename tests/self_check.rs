//! The workspace must satisfy its own lint, the clippy lints that hold
//! the panic, `unsafe` and discard rules must stay denied in their
//! crates, the metrics table the lint re-derives lexically must match the
//! one the live crate generates, and the README route tables must be the
//! ones the route tables render — if any drifts, CI should say so here
//! before the lint job does.

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

/// The `key = value` pairs of the `[name]` table of a manifest.
fn manifest_table(manifest: &str, name: &str) -> Vec<(String, String)> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or_default().trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
        .collect()
}

/// Clippy runs in CI, not under `cargo test`: this pins its
/// configuration, so no scope can be loosened silently. Every package
/// denies undocumented `unsafe` and reason-less suppressions; the
/// serving and storage crates also deny panics outside tests, and
/// pagestore and core `let _ =` discards.
#[test]
fn clippy_lint_scopes_stay_denied() {
    const EVERY_PACKAGE: [&str; 2] = [
        "undocumented_unsafe_blocks",
        "allow_attributes_without_reason",
    ];
    const PANICS: [&str; 5] = [
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
    ];
    const PANIC_FREE: [&str; 7] = [
        "pagestore",
        "server",
        "router",
        "core",
        "cli",
        "obs",
        "lint",
    ];
    let deny = |table: &[(String, String)], lints: &[&str], what: &str| {
        for lint in lints {
            assert!(
                table.iter().any(|(k, v)| k == lint && v == "deny"),
                "{what}: clippy::{lint} is not \"deny\""
            );
        }
    };
    let read = |rel: &str| std::fs::read_to_string(root().join(rel)).expect("manifest readable");
    let workspace = read("Cargo.toml");
    deny(
        &manifest_table(&workspace, "workspace.lints.clippy"),
        &EVERY_PACKAGE,
        "Cargo.toml [workspace.lints.clippy]",
    );
    let mut manifests = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "shims"] {
        for entry in std::fs::read_dir(root().join(dir)).expect("package directory readable") {
            let path = entry.expect("directory entry").path();
            if path.join("Cargo.toml").is_file() {
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                manifests.push(format!("{dir}/{name}/Cargo.toml"));
            }
        }
    }
    for rel in &manifests {
        let manifest = read(rel);
        assert!(
            manifest.contains("rust-version.workspace = true"),
            "{rel}: no MSRV"
        );
        let package = rel.split('/').nth(1).unwrap_or_default();
        if !PANIC_FREE.contains(&package) {
            let inherits =
                manifest_table(&manifest, "lints") == [("workspace".into(), "true".into())];
            assert!(inherits, "{rel}: [lints] must be `workspace = true`");
            continue;
        }
        let own = manifest_table(&manifest, "lints.clippy");
        let what = format!("{rel} [lints.clippy]");
        deny(&own, &EVERY_PACKAGE, &what);
        deny(&own, &PANICS, &what);
        if package == "pagestore" || package == "core" {
            deny(
                &own,
                &["let_underscore_untyped", "let_underscore_must_use"],
                &what,
            );
        }
    }
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
