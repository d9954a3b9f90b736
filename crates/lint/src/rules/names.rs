//! Rule L4: every metric name published through `obs` must exist in
//! the `crates/obs/src/names.rs` registry, every registry entry must be
//! referenced by some call site, and the README metrics table must be
//! regenerated from the registry.
//!
//! Call sites are collected lexically from non-test code:
//! * `.counter("name")` / `.histogram("name")` — exact names;
//! * `.counter(&format!("{prefix}.hits"))` — patterns: each `{…}`
//!   interpolation becomes a `*` wildcard;
//! * `span("name")` — the histogram `span.name`.
//!
//! Phase spans are started through a variable (`obs::span(name)` with
//! `name = "query.plan"`), so for the reverse check a `span.*` registry
//! entry also counts as referenced when its name (with or without the
//! `span.` prefix) appears as any string literal in production code.

use crate::config::{METRICS_TABLE_BEGIN, METRICS_TABLE_END, NAMES_RS_PATH};
use crate::context::FileCtx;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, TokKind};
use std::collections::HashSet;

/// Counter, gauge, or histogram, as implied by the call site /
/// registry ctor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `.counter(…)` / `MetricDef::counter(…)`.
    Counter,
    /// `.gauge(…)` / `MetricDef::gauge(…)`.
    Gauge,
    /// `.histogram(…)` / `span(…)` / `MetricDef::histogram(…)`.
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric name use in the codebase.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Exact name, or a `*`-wildcard pattern from a `format!` literal.
    pub name: String,
    /// Whether `name` contains wildcards.
    pub is_pattern: bool,
    /// Counter or histogram.
    pub kind: Kind,
    /// Location.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One parsed registry entry (`MetricDef::counter("…", "…")`).
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Registered name.
    pub name: String,
    /// Counter or histogram.
    pub kind: Kind,
    /// Help text (third column of the generated table).
    pub help: String,
    /// Line in `names.rs`.
    pub line: u32,
}

/// Per-file collection output, merged by [`reconcile`].
#[derive(Debug, Default)]
pub struct Collected {
    /// Metric call sites.
    pub sites: Vec<CallSite>,
    /// All production string literals (reverse check for span names).
    pub literals: HashSet<String>,
}

/// Collects call sites and literals from one file's non-test code.
pub fn collect(ctx: &FileCtx, into: &mut Collected) {
    if ctx.test_file || ctx.path == NAMES_RS_PATH {
        return;
    }
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Str && !ctx.in_test(t.line) {
            into.literals.insert(t.str_value(ctx.src));
        }
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let name = t.text(ctx.src);
        let kind = match name {
            "counter" => Kind::Counter,
            "gauge" => Kind::Gauge,
            "histogram" => Kind::Histogram,
            "span" => Kind::Histogram,
            _ => continue,
        };
        // `.counter(` / `.histogram(` methods; bare `span(` calls
        // (`obs::span("x")`) — a leading `.` would be a method named
        // span, which doesn't exist.
        let is_method = i > 0 && toks[i - 1].kind == TokKind::Punct(b'.');
        if name == "span" && is_method {
            continue;
        }
        if name != "span" && !is_method {
            continue;
        }
        if toks.get(i + 1).map(|n| n.kind) != Some(TokKind::Punct(b'(')) {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        let (value, is_pattern) = match arg.kind {
            TokKind::Str => (arg.str_value(ctx.src), false),
            // `&format!("…", …)` — take the format literal.
            TokKind::Punct(b'&') => {
                let fmt = toks.get(i + 3).zip(toks.get(i + 4)).zip(toks.get(i + 5));
                match fmt {
                    Some(((f, bang), op))
                        if f.kind == TokKind::Ident
                            && f.text(ctx.src) == "format"
                            && bang.kind == TokKind::Punct(b'!')
                            && op.kind == TokKind::Punct(b'(') =>
                    {
                        match toks.get(i + 6) {
                            Some(s) if s.kind == TokKind::Str => {
                                (fmt_to_pattern(&s.str_value(ctx.src)), true)
                            }
                            _ => continue,
                        }
                    }
                    _ => continue,
                }
            }
            _ => continue,
        };
        let value = match (name, value) {
            ("span", v) => format!("span.{v}"),
            (_, v) => v,
        };
        into.sites.push(CallSite {
            name: value,
            is_pattern,
            kind,
            file: ctx.path.clone(),
            line: t.line,
            col: t.col,
        });
    }
}

/// `{prefix}.hits` → `*.hits`; `span.{}` → `span.*`.
fn fmt_to_pattern(fmt: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in fmt.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Parses the registry entries out of `names.rs` source text.
pub fn parse_registry(src: &str) -> Vec<RegistryEntry> {
    let toks = lex(src);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let kind = match t.text(src) {
            "counter" => Kind::Counter,
            "gauge" => Kind::Gauge,
            "histogram" => Kind::Histogram,
            _ => continue,
        };
        // MetricDef :: counter ( "name" , "help" )
        let preceded = i >= 3
            && toks[i - 1].kind == TokKind::Punct(b':')
            && toks[i - 2].kind == TokKind::Punct(b':')
            && toks[i - 3].kind == TokKind::Ident
            && toks[i - 3].text(src) == "MetricDef";
        if !preceded {
            continue;
        }
        let (Some(op), Some(name), Some(comma), Some(help)) = (
            toks.get(i + 1),
            toks.get(i + 2),
            toks.get(i + 3),
            toks.get(i + 4),
        ) else {
            continue;
        };
        if op.kind != TokKind::Punct(b'(')
            || name.kind != TokKind::Str
            || comma.kind != TokKind::Punct(b',')
            || help.kind != TokKind::Str
        {
            continue;
        }
        out.push(RegistryEntry {
            name: name.str_value(src),
            kind,
            help: help.str_value(src),
            line: name.line,
        });
    }
    out
}

/// The markdown table generated from the registry — must stay
/// byte-identical to `obs::names::markdown_table()` (an integration
/// test in the facade crate pins the two together).
pub fn markdown_table(entries: &[RegistryEntry]) -> String {
    let mut out = String::from("| name | kind | description |\n|---|---|---|\n");
    for e in entries {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            e.name,
            e.kind.label(),
            e.help
        ));
    }
    out
}

/// Cross-file reconciliation: forward check (sites → registry),
/// reverse check (registry → sites/literals), README drift.
pub fn reconcile(
    collected: &Collected,
    registry: &[RegistryEntry],
    readme: Option<&str>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Forward: every call site resolves in the registry.
    for site in &collected.sites {
        let matched = registry.iter().any(|e| {
            e.kind == site.kind
                && if site.is_pattern {
                    // A format-pattern site references every entry the
                    // pattern covers; it must cover at least one.
                    pattern_covers(&site.name, &e.name)
                } else {
                    e.name == site.name
                }
        });
        if !matched {
            out.push(Diagnostic {
                rule: Rule::L4,
                file: site.file.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} `{}` is not in the obs name registry",
                    site.kind.label(),
                    site.name
                ),
                help: format!("add it to {NAMES_RS_PATH} or fix the typo"),
            });
        }
    }

    // Reverse: every registry entry is referenced somewhere.
    for e in registry {
        let referenced = collected.sites.iter().any(|s| {
            s.kind == e.kind
                && if s.is_pattern {
                    pattern_covers(&s.name, &e.name)
                } else {
                    e.name == s.name
                }
        }) || (e.name.starts_with("span.")
            && (collected.literals.contains(&e.name)
                || collected
                    .literals
                    .contains(e.name.trim_start_matches("span."))));
        if !referenced {
            out.push(Diagnostic {
                rule: Rule::L4,
                file: NAMES_RS_PATH.to_string(),
                line: e.line,
                col: 1,
                message: format!("registry entry `{}` is never referenced", e.name),
                help: "remove the dead entry or wire the metric up".to_string(),
            });
        }
    }

    // README drift: the generated table must appear verbatim between
    // the markers.
    if let Some(readme) = readme {
        let expected = markdown_table(registry);
        match extract_between(readme, METRICS_TABLE_BEGIN, METRICS_TABLE_END) {
            None => out.push(Diagnostic {
                rule: Rule::L4,
                file: "README.md".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "README.md lacks the `{METRICS_TABLE_BEGIN}` / `{METRICS_TABLE_END}` markers"
                ),
                help: "add the markers and run `segdiff-lint --emit-metrics-table`".to_string(),
            }),
            Some((line, actual)) => {
                if actual.trim() != expected.trim() {
                    out.push(Diagnostic {
                        rule: Rule::L4,
                        file: "README.md".to_string(),
                        line,
                        col: 1,
                        message: "README metrics table is out of sync with the registry".to_string(),
                        help: "replace the table with the output of `segdiff-lint --emit-metrics-table`"
                            .to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Can a `*`-pattern produce registry name `entry`? The literal text
/// before its first and after its last interpolation must frame the name.
fn pattern_covers(pattern: &str, entry: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == entry,
        Some((prefix, rest)) => {
            let suffix = rest.rsplit_once('*').map_or(rest, |(_, suffix)| suffix);
            entry.len() > prefix.len() + suffix.len()
                && entry.starts_with(prefix)
                && entry.ends_with(suffix)
        }
    }
}

/// Returns (1-based line after the begin marker, text between markers).
fn extract_between<'a>(text: &'a str, begin: &str, end: &str) -> Option<(u32, &'a str)> {
    let b = text.find(begin)?;
    let after = b + begin.len();
    let e = text[after..].find(end)? + after;
    let line = text[..after].lines().count() as u32 + 1;
    Some((line, &text[after..e]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REGISTRY_SRC: &str = r#"
pub const METRICS: &[MetricDef] = &[
    MetricDef::counter("pool.hits", "Pool hits"),
    MetricDef::counter("server.accepted", "Accepted connections"),
    MetricDef::gauge("pool.level", "Pool level"),
    MetricDef::histogram("span.query", "Query time"),
    MetricDef::histogram("span.query.plan", "Plan phase"),
    MetricDef::counter("dead.metric", "Never used"),
];
"#;

    fn collect_src(path: &str, src: &str) -> Collected {
        let mut c = Collected::default();
        collect(&FileCtx::new(path, src), &mut c);
        c
    }

    #[test]
    fn registry_parses() {
        let reg = parse_registry(REGISTRY_SRC);
        assert_eq!(reg.len(), 6);
        assert_eq!(reg[0].name, "pool.hits");
        assert_eq!(reg[0].kind, Kind::Counter);
        assert_eq!(reg[2].kind, Kind::Gauge);
        assert_eq!(reg[3].kind, Kind::Histogram);
        assert_eq!(reg[1].help, "Accepted connections");
    }

    #[test]
    fn forward_check_flags_typo() {
        let reg = parse_registry(REGISTRY_SRC);
        let c = collect_src(
            "crates/x/src/lib.rs",
            r#"fn f() { r.counter("pool.hit").inc(); }"#,
        );
        let d = reconcile(&c, &reg, None);
        assert!(d.iter().any(|d| d.message.contains("`pool.hit` is not")));
    }

    #[test]
    fn exact_and_pattern_sites_resolve() {
        let reg = parse_registry(REGISTRY_SRC);
        let src = r#"
fn f(prefix: &str, i: usize) {
    r.counter("pool.hits").inc();
    r.counter(&format!("{prefix}.hits")).inc();
    r.gauge("pool.level").set(1);
    let s = span("query");
}
"#;
        let c = collect_src("crates/x/src/lib.rs", src);
        let d = reconcile(&c, &reg, None);
        assert!(d.iter().all(|d| !d.message.contains("is not in")), "{d:?}");
    }

    #[test]
    fn kind_mismatch_is_flagged() {
        let reg = parse_registry(REGISTRY_SRC);
        let c = collect_src(
            "crates/x/src/lib.rs",
            r#"fn f() { r.histogram("pool.hits").record(1); }"#,
        );
        let d = reconcile(&c, &reg, None);
        assert_eq!(d.iter().filter(|d| d.message.contains("is not")).count(), 1);
    }

    #[test]
    fn reverse_check_flags_dead_entry_and_honors_literals() {
        let reg = parse_registry(REGISTRY_SRC);
        let src = r#"
fn f() {
    r.counter("pool.hits").inc();
    r.counter(&format!("{name}.accepted")).inc();
    r.gauge("pool.level").set(1);
    let s = span("query");
    let phase = Phase::start(db, "query.plan");
}
"#;
        let c = collect_src("crates/x/src/lib.rs", src);
        let d = reconcile(&c, &reg, None);
        let dead: Vec<_> = d
            .iter()
            .filter(|d| d.message.contains("never referenced"))
            .collect();
        assert_eq!(dead.len(), 1, "{d:?}");
        assert!(dead[0].message.contains("dead.metric"));
    }

    #[test]
    fn test_code_is_not_collected() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { r.counter(\"bogus\").inc(); }\n}\n";
        let c = collect_src("crates/x/src/lib.rs", src);
        assert!(c.sites.is_empty());
    }

    #[test]
    fn readme_drift() {
        let reg = parse_registry(REGISTRY_SRC);
        let table = markdown_table(&reg);
        let good =
            format!("# Doc\n<!-- metrics-table:begin -->\n{table}<!-- metrics-table:end -->\n");
        let c = Collected::default();
        let d = reconcile(&c, &reg, Some(&good));
        assert!(
            !d.iter().any(|d| d.file == "README.md"),
            "in-sync table accepted: {d:?}"
        );
        let stale = good.replace("Pool hits", "Old text");
        let d = reconcile(&c, &reg, Some(&stale));
        assert!(d.iter().any(|d| d.message.contains("out of sync")));
        let d = reconcile(&c, &reg, Some("no markers"));
        assert!(d.iter().any(|d| d.message.contains("lacks the")));
    }
}
