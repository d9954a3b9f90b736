//! Per-file analysis context: lexed tokens, `#[cfg(test)]` region
//! tracking, brace matching, and `// lint: allow(...)` suppressions.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashMap;

/// A parsed `// lint: allow(L3, L7) reason` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rules the comment names (known ones).
    pub rules: Vec<Rule>,
    /// Rule names that did not parse (L0 violation).
    pub unknown: Vec<String>,
    /// Free-text justification after the closing paren.
    pub reason: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// Line the suppression applies to (same line for trailing
    /// comments, the next code line for standalone ones).
    pub target_line: u32,
    /// Column of the comment.
    pub col: u32,
}

/// Everything the rule passes need to know about one file.
pub struct FileCtx<'s> {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// `crates/<name>/…` → `<name>`; the facade crate is `segdiff-repro`.
    pub crate_name: String,
    /// File contents.
    pub src: &'s str,
    /// Token stream (comments included).
    pub toks: Vec<Tok>,
    /// Whether the whole file is test/bench code (path heuristics).
    pub test_file: bool,
    /// `{` token index → matching `}` token index.
    brace_match: HashMap<usize, usize>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`
    /// items.
    test_ranges: Vec<(u32, u32)>,
    /// Parsed suppression comments.
    suppressions: Vec<Suppression>,
}

impl<'s> FileCtx<'s> {
    /// Lexes and indexes one file.
    pub fn new(path: &str, src: &'s str) -> FileCtx<'s> {
        let toks = lex(src);
        let brace_match = match_braces(&toks);
        let test_ranges = find_test_ranges(&toks, src, &brace_match);
        let suppressions = find_suppressions(&toks, src);
        FileCtx {
            path: path.to_string(),
            crate_name: crate_of(path),
            src,
            test_file: is_test_path(path),
            toks,
            brace_match,
            test_ranges,
            suppressions,
        }
    }

    /// The `}` matching the `{` at token index `open`, if balanced.
    pub fn close_of(&self, open: usize) -> Option<usize> {
        self.brace_match.get(&open).copied()
    }

    /// Whether `line` falls inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }

    /// Whether `rule` is suppressed at `line` (by a comment with a
    /// non-empty reason; empty-reason suppressions do not count — they
    /// are themselves L0 violations).
    pub fn suppressed(&self, rule: Rule, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.target_line == line && !s.reason.is_empty() && s.rules.contains(&rule))
    }

    /// The L0 pass: every suppression must name only known rules and
    /// carry a non-empty reason.
    pub fn audit_suppressions(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for s in &self.suppressions {
            for u in &s.unknown {
                out.push(self.diag(
                    Rule::L0,
                    s.comment_line,
                    s.col,
                    format!("unknown rule `{u}` in `lint: allow(...)`"),
                    format!("valid rules are {}", Rule::ALL.map(Rule::id).join(", ")),
                ));
            }
            if s.reason.is_empty() {
                out.push(self.diag(
                    Rule::L0,
                    s.comment_line,
                    s.col,
                    "suppression without a reason".to_string(),
                    "write `// lint: allow(<rule>) <why this is sound>`".to_string(),
                ));
            }
        }
        out
    }

    /// The parsed suppression comments, in file order.
    pub fn suppressions(&self) -> &[Suppression] {
        &self.suppressions
    }

    /// Convenience constructor for a diagnostic in this file.
    pub fn diag(
        &self,
        rule: Rule,
        line: u32,
        col: u32,
        message: String,
        help: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.path.clone(),
            line,
            col,
            message,
            help,
        }
    }
}

/// Workspace-wide suppression inventory. The rules emit every finding
/// they see; [`SuppressionIndex::filter`] drops the suppressed ones
/// centrally — so the cross-file passes (L4/L6) honor suppressions
/// exactly like the per-file rules — and records which suppressions
/// actually fired. [`SuppressionIndex::dead`] then audits the rest: a
/// `// lint: allow(<rule>)` that no longer suppresses any diagnostic
/// is itself an L0 violation, which keeps the suppression inventory
/// honest as rules and code evolve.
#[derive(Debug, Default)]
pub struct SuppressionIndex {
    /// Per file: (suppression, fired-at-least-once).
    files: Vec<(String, Vec<(Suppression, bool)>)>,
}

impl SuppressionIndex {
    /// Registers one file's suppressions.
    pub fn add_file(&mut self, ctx: &FileCtx) {
        if !ctx.suppressions.is_empty() {
            self.files.push((
                ctx.path.clone(),
                ctx.suppressions
                    .iter()
                    .map(|s| (s.clone(), false))
                    .collect(),
            ));
        }
    }

    /// Drops every diagnostic covered by a valid suppression (known
    /// rule, non-empty reason, matching target line), marking those
    /// suppressions as used.
    pub fn filter(&mut self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| {
                let mut covered = false;
                if let Some((_, entries)) = self.files.iter_mut().find(|(p, _)| *p == d.file) {
                    for (s, used) in entries.iter_mut() {
                        if s.target_line == d.line
                            && !s.reason.is_empty()
                            && s.rules.contains(&d.rule)
                        {
                            *used = true;
                            covered = true;
                        }
                    }
                }
                !covered
            })
            .collect()
    }

    /// The dead-suppression audit. Malformed suppressions (unknown
    /// rule, empty reason) are already flagged by
    /// [`FileCtx::audit_suppressions`]; this pass flags the well-formed
    /// ones that never fired. A suppression naming a rule that was not
    /// enabled this run is skipped — it had no chance to fire.
    pub fn dead(&self, enabled: &std::collections::BTreeSet<Rule>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (path, entries) in &self.files {
            for (s, used) in entries {
                if *used
                    || s.reason.is_empty()
                    || !s.unknown.is_empty()
                    || s.rules.is_empty()
                    || s.rules.iter().any(|r| !enabled.contains(r))
                {
                    continue;
                }
                let names: Vec<&str> = s.rules.iter().map(|r| r.id()).collect();
                out.push(Diagnostic {
                    rule: Rule::L0,
                    file: path.clone(),
                    line: s.comment_line,
                    col: s.col,
                    message: format!(
                        "dead suppression: `lint: allow({})` no longer suppresses any diagnostic",
                        names.join(", ")
                    ),
                    help: "the suppressed violation is gone — delete the comment".to_string(),
                });
            }
        }
        out
    }
}

/// Path-level test classification: integration tests, the reproduction
/// harness crate, and the `#[cfg(test)] mod x;` file modules
/// (`*_tests.rs`, `proptests.rs`, `tests.rs`, `appendix_tests.rs`).
fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    if p.contains("/tests/") || p.starts_with("crates/bench/") {
        return true;
    }
    let file = p.rsplit('/').next().unwrap_or(&p);
    file.ends_with("_tests.rs") || file == "proptests.rs" || file == "tests.rs"
}

/// `crates/<name>/…` → `<name>`; anything else is the facade crate.
fn crate_of(path: &str) -> String {
    let p = path.replace('\\', "/");
    match p.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some(name) => name.to_string(),
        None => "segdiff-repro".to_string(),
    }
}

/// Builds the `{` → `}` token-index map.
fn match_braces(toks: &[Tok]) -> HashMap<usize, usize> {
    let mut map = HashMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(b'{') => stack.push(i),
            TokKind::Punct(b'}') => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                }
            }
            _ => {}
        }
    }
    map
}

/// Is the token a comment?
fn is_comment(k: TokKind) -> bool {
    matches!(k, TokKind::LineComment | TokKind::BlockComment)
}

/// Finds line ranges covered by `#[cfg(test)]` / `#[test]`-attributed
/// items. `#[cfg(not(test))]` and friends are correctly not treated as
/// test markers (any `not` in the attribute disqualifies it — the
/// codebase never nests `test` under `not(...)` any other way).
fn find_test_ranges(toks: &[Tok], src: &str, braces: &HashMap<usize, usize>) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != TokKind::Punct(b'#') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut j = i + 1;
        // Inner attribute `#![…]` — never a test item marker.
        if toks.get(j).map(|t| t.kind) == Some(TokKind::Punct(b'!')) {
            j += 1;
        }
        if toks.get(j).map(|t| t.kind) != Some(TokKind::Punct(b'[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut depth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident => idents.push(toks[k].text(src)),
                _ => {}
            }
            k += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg" | &"cfg_attr") => idents.contains(&"test") && !idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = k + 1;
            continue;
        }
        // Skip further attributes and comments, then find the item body.
        let mut m = k + 1;
        while m < toks.len() {
            if is_comment(toks[m].kind) {
                m += 1;
            } else if toks[m].kind == TokKind::Punct(b'#') {
                // another attribute: skip to its `]`
                let mut d = 0usize;
                while m < toks.len() {
                    match toks[m].kind {
                        TokKind::Punct(b'[') => d += 1,
                        TokKind::Punct(b']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                m += 1;
            } else {
                break;
            }
        }
        // The item: mark everything to its closing `}` (or `;`).
        let mut end_line = None;
        let mut n = m;
        while n < toks.len() {
            match toks[n].kind {
                TokKind::Punct(b'{') => {
                    end_line = braces.get(&n).map(|&c| toks[c].line);
                    break;
                }
                TokKind::Punct(b';') => {
                    end_line = Some(toks[n].line);
                    break;
                }
                _ => n += 1,
            }
        }
        if let Some(end) = end_line {
            out.push((attr_line, end));
            // Resume after the item so nested attrs inside it don't
            // produce overlapping ranges (harmless but wasteful).
            while n < toks.len() && toks[n].line <= end {
                n += 1;
            }
            i = n;
        } else {
            i = k + 1;
        }
    }
    out
}

/// Parses `lint: allow(...)` comments and computes their target lines.
fn find_suppressions(toks: &[Tok], src: &str) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = t.text(src).trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rule_list, reason) = match rest.strip_prefix('(') {
            Some(r) => match r.split_once(')') {
                Some((inside, after)) => (inside, after),
                None => (r, ""),
            },
            None => ("", rest),
        };
        let mut rules = Vec::new();
        let mut unknown = Vec::new();
        for part in rule_list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match Rule::parse(part) {
                Some(r) => rules.push(r),
                None => unknown.push(part.to_string()),
            }
        }
        let reason = reason
            .trim_start_matches([':', '-', ' '])
            .trim()
            .to_string();
        // Trailing comment (code earlier on the same line) targets its
        // own line; a standalone comment targets the next code line.
        let trailing = toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !is_comment(p.kind));
        let target_line = if trailing {
            t.line
        } else {
            toks[i + 1..]
                .iter()
                .find(|n| !is_comment(n.kind))
                .map(|n| n.line)
                .unwrap_or(t.line)
        };
        out.push(Suppression {
            rules,
            unknown,
            reason,
            comment_line: t.line,
            target_line,
            col: t.col,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_region_detection() {
        let src = r#"
fn prod() { x.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
"#;
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(!ctx.in_test(2));
        assert!(ctx.in_test(5));
        assert!(ctx.in_test(7));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() {}\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(!ctx.in_test(2));
    }

    #[test]
    fn test_attr_on_fn() {
        let src = "#[test]\nfn t() {\n  body();\n}\nfn prod() {}\n";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(ctx.in_test(3));
        assert!(!ctx.in_test(5));
    }

    #[test]
    fn path_heuristics() {
        for p in [
            "crates/pagestore/src/stress_tests.rs",
            "crates/pagestore/src/proptests.rs",
            "crates/cli/tests/cli.rs",
            "crates/bench/src/report.rs",
        ] {
            assert!(FileCtx::new(p, "").test_file, "{p}");
        }
        assert!(!FileCtx::new("crates/server/src/loadgen.rs", "").test_file);
    }

    #[test]
    fn suppression_parsing() {
        let src = "\
let a = x.lock(); // lint: allow(L3) checked above
// lint: allow(L3, L7): startup only
let b = y.lock();
// lint: allow(L3)
let c = z.lock();
// lint: allow(L9) whatever
let d = w.lock();
// lint: allow(L1) a rule clippy holds now
let e = v.unwrap();
";
        let ctx = FileCtx::new("crates/x/src/lib.rs", src);
        assert!(ctx.suppressed(Rule::L3, 1));
        assert!(ctx.suppressed(Rule::L3, 3));
        assert!(ctx.suppressed(Rule::L7, 3));
        assert!(!ctx.suppressed(Rule::L6, 3));
        // Reason-less suppression does not suppress…
        assert!(!ctx.suppressed(Rule::L3, 5));
        // …and it and the two unknown-rule ones are L0 violations.
        let audit = ctx.audit_suppressions();
        assert_eq!(audit.len(), 3);
        assert!(audit.iter().any(|d| d.message.contains("without a reason")));
        for gone in ["L9", "L1"] {
            let unknown = format!("unknown rule `{gone}`");
            assert!(audit.iter().any(|d| d.message.contains(&unknown)), "{gone}");
        }
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/pagestore/src/db.rs"), "pagestore");
        assert_eq!(crate_of("src/lib.rs"), "segdiff-repro");
    }
}
