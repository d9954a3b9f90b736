//! Rule L8: cross-artifact contract drift.
//!
//! The CLI's subcommand contract lives in prose and string literals
//! rather than types, so the compiler cannot see it rot: the `match sub`
//! dispatch in `crates/cli/src/args.rs` must agree with the `USAGE`
//! text and the README — every subcommand is documented in both, and
//! every `segdiff <word>` the README mentions is a real subcommand.
//!
//! (The HTTP route contract used to be reconciled here too. It no longer
//! needs a lint: `segdiff_server::routes` is one table that carries each
//! route's handler, and its dispatcher validates query parameters before
//! the handler runs, so registry, dispatch and validation cannot
//! disagree; the README tables are pinned by `tests/self_check.rs`.)
//!
//! Everything is parsed lexically with the crate's own lexer, in the
//! same style as L4's metric-registry reconciliation.

use crate::config::ARGS_RS_PATH;
use crate::context::FileCtx;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::TokKind;

/// CLI contract: `match sub` dispatch in `args_src`
/// (`crates/cli/src/args.rs`) ↔ its `USAGE` text ↔ the README (skipped
/// when `None`). Diagnostics are unfiltered; the caller applies the
/// suppression index.
pub fn check(args_src: &str, readme: Option<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ctx = FileCtx::new(ARGS_RS_PATH, args_src);
    let subs = cli_dispatch_subs(&ctx);
    let usage = usage_text(&ctx);
    let usage_subs: Vec<String> = usage.as_deref().map(usage_subcommands).unwrap_or_default();

    for (name, line) in &subs {
        if !usage_subs.iter().any(|u| u == name) {
            out.push(Diagnostic {
                rule: Rule::L8,
                file: ARGS_RS_PATH.to_string(),
                line: *line,
                col: 1,
                message: format!("subcommand `{name}` is dispatched but absent from USAGE"),
                help: "add a `segdiff {name} …` line to the USAGE text".to_string(),
            });
        }
        if let Some(readme) = readme {
            if !readme_mentions_sub(readme, name) {
                out.push(Diagnostic {
                    rule: Rule::L8,
                    file: ARGS_RS_PATH.to_string(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "subcommand `{name}` is dispatched but not documented in README.md"
                    ),
                    help: format!("document it (a `segdiff {name}` or `-- {name}` example)"),
                });
            }
        }
    }
    for u in &usage_subs {
        if !subs.iter().any(|(n, _)| n == u) {
            out.push(Diagnostic {
                rule: Rule::L8,
                file: ARGS_RS_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!("USAGE documents `segdiff {u}` but no dispatch arm handles it"),
                help: "remove the dead usage line or wire the subcommand up".to_string(),
            });
        }
    }
    if let Some(readme) = readme {
        for (word, line) in readme_segdiff_words(readme) {
            if !subs.iter().any(|(n, _)| *n == word) {
                out.push(Diagnostic {
                    rule: Rule::L8,
                    file: "README.md".to_string(),
                    line,
                    col: 1,
                    message: format!(
                        "README mentions `segdiff {word}` but no such subcommand exists"
                    ),
                    help: "fix the example or add the subcommand".to_string(),
                });
            }
        }
    }
    out
}

/// String arms of the `match sub {` block at relative brace depth 1.
fn cli_dispatch_subs(ctx: &FileCtx) -> Vec<(String, u32)> {
    let toks = &ctx.toks;
    let src = ctx.src;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text(src) != "match" {
            continue;
        }
        let Some(scrut) = toks.get(i + 1) else {
            continue;
        };
        if scrut.kind != TokKind::Ident || scrut.text(src) != "sub" {
            continue;
        }
        let Some(open) = toks
            .get(i + 2)
            .filter(|t| t.kind == TokKind::Punct(b'{'))
            .map(|_| i + 2)
        else {
            continue;
        };
        let Some(close) = ctx.close_of(open) else {
            continue;
        };
        let mut depth = 0usize;
        for j in open..=close {
            match toks[j].kind {
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => depth -= 1,
                // "name" => … or "name" | "alias" => …
                TokKind::Str if depth == 1 => {
                    let next = toks.get(j + 1).map(|t| t.kind);
                    let is_arm = next == Some(TokKind::Punct(b'|'))
                        || (next == Some(TokKind::Punct(b'='))
                            && toks.get(j + 2).map(|t| t.kind) == Some(TokKind::Punct(b'>')));
                    if is_arm {
                        out.push((toks[j].str_value(src), toks[j].line));
                    }
                }
                _ => {}
            }
        }
        break;
    }
    out
}

/// The `USAGE` const's string value.
fn usage_text(ctx: &FileCtx) -> Option<String> {
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text(ctx.src) == "USAGE" {
            // const USAGE : & str = "…"
            if let Some(s) = toks[i..].iter().take(8).find(|t| t.kind == TokKind::Str) {
                return Some(s.str_value(ctx.src));
            }
        }
    }
    None
}

/// Subcommand words from `  segdiff <word> …` usage lines.
fn usage_subcommands(usage: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in usage.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("segdiff ") {
            if let Some(word) = rest.split_whitespace().next() {
                if word.chars().all(|c| c.is_ascii_lowercase() || c == '-')
                    && !out.iter().any(|w| w == word)
                {
                    out.push(word.to_string());
                }
            }
        }
    }
    out
}

/// Whether the README documents subcommand `name` — either a
/// `segdiff <name>` mention or a `-- <name>` cargo-run example.
fn readme_mentions_sub(readme: &str, name: &str) -> bool {
    readme_segdiff_words(readme).iter().any(|(w, _)| w == name)
        || readme.contains(&format!("-- {name} "))
        || readme.contains(&format!("-- {name}\n"))
}

/// Every `segdiff <word>` mention in the README (exact lower-case
/// `segdiff` as a standalone word, followed by a lower-case word), with
/// its 1-based line.
fn readme_segdiff_words(readme: &str) -> Vec<(String, u32)> {
    let bytes = readme.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = readme[from..].find("segdiff") {
        let start = from + pos;
        let end = start + "segdiff".len();
        from = end;
        let before_ok = start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric()
                || bytes[start - 1] == b'-'
                || bytes[start - 1] == b'_');
        if !before_ok {
            continue;
        }
        // Exactly one space, then a lower-case word. The word must
        // *start* with a letter: `segdiff --help` is a flag, not a
        // subcommand mention.
        let rest = &readme[end..];
        let Some(rest) = rest.strip_prefix(' ') else {
            continue;
        };
        if !rest.starts_with(|c: char| c.is_ascii_lowercase()) {
            continue;
        }
        let word: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || *c == '-')
            .collect();
        let line = readme[..start].lines().count() as u32;
        out.push((word, line.max(1)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARGS_SRC: &str = r#"
pub const USAGE: &str = "\
usage:
  segdiff generate --csv FILE
  segdiff query    --index DIR";

fn dispatch(sub: &str) -> Result<Command, String> {
    match sub {
        "generate" => Ok(Command::Generate {}),
        "query" => Ok(Command::Query {}),
        _ => Err(format!("unknown subcommand {sub}")),
    }
}
"#;

    #[test]
    fn cli_in_sync_is_clean() {
        let readme = "Run `segdiff generate` then `segdiff query`.";
        let d = check(ARGS_SRC, Some(readme));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn undocumented_and_dead_subcommands_fire() {
        let args = ARGS_SRC.replace(
            "\"query\" => Ok(Command::Query {}),",
            "\"query\" => Ok(Command::Query {}),\n        \"hidden\" => Ok(Command::Hidden {}),",
        );
        let readme = "Run `segdiff generate`, `segdiff query`, and `segdiff hidden`.";
        let d = check(&args, Some(readme));
        assert!(
            d.iter().any(|d| d
                .message
                .contains("`hidden` is dispatched but absent from USAGE")),
            "{d:?}"
        );
        // USAGE documents a subcommand nobody dispatches.
        let args = ARGS_SRC.replace(
            "  segdiff query    --index DIR",
            "  segdiff query    --index DIR\n  segdiff ghost    --spooky",
        );
        let d = check(&args, None);
        assert!(
            d.iter()
                .any(|d| d.message.contains("USAGE documents `segdiff ghost`")),
            "{d:?}"
        );
    }

    #[test]
    fn readme_phantom_subcommand_fires() {
        let readme = "Use `segdiff generate`, `segdiff query`, or `segdiff frobnicate` today.";
        let d = check(ARGS_SRC, Some(readme));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`segdiff frobnicate`"));
    }

    #[test]
    fn hyphenated_binary_names_are_not_mentions() {
        let readme = "Run segdiff-lint after `segdiff generate`; segdiff query too.";
        let words = readme_segdiff_words(readme);
        let names: Vec<&str> = words.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(names, vec!["generate", "query"]);
    }

    #[test]
    fn flags_are_not_subcommand_mentions() {
        let readme =
            "Try `segdiff --help` or `segdiff --url http://x`,\nthen `segdiff serve --root data`.";
        let words = readme_segdiff_words(readme);
        let names: Vec<&str> = words.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(names, vec!["serve"]);
    }
}
