//! Rule L1: no `.unwrap()` / `.expect(…)` / `panic!` /
//! `unimplemented!` / `todo!` in production code paths.
//!
//! A panic in a worker thread poisons the whole request pipeline; in
//! the storage engine it can leave a torn in-memory state the WAL was
//! never told about. Production paths must propagate errors. Test
//! modules, test/bench files and the `segmentation`/`featurespace`/
//! `sensorgen` math kernels (see [`crate::config::L1_CRATES`]) are out
//! of scope; individually justified sites use
//! `// lint: allow(L1) <reason>`.

use crate::config::L1_CRATES;
use crate::context::FileCtx;
use crate::diag::{Diagnostic, Rule};
use crate::lexer::TokKind;

/// Runs L1 over one file.
pub fn check(ctx: &FileCtx) -> Vec<Diagnostic> {
    if !L1_CRATES.contains(&ctx.crate_name.as_str()) || ctx.test_file {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(ctx.src);
        let next_is = |k: TokKind| toks.get(i + 1).map(|n| n.kind) == Some(k);
        let prev_is_dot = i > 0 && toks[i - 1].kind == TokKind::Punct(b'.');
        let found = match name {
            // Std's `.unwrap()` takes no arguments and `.expect(msg)`
            // exactly one; same-named user methods with other arities
            // (e.g. the SQL parser's `expect(&Token, &str)`) are fine.
            "unwrap"
                if prev_is_dot
                    && next_is(TokKind::Punct(b'('))
                    && arg_count(ctx, i + 1) == Some(0) =>
            {
                Some("`.unwrap()` in production code".to_string())
            }
            "expect"
                if prev_is_dot
                    && next_is(TokKind::Punct(b'('))
                    && arg_count(ctx, i + 1) == Some(1) =>
            {
                Some("`.expect()` in production code".to_string())
            }
            "panic" | "unimplemented" | "todo" if next_is(TokKind::Punct(b'!')) => {
                Some(format!("`{name}!` in production code"))
            }
            _ => None,
        };
        let Some(message) = found else { continue };
        if ctx.in_test(t.line) {
            continue;
        }
        out.push(ctx.diag(
            Rule::L1,
            t.line,
            t.col,
            message,
            "propagate the error (`?`) or justify with `// lint: allow(L1) <reason>`".into(),
        ));
    }
    out
}

/// Number of top-level arguments in the call whose `(` sits at token
/// index `open` (trailing commas ignored), or `None` if unbalanced.
fn arg_count(ctx: &FileCtx, open: usize) -> Option<usize> {
    let toks = &ctx.toks;
    let mut depth = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { commas + 1 } else { 0 });
                }
            }
            TokKind::Punct(b',') if depth == 1 => {
                if toks.get(j + 1).map(|n| n.kind) != Some(TokKind::Punct(b')')) {
                    commas += 1;
                }
            }
            _ => any = true,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::context::SuppressionIndex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(path, src);
        let mut index = SuppressionIndex::default();
        index.add_file(&ctx);
        index.filter(check(&ctx))
    }

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = r#"
fn f() {
    let a = x.unwrap();
    let b = y.expect("msg");
    panic!("boom");
    unimplemented!();
    todo!();
}
"#;
        let d = run("crates/pagestore/src/db.rs", src);
        assert_eq!(d.len(), 5);
        assert!(d[0].message.contains(".unwrap()"));
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn ignores_test_code_and_out_of_scope_crates() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(run("crates/pagestore/src/db.rs", src).is_empty());
        assert!(run("crates/segmentation/src/pla.rs", "fn f() { x.unwrap(); }").is_empty());
        assert!(run(
            "crates/pagestore/src/fault_tests.rs",
            "fn f() { x.unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn ignores_strings_and_comments() {
        let src = "fn f() {\n  // calls .unwrap() — fine in prose\n  let s = \"panic!\";\n}\n";
        assert!(run("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason() {
        let ok = "fn f() { x.unwrap(); // lint: allow(L1) length checked above\n}\n";
        assert!(run("crates/core/src/lib.rs", ok).is_empty());
        let no_reason = "fn f() { x.unwrap(); // lint: allow(L1)\n}\n";
        assert_eq!(run("crates/core/src/lib.rs", no_reason).len(), 1);
    }

    #[test]
    fn arity_distinguishes_user_methods() {
        let src = "fn f() {\n  self.expect(&Token::LParen, \"'('\")?;\n  x.unwrap_or(0);\n  y.unwrap(z);\n}\n";
        assert!(run("crates/obs/src/json_impl.rs", src).is_empty());
    }

    #[test]
    fn unwrap_without_receiver_dot_is_not_flagged() {
        // e.g. a local fn named unwrap, or Option::unwrap as a path.
        let src = "fn f() { let x = unwrap(); }";
        assert!(run("crates/core/src/lib.rs", src).is_empty());
    }
}
