//! A lightweight Rust lexer: just enough token structure for the lint
//! rules, with exact line/column positions.
//!
//! Comments are kept as tokens (the suppression parser reads them);
//! string/char literals are single tokens so rule passes never match
//! keywords inside text; everything else is an identifier, number,
//! lifetime, or one-byte punctuation token. The lexer is
//! lossless enough that walking the token stream visits every
//! non-whitespace byte of the file exactly once.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// `ident`, keywords included; also `_`.
    Ident,
    /// Integer/float literal (suffixes included, loosely scanned).
    Num,
    /// String literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte literal: `'a'`, `b'\n'`.
    Char,
    /// Lifetime: `'a`, `'static`.
    Lifetime,
    /// `// …` (incl. `///`, `//!`), text up to but excluding newline.
    LineComment,
    /// `/* … */`, nesting handled.
    BlockComment,
    /// Any other single byte (`.`, `(`, `{`, `!`, …).
    Punct(u8),
}

/// One token with its source span and position.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start`.
    pub col: u32,
}

impl Tok {
    /// The token's source text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// For [`TokKind::Str`] tokens: the literal's content with simple
    /// escapes (`\\`, `\"`, `\n`, `\t`, `\r`, `\0`, `\'`) resolved.
    /// Unknown escapes are kept verbatim — good enough for comparing
    /// metric names, which never use exotic escapes.
    pub fn str_value(&self, src: &str) -> String {
        let t = self.text(src);
        // The prefix (b/r/br/rb + hashes) and suffix hashes contain no
        // quote, so the content is exactly between the outermost quotes.
        let (Some(open), Some(close)) = (t.find('"'), t.rfind('"')) else {
            return String::new();
        };
        let inner = if close > open {
            &t[open + 1..close]
        } else {
            ""
        };
        if t.starts_with('r') || t.starts_with("br") || t.starts_with("rb") {
            return inner.to_string();
        }
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some(e @ ('\\' | '"' | '\'')) => out.push(e),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes `src`. Never fails: unterminated literals run to EOF.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    }
    .run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advances one byte, tracking line/col.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn run(mut self) -> Vec<Tok> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let b = self.peek(0);
            if b.is_ascii_whitespace() {
                self.bump();
                continue;
            }
            let (start, line, col) = (self.pos, self.line, self.col);
            let kind = self.scan_one();
            out.push(Tok {
                kind,
                start,
                end: self.pos,
                line,
                col,
            });
        }
        out
    }

    /// Scans one token starting at the current position.
    fn scan_one(&mut self) -> TokKind {
        let b = self.peek(0);
        match b {
            b'/' if self.peek(1) == b'/' => {
                while self.pos < self.src.len() && self.peek(0) != b'\n' {
                    self.bump();
                }
                TokKind::LineComment
            }
            b'/' if self.peek(1) == b'*' => {
                self.bump_n(2);
                let mut depth = 1usize;
                while self.pos < self.src.len() && depth > 0 {
                    if self.peek(0) == b'/' && self.peek(1) == b'*' {
                        depth += 1;
                        self.bump_n(2);
                    } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                        depth -= 1;
                        self.bump_n(2);
                    } else {
                        self.bump();
                    }
                }
                TokKind::BlockComment
            }
            b'"' => {
                self.scan_cooked_string();
                TokKind::Str
            }
            b'\'' => self.scan_quote(),
            b'0'..=b'9' => {
                self.scan_number();
                TokKind::Num
            }
            _ if is_ident_start(b) => self.scan_ident_or_prefixed(),
            other => {
                self.bump();
                TokKind::Punct(other)
            }
        }
    }

    /// `"…"` with backslash escapes.
    fn scan_cooked_string(&mut self) {
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// `r"…"`, `r#"…"#`, with any hash count.
    fn scan_raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        debug_assert_eq!(self.peek(0), b'"');
        self.bump();
        while self.pos < self.src.len() {
            if self.peek(0) == b'"' {
                let closed = (1..=hashes).all(|i| self.peek(i) == b'#');
                self.bump();
                if closed {
                    self.bump_n(hashes);
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Char literal vs lifetime disambiguation after a `'`.
    fn scan_quote(&mut self) -> TokKind {
        // 'x' or '\…' is a char; 'ident (no closing quote) a lifetime.
        if self.peek(1) == b'\\' {
            self.bump_n(2); // ' and backslash
            self.bump(); // escaped byte (covers \' and \\)
                         // consume to closing quote (handles \u{…})
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump();
            return TokKind::Char;
        }
        if is_ident_start(self.peek(1)) && self.peek(2) != b'\'' {
            self.bump(); // '
            while is_ident_cont(self.peek(0)) {
                self.bump();
            }
            return TokKind::Lifetime;
        }
        // simple char like 'a' or punctuation char like '(' — scan to
        // the closing quote.
        self.bump();
        while self.pos < self.src.len() && self.peek(0) != b'\'' {
            self.bump();
        }
        self.bump();
        TokKind::Char
    }

    /// Numbers, loosely: `0x1F`, `1_000`, `1.5e-3`, `42u64`, `1.0f32`.
    fn scan_number(&mut self) {
        while is_ident_cont(self.peek(0)) {
            self.bump();
        }
        // Fractional part — but not the `..` range operator.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while is_ident_cont(self.peek(0)) {
                self.bump();
            }
        }
        // Exponent sign (`1e-3` stops ident scan at `-`).
        if matches!(self.src.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            && matches!(self.peek(0), b'+' | b'-')
            && self.peek(1).is_ascii_digit()
        {
            self.bump();
            while is_ident_cont(self.peek(0)) {
                self.bump();
            }
        }
    }

    /// Identifiers, including raw-string/byte-string prefixes and raw
    /// identifiers (`r#ident`).
    fn scan_ident_or_prefixed(&mut self) -> TokKind {
        let start = self.pos;
        while is_ident_cont(self.peek(0)) {
            self.bump();
        }
        let ident = &self.src[start..self.pos];
        match self.peek(0) {
            b'"' if matches!(ident, b"r" | b"b" | b"br" | b"rb") => {
                if ident.ends_with(b"r") || ident == b"rb" {
                    self.scan_raw_string();
                } else {
                    self.scan_cooked_string();
                }
                TokKind::Str
            }
            b'#' if matches!(ident, b"r" | b"br") && {
                // r#"…"# raw string vs r#ident raw identifier.
                let mut i = 1;
                while self.peek(i) == b'#' {
                    i += 1;
                }
                self.peek(i) == b'"'
            } =>
            {
                self.scan_raw_string();
                TokKind::Str
            }
            b'#' if ident == b"r" && is_ident_start(self.peek(1)) => {
                self.bump(); // #
                while is_ident_cont(self.peek(0)) {
                    self.bump();
                }
                TokKind::Ident
            }
            b'\'' if ident == b"b" => {
                self.scan_quote();
                TokKind::Char
            }
            _ => TokKind::Ident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_stream() {
        let src = r#"fn main() { let x = 1.5; }"#;
        let toks = lex(src);
        assert_eq!(toks[0].text(src), "fn");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].col, 1);
        assert!(toks.iter().any(|t| t.kind == TokKind::Num));
    }

    #[test]
    fn strings_hide_keywords() {
        let src = r#"let s = "panic! .unwrap() // not a comment";"#;
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "one string token"
        );
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text(src) == "unwrap"));
        assert!(!toks.iter().any(|t| t.kind == TokKind::LineComment));
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r##"let a = r#"with "quotes" and \ backslash"#; let b = b"bytes";"##;
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].str_value(src), r#"with "quotes" and \ backslash"#);
    }

    #[test]
    fn str_value_resolves_escapes() {
        let src = r#""a\"b\\c\nd""#;
        let t = lex(src)[0];
        assert_eq!(t.kind, TokKind::Str);
        assert_eq!(t.str_value(src), "a\"b\\c\nd");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; }";
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still outer */ fn";
        let toks = lex(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert_eq!(toks[1].kind, TokKind::Ident);
    }

    #[test]
    fn line_comments_stop_at_newline() {
        let src = "// SAFETY: fine\nunsafe";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert_eq!(toks[0].text(src), "// SAFETY: fine");
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(
            kinds("0..10"),
            vec![
                TokKind::Num,
                TokKind::Punct(b'.'),
                TokKind::Punct(b'.'),
                TokKind::Num
            ]
        );
        assert_eq!(kinds("1.5e-3f64"), vec![TokKind::Num]);
        assert_eq!(kinds("0xFF_u8"), vec![TokKind::Num]);
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#type = 1;";
        let toks = lex(src);
        assert_eq!(toks[1].kind, TokKind::Ident);
        assert_eq!(toks[1].text(src), "r#type");
    }

    #[test]
    fn format_string_token() {
        let src = r#"r.counter(&format!("{prefix}.hits"))"#;
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.str_value(src), "{prefix}.hits");
    }
}
