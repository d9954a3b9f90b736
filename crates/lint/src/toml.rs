//! A minimal TOML subset parser — exactly what `ci/lock-order.toml`
//! needs: comments, top-level and `[section]` tables, `[[array]]`
//! tables, string values, arrays of strings, booleans and integers.
//! No dates, no nested inline tables, no multi-line strings.

use std::collections::BTreeMap;

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"…"`.
    Str(String),
    /// `["a", "b"]`.
    StrArray(Vec<String>),
    /// `true` / `false`.
    Bool(bool),
    /// `123` / `-4`.
    Int(i64),
}

impl Value {
    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array content, if this is an array of strings.
    pub fn as_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }
}

/// One table: key → value.
pub type Table = BTreeMap<String, Value>;

/// The parsed document: the root table, named tables, and array tables.
#[derive(Debug, Default)]
pub struct Doc {
    /// Keys defined before any `[section]`.
    pub root: Table,
    /// `[name]` tables.
    pub tables: BTreeMap<String, Table>,
    /// `[[name]]` tables, in file order.
    pub arrays: BTreeMap<String, Vec<Table>>,
}

/// Parse error with a 1-based line number.
#[derive(Debug)]
pub struct ParseError {
    /// Line the error was found on.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

enum Target {
    Root,
    Table(String),
    Array(String),
}

/// Parses the supported TOML subset.
pub fn parse(src: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc::default();
    let mut target = Target::Root;
    // Multi-line array accumulator: (start line, text so far).
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let owned;
        let (lineno, line) = if let Some((start, mut acc)) = pending.take() {
            acc.push(' ');
            acc.push_str(line);
            if !array_closed(&acc) {
                pending = Some((start, acc));
                continue;
            }
            owned = acc;
            (start, owned.as_str())
        } else if line
            .split_once('=')
            .is_some_and(|(_, rhs)| rhs.trim_start().starts_with('[') && !array_closed(rhs))
        {
            pending = Some((lineno, line.to_string()));
            continue;
        } else {
            (lineno, line)
        };
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim().to_string();
            doc.arrays
                .entry(name.clone())
                .or_default()
                .push(Table::new());
            target = Target::Array(name);
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim().to_string();
            doc.tables.entry(name.clone()).or_default();
            target = Target::Table(name);
        } else if let Some((key, rhs)) = line.split_once('=') {
            let key = key.trim().to_string();
            let value = parse_value(rhs.trim(), lineno)?;
            let table = match &target {
                Target::Root => &mut doc.root,
                Target::Table(name) => doc
                    .tables
                    .get_mut(name)
                    .unwrap_or_else(|| unreachable!("table created on section header")),
                Target::Array(name) => doc
                    .arrays
                    .get_mut(name)
                    .and_then(|v| v.last_mut())
                    .unwrap_or_else(|| unreachable!("entry created on section header")),
            };
            table.insert(key, value);
        } else {
            return Err(ParseError {
                line: lineno,
                message: format!("expected `key = value` or `[section]`, got `{line}`"),
            });
        }
    }
    Ok(doc)
}

/// Whether an array value's brackets balance outside strings.
fn array_closed(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => escaped = false,
        }
    }
    depth <= 0
}

/// Removes a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_value(rhs: &str, line: usize) -> Result<Value, ParseError> {
    if rhs == "true" {
        return Ok(Value::Bool(true));
    }
    if rhs == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = rhs.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or(ParseError {
            line,
            message: "unterminated array (arrays must be single-line)".into(),
        })?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ParseError {
                        line,
                        message: "only string arrays are supported".into(),
                    })
                }
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(inner) = rhs.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or(ParseError {
            line,
            message: "unterminated string".into(),
        })?;
        return Ok(Value::Str(
            inner.replace("\\\"", "\"").replace("\\\\", "\\"),
        ));
    }
    rhs.parse::<i64>().map(Value::Int).map_err(|_| ParseError {
        line,
        message: format!("unsupported value `{rhs}`"),
    })
}

/// Splits on commas not inside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_document() {
        let doc = parse(
            r#"
# top comment
order = ["a", "b", "c"]  # trailing comment
strict = true
max = 4

[meta]
title = "lock order"

[[class]]
name = "pool.frames"
paths = ["*.frames", "table"]

[[class]]
name = "wal"
paths = ["*.inner"]
"#,
        )
        .unwrap();
        assert_eq!(
            doc.root.get("order").unwrap().as_array().unwrap(),
            &["a".to_string(), "b".into(), "c".into()]
        );
        assert_eq!(doc.root.get("strict"), Some(&Value::Bool(true)));
        assert_eq!(doc.root.get("max"), Some(&Value::Int(4)));
        assert_eq!(
            doc.tables
                .get("meta")
                .unwrap()
                .get("title")
                .unwrap()
                .as_str(),
            Some("lock order")
        );
        let classes = doc.arrays.get("class").unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(
            classes[0].get("name").unwrap().as_str(),
            Some("pool.frames")
        );
        assert_eq!(
            classes[1].get("paths").unwrap().as_array().unwrap(),
            &["*.inner".to_string()]
        );
    }

    #[test]
    fn multi_line_arrays() {
        let doc =
            parse("order = [\n  \"a\",  # first\n  \"b\",\n  \"c\",\n]\nnext = true\n").unwrap();
        assert_eq!(
            doc.root.get("order").unwrap().as_array().unwrap(),
            &["a".to_string(), "b".into(), "c".into()]
        );
        assert_eq!(doc.root.get("next"), Some(&Value::Bool(true)));
    }

    #[test]
    fn hash_inside_string_is_kept() {
        let doc = parse(r##"key = "a#b" # real comment"##).unwrap();
        assert_eq!(doc.root.get("key").unwrap().as_str(), Some("a#b"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("ok = true\nbroken line").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
