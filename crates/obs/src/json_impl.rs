//! A dependency-free JSON value with a writer and a strict parser.
//!
//! Numbers are kept in their written form: integers that fit `u64`/`i64`
//! stay exact ([`Json::Uint`]/[`Json::Int`]); everything else is
//! [`Json::Float`]. That makes counter values round-trip exactly, which
//! the CLI integration tests rely on.

use std::fmt;
use std::io::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64` (exact).
    Uint(u64),
    /// A negative integer that fits `i64` (exact).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Uint(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Uint(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Uint(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::Uint(v as u64)
        } else {
            Json::Int(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    #[expect(
        clippy::expect_used,
        reason = "the writer emits only ASCII punctuation and bytes copied from `str`s"
    )]
    pub fn to_string_compact(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out);
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }

    /// Appends the compact serialization to `out` — the bytes of
    /// [`Json::to_string_compact`] without the UTF-8 re-check.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Uint(v) => write_u64(out, *v),
            Json::Int(v) => {
                if *v < 0 {
                    out.push(b'-');
                }
                write_u64(out, v.unsigned_abs());
            }
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_to(out);
                }
                out.push(b']');
            }
            Json::Object(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses a JSON document; the full input must be consumed (trailing
    /// whitespace allowed). Returns a description of the first error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// The two ASCII digits of every value below 100, so an integer prints
/// with one division per two digits.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
25262728293031323334353637383940414243444546474849\
50515253545556575859606162636465666768697071727374\
75767778798081828384858687888990919293949596979899";

/// Writes the decimal digits of `n` into `buf` so that they end at
/// `end`; returns where they start.
fn digits_ending_at(buf: &mut [u8], end: usize, mut n: u64) -> usize {
    let mut at = end;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Appends `n` in decimal.
pub fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let at = digits_ending_at(&mut buf, 20, n);
    out.extend_from_slice(&buf[at..]);
}

/// Appends `v` the one way every JSON body of this workspace prints a
/// float: `null` when not finite, otherwise Rust's shortest round-trip
/// `{v}` form with `.0` appended when it carries no `.`/`e`/`E`, so the
/// token re-parses as a float even when the value is integral (`2.0`,
/// not `2`). Integral values below 2^53 other than `-0.0` — every time
/// stamp of a result pair — take a digits-only path that prints the same
/// bytes without the float formatter.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    // The cast saturates and sends NaN to 0, so nothing non-finite
    // compares equal to its image.
    let int = v as i64;
    if int as f64 == v && int.unsigned_abs() < 1 << 53 && (int != 0 || v.is_sign_positive()) {
        // Sign, at most 16 digits and `.0`, appended in one piece.
        let mut buf = *b"-0000000000000000.0";
        let mut at = digits_ending_at(&mut buf, 17, int.unsigned_abs());
        if int < 0 {
            at -= 1;
            buf[at] = b'-';
        }
        out.extend_from_slice(&buf[at..]);
        return;
    }
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let start = out.len();
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{v}");
    if !out[start..].iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        out.extend_from_slice(b".0");
    }
}

fn write_escaped(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    // Every byte that needs an escape is ASCII, so multi-byte scalars
    // pass through byte by byte.
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                #[expect(
                    clippy::unwrap_used,
                    reason = "the slice follows scalar boundaries of a valid &str"
                )]
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap());
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Uint(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact() {
        let j = Json::obj([
            ("a", Json::Uint(1)),
            ("b", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("c", Json::from("x\"y")),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"a":1,"b":[true,null],"c":"x\"y"}"#
        );
    }

    #[test]
    fn round_trips() {
        let j = Json::obj([
            ("count", Json::Uint(u64::MAX)),
            ("neg", Json::Int(-42)),
            ("pi", Json::Float(3.5)),
            ("whole_float", Json::Float(2.0)),
            ("s", Json::from("line\nbreak\tand \\slash\\")),
            ("nested", Json::obj([("empty", Json::Array(vec![]))])),
        ]);
        let text = j.to_string_compact();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, j);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let j = Json::parse(" { \"k\" : [ 1 , -2 , 3.25, \"\\u00e9é\" ] } ").unwrap();
        let arr = j.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Json::Uint(1));
        assert_eq!(arr[1], Json::Int(-2));
        assert_eq!(arr[2], Json::Float(3.25));
        assert_eq!(arr[3].as_str(), Some("éé"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    /// The rule `Json::write` applied before the printer was shared:
    /// `{v}`, plus `.0` when that carries no `.`/`e`/`E`; `null` when
    /// not finite.
    fn format_rule(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_string();
        }
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            s + ".0"
        }
    }

    fn printed(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        String::from_utf8(out).expect("ASCII")
    }

    #[test]
    fn float_printer_matches_the_format_rule() {
        let two53 = (1u64 << 53) as f64;
        let named = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1234567.0,
            1234567.25,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            -two53,
            two53 + 2.0,
            1e15,
            1e16,
            1e20,
            1e21,
            1e-7,
            1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            i64::MIN as f64,
            i64::MAX as f64,
            u64::MAX as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in named {
            assert_eq!(printed(v), format_rule(v), "bits {:#018x}", v.to_bits());
        }
        assert_eq!(printed(-0.0), "-0.0");
        assert_eq!(printed(two53 - 1.0), "9007199254740991.0");
        assert_eq!(printed(1e-7), "0.0000001");
        assert_eq!(printed(f64::NAN), "null");

        // 100 k random bit patterns (every exponent, subnormals, NaNs),
        // and as many random integral values around the fast path's edge.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..if cfg!(miri) { 500 } else { 100_000 } {
            let v = f64::from_bits(next());
            assert_eq!(printed(v), format_rule(v), "bits {:#018x}", v.to_bits());
            let whole =
                (next() >> (next() % 64)) as i64 as f64 * if next() & 1 == 0 { 1.0 } else { -1.0 };
            assert_eq!(printed(whole), format_rule(whole), "integral {whole}");
        }
    }

    #[test]
    fn integers_print_like_to_string() {
        let mut out = Vec::new();
        for v in [0u64, 7, 9, 10, 42, 99, 100, 101, 999, 1000, 12345, u64::MAX] {
            out.clear();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        assert_eq!(
            Json::Int(i64::MIN).to_string_compact(),
            i64::MIN.to_string()
        );
        assert_eq!(Json::Int(-5).to_string_compact(), "-5");
    }

    #[test]
    fn escapes_control_bytes_and_passes_unicode_through() {
        assert_eq!(
            Json::from("a\u{1}\u{1f}\"\\é\u{10348}").to_string_compact(),
            "\"a\\u0001\\u001f\\\"\\\\é\u{10348}\""
        );
    }

    #[test]
    fn exact_u64_round_trip() {
        for v in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let text = Json::Uint(v).to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
        }
    }
}
