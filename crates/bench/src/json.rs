//! A minimal JSON reader for validating emitted benchmark files.
//!
//! The workspace is offline (no `serde_json`), and the only JSON we consume
//! is the schema check of our own `BENCH_*.json` outputs — a few hundred
//! bytes of objects, arrays, strings and numbers. This hand-rolled
//! recursive-descent parser covers exactly the JSON grammar (minus `\u`
//! escapes, which our emitter never produces) and keeps the validation
//! honest: the smoke tests parse the real file instead of grepping it.

use std::collections::BTreeMap;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Parsing
/// and dropping a document recurse once per level, so deeper input is an
/// error rather than a stack overflow; our own files nest a few levels.
const MAX_DEPTH: usize = 512;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (irrelevant for validation).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses `src` as a single JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset on malformed input, or
    /// naming the bound on arrays and objects nested deeper than it.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected end or byte at {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                });
                *pos += 1;
            }
            Some(_) => {
                // advance one UTF-8 scalar
                let s = &b[*pos..];
                let ch_len = std::str::from_utf8(s)
                    .map_err(|_| "invalid utf-8".to_string())?
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": true}], "c": "x\ny", "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} garbage").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    /// `n` nested arrays around `0`.
    fn nested(n: usize) -> String {
        format!("{}0{}", "[".repeat(n), "]".repeat(n))
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&nested(100_000)).unwrap_err();
        assert!(
            err.contains(&format!("deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
        let objects = format!("{}0{}", r#"{"a":"#.repeat(100_000), "}".repeat(100_000));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn nesting_at_the_bound_parses() {
        let mut v = &Json::parse(&nested(MAX_DEPTH)).unwrap();
        for _ in 0..MAX_DEPTH {
            v = &v.as_arr().unwrap()[0];
        }
        assert_eq!(v.as_f64(), Some(0.0));
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    /// JSON's own tokens mixed with arbitrary ASCII.
    fn token_soup() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        const TOKENS: &[&str] = &[
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\"k\"", "true", "false", "null", "0",
            "-1.5e3", "\\u0041", " ", "\n",
        ];
        proptest::collection::vec((any::<bool>(), 0..TOKENS.len(), 0u8..128), 0..48).prop_map(
            |pieces| {
                pieces
                    .into_iter()
                    .map(|(token, i, c)| {
                        if token {
                            TOKENS[i].to_string()
                        } else {
                            char::from(c).to_string()
                        }
                    })
                    .collect()
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        /// Token soup parses to a value or an error, never a panic.
        #[test]
        fn token_soup_never_panics(src in token_soup()) {
            let _ = Json::parse(&src);
        }

        /// So do arbitrary bytes, decoded lossily.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96)) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn escape_roundtrips() {
        let s = "a\"b\\c\nd";
        let v = Json::parse(&escape(s)).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }
}
