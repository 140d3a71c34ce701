//! Vendored minimal serde_json shim.
//!
//! Renders the in-repo [`serde::Value`] tree to JSON text and parses JSON
//! text back. The output format matches the real serde_json closely enough
//! that the repository's committed `results/*.json` artefacts are
//! byte-stable: 2-space pretty printing, floats always carry a fractional
//! part (`1.0`, not `1`), and non-finite floats render as `null`.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization/deserialization error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Streams `value`'s compact JSON rendering into `sink` without building
/// the intermediate text buffer. The byte stream delivered to the sink is
/// exactly the [`to_string`] / [`to_vec`] output — hashing sinks therefore
/// see the same bytes a buffered caller would hash, keeping content hashes
/// stable across the two paths.
pub fn to_sink<T: Serialize + ?Sized, S: JsonSink + ?Sized>(
    value: &T,
    sink: &mut S,
) -> Result<(), Error> {
    write_value(sink, &value.to_value(), None, 0);
    Ok(())
}

/// Byte-stream receiver for the JSON writer: the renderer pushes UTF-8
/// fragments in output order, so a sink can hash or count bytes without a
/// backing buffer. `String` is the canonical buffering sink.
pub trait JsonSink {
    /// Receives the next UTF-8 fragment of the rendering.
    fn write_str(&mut self, s: &str);

    /// Receives a single character (default: via a stack-encoded fragment).
    fn write_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.write_str(c.encode_utf8(&mut buf));
    }
}

impl JsonSink for String {
    fn write_str(&mut self, s: &str) {
        self.push_str(s);
    }

    fn write_char(&mut self, c: char) {
        self.push(c);
    }
}

/// `fmt::Write` adapter so `Display` values (ints, floats) render straight
/// into a sink without a temporary `String`.
struct FmtSink<'a, S: JsonSink + ?Sized>(&'a mut S);

impl<S: JsonSink + ?Sized> std::fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_str(s);
        Ok(())
    }
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value).map_err(Error::from)
}

/// Parses a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value<S: JsonSink + ?Sized>(out: &mut S, v: &Value, indent: Option<usize>, depth: usize) {
    use std::fmt::Write as _;
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(FmtSink(out), "{n}");
        }
        Value::Int(n) => {
            let _ = write!(FmtSink(out), "{n}");
        }
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.write_str("[]");
                return;
            }
            out.write_char('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.write_char(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.write_str("{}");
                return;
            }
            out.write_char('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.write_char(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.write_char(':');
                if indent.is_some() {
                    out.write_char(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.write_char('}');
        }
    }
}

fn newline_indent<S: JsonSink + ?Sized>(out: &mut S, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.write_char('\n');
        for _ in 0..width * depth {
            out.write_char(' ');
        }
    }
}

/// Formats a float the way serde_json does: non-finite values become `null`,
/// integral values keep a `.0` suffix, everything else uses Rust's shortest
/// round-trip representation.
fn write_float<S: JsonSink + ?Sized>(out: &mut S, f: f64) {
    use std::fmt::Write as _;
    if !f.is_finite() {
        out.write_str("null");
    } else if f == f.trunc() && f.abs() < 1e16 {
        let _ = write!(FmtSink(out), "{f:.1}");
    } else {
        let _ = write!(FmtSink(out), "{f}");
    }
}

fn write_string<S: JsonSink + ?Sized>(out: &mut S, s: &str) {
    use std::fmt::Write as _;
    out.write_char('"');
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            '\u{08}' => out.write_str("\\b"),
            '\u{0c}' => out.write_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(FmtSink(out), "\\u{:04x}", c as u32);
            }
            c => out.write_char(c),
        }
    }
    out.write_char('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(s, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let val = parse_value(text, pos)?;
                entries.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, Error> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected `\"` at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the maximal run of plain bytes in one push. `"` and `\` are
        // ASCII, so both ends of the run are char boundaries of `text` and
        // the run needs no UTF-8 re-validation.
        let rest = text.get(*pos..).unwrap_or_default();
        let run = rest
            .bytes()
            .position(|b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        out.push_str(rest.get(..run).unwrap_or_default());
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    None => return Err(Error::new("unterminated string")),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = text.get(*pos + 1..*pos + 5).ok_or_else(|| {
                            Error::new(if *pos + 5 > bytes.len() {
                                "truncated \\u escape"
                            } else {
                                "bad \\u escape"
                            })
                        })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("bad \\u escape"))?;
                        // Surrogate pairs are not needed by this repo's data.
                        out.push(char::from_u32(code).ok_or_else(|| Error::new("bad \\u escape"))?);
                        *pos += 4;
                    }
                    _ => return Err(Error::new(format!("bad escape at byte {pos}"))),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
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
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected a number at byte {start}")));
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    } else if let Some(stripped) = text.strip_prefix('-') {
        stripped
            .parse::<u64>()
            .map_err(|_| Error::new(format!("bad number `{text}`")))
            .and_then(|n| {
                i64::try_from(n)
                    .map(|n| Value::Int(-n))
                    .map_err(|_| Error::new(format!("number `{text}` out of range")))
            })
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_formatting() {
        let v = Value::Map(vec![
            ("a".into(), Value::Float(1.0)),
            ("b".into(), Value::Seq(vec![Value::UInt(1), Value::UInt(2)])),
            ("c".into(), Value::Null),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"a":1.0,"b":[1,2],"c":null}"#);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": 1.0,\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": null\n}"
        );
    }

    #[test]
    fn to_sink_streams_the_exact_to_string_bytes() {
        // A sink that records fragment boundaries as well as content, so
        // the test proves both byte identity and that streaming actually
        // happened in pieces (no single buffered push).
        struct Frags(Vec<String>);
        impl JsonSink for Frags {
            fn write_str(&mut self, s: &str) {
                self.0.push(s.to_string());
            }
        }
        let v = Value::Map(vec![
            ("a".into(), Value::Float(1.0)),
            ("esc\n".into(), Value::Str("q\"uote\\".into())),
            ("big".into(), Value::UInt(u64::MAX)),
            ("neg".into(), Value::Int(-7)),
            (
                "seq".into(),
                Value::Seq(vec![Value::Bool(true), Value::Null, Value::Float(0.125)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
            ("emptym".into(), Value::Map(vec![])),
        ]);
        let mut frags = Frags(Vec::new());
        to_sink(&v, &mut frags).unwrap();
        assert_eq!(frags.0.concat(), to_string(&v).unwrap());
        assert!(frags.0.len() > 1, "rendering should stream in fragments");
    }

    #[test]
    fn float_rules_match_serde_json() {
        let mut s = String::new();
        write_float(&mut s, 1.0);
        assert_eq!(s, "1.0");
        s.clear();
        write_float(&mut s, 0.125);
        assert_eq!(s, "0.125");
        s.clear();
        write_float(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        write_float(&mut s, -3.0);
        assert_eq!(s, "-3.0");
    }

    #[test]
    fn hashmap_json_key_order_is_byte_stable() {
        // The HashMap Serialize impl sorts keys, so the rendered JSON must
        // be byte-identical regardless of insertion order (and of the
        // process's hash seed). Guards the determinism contract the run
        // cache and checked-in results/ artifacts rely on.
        let keys = ["delta", "alpha", "echo", "charlie", "bravo"];
        let mut forward = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            forward.insert(k.to_string(), i as u64);
        }
        let mut reverse = std::collections::HashMap::new();
        for (i, k) in keys.iter().enumerate().rev() {
            reverse.insert(k.to_string(), i as u64);
        }
        let a = to_string(&forward).unwrap();
        let b = to_string(&reverse).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, r#"{"alpha":1,"bravo":4,"charlie":3,"delta":0,"echo":2}"#);
        assert_eq!(
            to_string_pretty(&forward).unwrap(),
            to_string_pretty(&reverse).unwrap()
        );
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"x": [1, -2, 3.5, "hi\n", true, null], "y": {}}"#;
        let v = parse(text).unwrap();
        let back = parse(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
        let nums: Vec<i32> = from_str("[1,2,3]").unwrap();
        assert_eq!(nums, vec![1, 2, 3]);
    }

    #[test]
    fn strings_mix_multibyte_characters_and_escapes() {
        let parsed: String = from_str(r#""é\n日本\"x\\ü🦀\t""#).unwrap();
        assert_eq!(parsed, "é\n日本\"x\\ü🦀\t");
        let s = "ß\"\u{1}→\\".to_string();
        assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
    }

    #[test]
    fn unicode_escapes_decode() {
        let parsed: String = from_str(r#""\u0041\u00e9\u65e5z\u0001""#).unwrap();
        assert_eq!(parsed, "Aé日z\u{1}");
        assert!(from_str::<String>(r#""\u00""#).is_err(), "truncated escape");
        assert!(from_str::<String>(r#""\u00zz""#).is_err(), "non-hex escape");
        assert!(
            from_str::<String>(r#""\u00é""#).is_err(),
            "non-ASCII escape"
        );
        assert!(from_str::<String>(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for text in [r#"""#, r#""abc"#, r#""日本"#, r#""ab\"#, r#""ab\""#] {
            let err = from_str::<String>(text).unwrap_err();
            assert!(err.to_string().contains("unterminated"), "{text:?}: {err}");
        }
    }

    #[test]
    fn megabyte_string_roundtrips() {
        // ~1 MB of mixed ASCII, multi-byte characters and escapes; the
        // parser copies plain runs in bulk, so this stays linear.
        let unit = "plain ascii text é日🦀 \"quoted\" back\\slash\n\t";
        let big: String = unit.repeat(1 << 20 >> 5);
        assert!(big.len() >= 1 << 20);
        let text = to_string(&big).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), big);
        let doc = Value::Map(vec![("k".into(), Value::Str(big.clone()))]);
        assert_eq!(parse(&to_string(&doc).unwrap()).unwrap(), doc);
    }
}
