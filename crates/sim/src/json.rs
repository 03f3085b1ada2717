//! Minimal JSON value model and serializer.
//!
//! The experiment harness writes machine-readable artifacts (tables and
//! [`crate::metrics::MetricsReport`] snapshots) as JSON, and the bench
//! regression gate reads them back. The simulation is dependency-free, so
//! this module provides the small serializer *and parser* the repo needs:
//! a [`Json`] value enum, a [`ToJson`] conversion trait, a pretty printer
//! with full string escaping, and [`Json::parse`].
//!
//! # Examples
//!
//! ```
//! use vsim::json::{Json, ToJson};
//!
//! let v = Json::obj([("name", "exp".to_json()), ("runs", 3u64.to_json())]);
//! assert!(v.pretty().contains("\"runs\": 3"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (kept separate so u64 counters round-trip).
    UInt(u64),
    /// A float; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Parses a JSON document (recursive descent, full escape handling).
    ///
    /// Integer tokens become [`Json::UInt`] (or [`Json::Int`] when
    /// negative); tokens with a fraction or exponent become [`Json::Num`].
    /// Trailing content after the top-level value, or a key repeated
    /// within one object, is an error.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after value"));
        }
        Ok(v)
    }

    /// Looks up `key` on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(pairs) = self else { return None };
        pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The elements of an array (`None` on other variants).
    pub fn as_arr(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    /// The string value (`None` on other variants).
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// Any numeric variant as `f64` (`None` on non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            Json::Null | Json::Bool(_) | Json::Str(_) | Json::Arr(_) | Json::Obj(_) => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Keep integral floats readable and round-trippable.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{x:.1}");
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                self.pos = key_at;
                return Err(self.err(&format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run of plain bytes in one go.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a matching \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    #[allow(clippy::expect_used)]
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !fractional {
            // Integer token: keep the serializer's Int/UInt distinction.
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
json_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

/// Derives [`ToJson`] for a struct as an object of its named fields.
///
/// ```
/// use vsim::impl_to_json;
/// use vsim::json::ToJson;
///
/// struct Row { name: String, runs: u64 }
/// impl_to_json!(Row { name, runs });
///
/// let r = Row { name: "exp".into(), runs: 3 };
/// assert!(r.to_json().pretty().contains("\"runs\": 3"));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.pretty().trim(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn renders_nested_structures() {
        let v = Json::obj([
            ("name", "freeze".to_json()),
            ("rows", Json::arr([Json::obj([("ms", 5.25f64.to_json())])])),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
        ]);
        let s = v.pretty();
        assert!(s.contains("\"name\": \"freeze\""));
        assert!(s.contains("\"ms\": 5.25"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.contains("\"none\": null"));
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::Num(f64::NAN).pretty().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).pretty().trim(), "null");
    }

    #[test]
    fn integral_floats_keep_a_decimal() {
        assert_eq!(Json::Num(3.0).pretty().trim(), "3.0");
        assert_eq!(Json::UInt(3).pretty().trim(), "3");
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let v = Json::obj([
            ("name", "freeze \"quoted\"\n".to_json()),
            ("count", 42u64.to_json()),
            ("delta", (-3i64).to_json()),
            ("ms", 5.25f64.to_json()),
            ("whole", 3.0f64.to_json()),
            ("flag", true.to_json()),
            ("none", Json::Null),
            (
                "rows",
                Json::arr([Json::arr([]), Json::obj([("k", 1u64.to_json())])]),
            ),
        ]);
        let parsed = Json::parse(&v.pretty()).expect("parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#""a\u0041\n\t\"\\\u00e9\ud83d\ude00""#).expect("parses");
        assert_eq!(v, Json::Str("aA\n\t\"\\é😀".into()));
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("3.5").unwrap(), Json::Num(3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-2.5e-1").unwrap(), Json::Num(-0.25));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{1: 2}",
            "[1,]nope",
            "\"\\q\"",
            "nullx",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_a_repeated_key_naming_it() {
        let err = Json::parse(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert_eq!(err, "json parse error at byte 12: duplicate key \"seed\"");
        let nested = Json::parse(r#"[{"a": {"k": 1, "b": 2, "k": 3}}]"#).unwrap_err();
        assert!(nested.contains("duplicate key \"k\""), "{nested}");
        // The same key in sibling objects is fine.
        assert!(Json::parse(r#"[{"k": 1}, {"k": 2}]"#).is_ok());
    }

    #[test]
    fn accessors_navigate_values() {
        let v = Json::parse(r#"{"table": [{"ms": 1.5, "name": "x"}]}"#).expect("parses");
        let row = &v.get("table").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("ms").unwrap().as_f64(), Some(1.5));
        assert_eq!(row.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(row.get("missing"), None);
        assert_eq!(v.get("table").unwrap().as_str(), None);
    }

    #[test]
    fn derive_macro_builds_objects() {
        struct Row {
            a: u64,
            b: String,
        }
        impl_to_json!(Row { a, b });
        let j = Row {
            a: 1,
            b: "x".into(),
        }
        .to_json();
        assert_eq!(
            j,
            Json::obj([("a", Json::UInt(1)), ("b", Json::Str("x".into()))])
        );
    }
}
