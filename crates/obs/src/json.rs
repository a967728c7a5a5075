//! A minimal JSON value, encoder, and parser.
//!
//! The telemetry layer is zero-dependency by design, so the JSONL event
//! sink carries its own JSON support. The event stream, the service wire
//! (`tsmo-serve`) and the node protocol (`tsmo-cluster`) declare their
//! message enums as [`wire_enum!`](crate::wire_enum) tables, whose codecs
//! are generated over the [`Field`] trait; nested payload structs
//! implement [`Field`] with hand-written codecs on the same writers and
//! readers ([`field`], [`array_of`], [`objective_vector`],
//! [`routes_from`]). Encoding is
//! deterministic — object keys are written in the order given, and `f64`
//! uses Rust's shortest round-trip `Display` — so identical messages
//! serialize byte-identically. Parsing is bounded: nesting deeper than
//! [`MAX_DEPTH`] is an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escape handling for `\" \\ \n \t \r \u00XX`).
    String(String),
    /// An array of values.
    Array(Vec<Json>),
    /// An object. `BTreeMap` because parsed objects are looked up by key;
    /// encoding order is handled by the writer, not this map.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number to `out`. NaN and infinities are not valid JSON;
/// they encode as `null` (the telemetry layer never produces them).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `[a,b,…]` to `out`, writing each item with `write`.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Appends a number array (e.g. an objective vector).
pub fn write_f64s(out: &mut String, xs: &[f64]) {
    write_array(out, xs, |out, x| write_f64(out, *x));
}

/// Appends routes — arrays of site ids — as nested arrays; the inverse of
/// [`routes_from`].
pub fn write_routes(out: &mut String, routes: &[Vec<u16>]) {
    write_array(out, routes, |out, route| {
        write_array(out, route, |out, site| {
            let _ = write!(out, "{site}");
        });
    });
}

/// The string field `key` of an object, borrowed.
pub fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("bad '{key}' field"))
}

/// Decodes every item of an array with `item`; the first item error, or a
/// non-array value, is the error.
pub fn array_of<T>(
    v: &Json,
    item: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match v {
        Json::Array(items) => items.iter().map(item).collect(),
        _ => Err("expected an array".to_string()),
    }
}

/// The array field `key`, decoded with `item`.
pub fn req_array<T>(
    doc: &Json,
    key: &str,
    item: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    match doc.get(key) {
        Some(v) => array_of(v, item).map_err(|e| format!("'{key}': {e}")),
        None => Err(format!("missing '{key}' array")),
    }
}

/// A 3-element `[distance, vehicles, tardiness]` objective vector.
pub fn objective_vector(v: &Json) -> Result<[f64; 3], String> {
    match v {
        Json::Array(items) if items.len() == 3 => {
            let mut out = [0.0; 3];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = item.as_f64().ok_or("non-numeric objective")?;
            }
            Ok(out)
        }
        _ => Err("objective vector must be a 3-element array".to_string()),
    }
}

/// Routes written by [`write_routes`]: arrays of `u16` site ids.
pub fn routes_from(v: &Json) -> Result<Vec<Vec<u16>>, String> {
    array_of(v, |route| {
        array_of(route, |site| {
            site.as_u64()
                .and_then(|x| u16::try_from(x).ok())
                .ok_or_else(|| "bad site id".to_string())
        })
    })
}

/// A value that can be one field of a message declared with
/// [`wire_enum!`](crate::wire_enum): it writes itself as one JSON value
/// and reads itself back from one. Nested payload structs implement it by
/// delegating to their own codecs.
pub trait Field: Sized {
    /// Appends the value's JSON encoding to `out`.
    fn write_field(&self, out: &mut String);

    /// Decodes the value from its JSON encoding.
    fn read_field(v: &Json) -> Result<Self, String>;

    /// The value of an absent key: an error for every type but `Option`.
    fn absent() -> Result<Self, String> {
        Err("missing".to_string())
    }
}

/// The field `key` of an object, decoded as a `T`.
pub fn field<T: Field>(doc: &Json, key: &str) -> Result<T, String> {
    match doc.get(key) {
        Some(v) => T::read_field(v),
        None => T::absent(),
    }
    .map_err(|e| format!("bad '{key}' field: {e}"))
}

impl Field for u64 {
    fn write_field(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected a non-negative integer".to_string())
    }
}

impl Field for u32 {
    fn write_field(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        u64::read_field(v)?
            .try_into()
            .map_err(|_| "out of u32 range".to_string())
    }
}

impl Field for usize {
    fn write_field(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        u64::read_field(v)?
            .try_into()
            .map_err(|_| "out of usize range".to_string())
    }
}

impl Field for f64 {
    fn write_field(&self, out: &mut String) {
        write_f64(out, *self);
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Field for bool {
    fn write_field(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".to_string())
    }
}

impl Field for String {
    fn write_field(&self, out: &mut String) {
        write_str(out, self);
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

impl Field for [f64; 3] {
    fn write_field(&self, out: &mut String) {
        write_f64s(out, self);
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        objective_vector(v)
    }
}

/// `null` when `None`; a `null` or absent key reads as `None`.
impl<T: Field> Field for Option<T> {
    fn write_field(&self, out: &mut String) {
        match self {
            Some(x) => x.write_field(out),
            None => out.push_str("null"),
        }
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read_field(v).map(Some),
        }
    }

    fn absent() -> Result<Self, String> {
        Ok(None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn write_field(&self, out: &mut String) {
        write_array(out, self, |out, x| x.write_field(out));
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        array_of(v, T::read_field)
    }
}

/// Declares a message enum from one table and generates its JSON codec.
///
/// Each row is a variant, its wire `type` string, and its named fields in
/// wire order; the field name is the JSON key and every field type
/// implements [`Field`]. The macro emits the enum (doc comments and
/// attributes included) and an `impl` with
///
/// * `type_name()` — the row's `type` string;
/// * `write_fields(out)` — `"type":"…"` then `,"key":value` per field,
///   without the enclosing braces (the event stream prefixes a `seq`);
/// * `to_json()` — `{` + `write_fields` + `}`;
/// * `from_json(doc)` / `parse(text)` — the inverse, reading each field
///   with [`field`]; an unknown `type` is an error.
///
/// ```
/// tsmo_obs::wire_enum! {
///     /// A tiny vocabulary.
///     #[derive(Debug, PartialEq)]
///     pub enum Ping {
///         /// A probe.
///         Probe = "probe" {
///             /// Sender id.
///             from: u32,
///         },
///         /// The answer.
///         Pong = "pong",
///     }
/// }
/// let text = Ping::Probe { from: 7 }.to_json();
/// assert_eq!(text, r#"{"type":"probe","from":7}"#);
/// assert_eq!(Ping::parse(&text), Ok(Ping::Probe { from: 7 }));
/// assert_eq!(Ping::Pong.to_json(), r#"{"type":"pong"}"#);
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal $({
                    $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $fty ),* })?,
            )*
        }

        impl $name {
            /// The message's wire `type` string.
            pub fn type_name(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $tag, )*
                }
            }

            /// Appends `"type":"…"` and then each field as `,"key":value`
            /// in declaration order, without the enclosing braces.
            pub fn write_fields(&self, out: &mut String) {
                match self {
                    $(
                        Self::$variant $({ $($field),* })? => {
                            out.push_str(concat!("\"type\":\"", $tag, "\""));
                            $($(
                                out.push_str(concat!(",\"", stringify!($field), "\":"));
                                $crate::json::Field::write_field($field, out);
                            )*)?
                        }
                    )*
                }
            }

            /// Encodes the message as one JSON object. Field order is
            /// fixed, so equal messages encode byte-identically.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(64);
                out.push('{');
                self.write_fields(&mut out);
                out.push('}');
                out
            }

            /// Decodes a message from a parsed JSON object.
            pub fn from_json(doc: &$crate::json::Json) -> Result<Self, String> {
                match $crate::json::req_str(doc, "type")? {
                    $(
                        $tag => Ok(Self::$variant $({
                            $( $field: $crate::json::field(doc, stringify!($field))? ),*
                        })?),
                    )*
                    other => Err(format!(concat!("unknown ", stringify!($name), " type '{}'"), other)),
                }
            }

            /// Parses one JSON document into a message.
            pub fn parse(text: &str) -> Result<Self, String> {
                let doc = $crate::json::parse(text).map_err(|e| e.to_string())?;
                Self::from_json(&doc)
            }
        }
    };
}

/// Parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap one frame of `[[[[…` overflows the
/// stack of whichever daemon thread decodes it. The suite's own documents
/// nest at most six levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to consume the whole input.
/// Documents nested deeper than [`MAX_DEPTH`] are rejected.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("document nested too deeply"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| ParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"a": 1, "b": -2.5, "c": "x", "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_f64), Some(-2.5));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn parses_number_arrays() {
        let v = parse(r#"{"obj": [1.5, 2, 30.25]}"#).unwrap();
        match v.get("obj") {
            Some(Json::Array(items)) => {
                let xs: Vec<f64> = items.iter().filter_map(Json::as_f64).collect();
                assert_eq!(xs, vec![1.5, 2.0, 30.25]);
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let v = parse(&format!("{{\"s\": {out}}}")).unwrap();
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd\te\u{1}")
        );
    }

    #[test]
    fn f64_display_round_trips() {
        for x in [0.0, 1.0, -3.25, 1234.5678, 1e-9, f64::MAX] {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(parse(&out).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn field_helpers_round_trip_routes_and_vectors() {
        let mut out = String::from("{\"obj\":");
        write_f64s(&mut out, &[1.5, 2.0, 0.0]);
        out.push_str(",\"routes\":");
        write_routes(&mut out, &[vec![1, 3], vec![], vec![2]]);
        out.push_str(",\"n\":7,\"none\":null}");
        assert_eq!(
            out,
            "{\"obj\":[1.5,2,0],\"routes\":[[1,3],[],[2]],\"n\":7,\"none\":null}"
        );
        let doc = parse(&out).unwrap();
        assert_eq!(
            objective_vector(doc.get("obj").unwrap()),
            Ok([1.5, 2.0, 0.0])
        );
        assert_eq!(
            routes_from(doc.get("routes").unwrap()),
            Ok(vec![vec![1, 3], vec![], vec![2]])
        );
        assert_eq!(field::<u64>(&doc, "n"), Ok(7));
        assert_eq!(field::<Option<u64>>(&doc, "none"), Ok(None));
        assert_eq!(field::<Option<u64>>(&doc, "absent"), Ok(None));
        assert!(req_str(&doc, "n").is_err());
        assert!(req_array(&doc, "absent", routes_from).is_err());
        assert_eq!(field::<Option<Vec<[f64; 3]>>>(&doc, "none"), Ok(None));
        assert!(field::<Option<Vec<[f64; 3]>>>(&doc, "n").is_err());
        assert!(routes_from(&parse("[[70000]]").unwrap()).is_err());
        assert!(objective_vector(&parse("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse("nul").is_err());
    }
}
