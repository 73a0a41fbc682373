//! A hand-rolled JSON layer: an allocation-friendly encoder and a tiny
//! recursive-descent decoder.
//!
//! The workspace builds fully offline with no serde, so the server carries
//! its own minimal JSON support. The encoder is a push-style writer
//! ([`JsonWriter`]) used by every endpoint; the decoder ([`parse`])
//! understands exactly the JSON the mutation endpoints accept — objects,
//! arrays, strings, numbers, booleans, null — with a recursion cap so a
//! hostile body cannot blow the stack.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the API's ids fit exactly).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer that fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a `u32` (element/document ids on the wire).
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64()
            .filter(|&n| n <= u64::from(u32::MAX))
            .map(|n| n as u32)
    }

    /// The value as a float (scores on the wire).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's members, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Why a body failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap of the decoder (mutation bodies are flat; anything deeper
/// is hostile).
const MAX_DEPTH: usize = 32;

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
        {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // An empty or non-UTF-8 slice falls through to "malformed number".
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|s| std::str::from_utf8(s).ok())
            .unwrap_or_default();
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x20..=0x7F => Some(1),
        0xC2..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF4 => Some(4),
        _ => None,
    }
}

/// Push-style JSON encoder: `obj`/`arr` open scopes, `field_*`/`item_*`
/// append members with commas handled automatically, `close` pops.
///
/// ```
/// use hopi_server::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.obj();
/// w.field_u64("epoch", 3);
/// w.field_bool("ok", true);
/// w.close_obj();
/// assert_eq!(w.finish(), r#"{"epoch":3,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open scope: has the scope emitted a member yet?
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Opens an object scope (`{`).
    pub fn obj(&mut self) {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Opens an array scope (`[`).
    pub fn arr(&mut self) {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Opens an object-valued field.
    pub fn field_obj(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
    }

    /// Opens an array-valued field.
    pub fn field_arr(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes an object scope (`}`).
    pub fn close_obj(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Closes an array scope (`]`).
    pub fn close_arr(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// String field.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.push_escaped(value);
    }

    /// Unsigned-integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Signed-integer field.
    pub fn field_i64(&mut self, key: &str, value: i64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Float field (finite; non-finite encodes as null).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Bool field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Null field.
    pub fn field_null(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    /// Optional-integer field (`null` when absent).
    pub fn field_opt_u64(&mut self, key: &str, value: Option<u64>) {
        match value {
            Some(v) => self.field_u64(key, v),
            None => self.field_null(key),
        }
    }

    /// Unsigned-integer array item.
    pub fn item_u64(&mut self, value: u64) {
        self.comma();
        let _ = write!(self.out, "{value}");
    }

    /// Bool array item.
    pub fn item_bool(&mut self, value: bool) {
        self.comma();
        let _ = write!(self.out, "{value}");
    }

    /// String array item.
    pub fn item_str(&mut self, value: &str) {
        self.comma();
        self.push_escaped(value);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON scopes");
        self.out
    }

    fn comma(&mut self) {
        if let Some(started) = self.stack.last_mut() {
            if *started {
                self.out.push(',');
            }
            *started = true;
        }
    }

    fn key(&mut self, key: &str) {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// Renders `{"error": msg}` — the body of every non-2xx response.
pub fn error_body(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.obj();
    w.field_str("error", msg);
    w.close_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap(), Json::Num(-1.0));
        assert_eq!(parse("2.5e1").unwrap(), Json::Num(25.0));
        assert_eq!(parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"pairs": [[1, 2], [3, 4]], "flag": false}"#).unwrap();
        let pairs = v.get("pairs").unwrap().as_arr().unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1].as_arr().unwrap()[0].as_u32(), Some(3));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
            "[,]",
            "nan",
            "\"\\q\"",
            "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Nesting bomb stays an error, not a stack overflow.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn writer_nests_and_escapes() {
        let mut w = JsonWriter::new();
        w.obj();
        w.field_str("q", "say \"hi\"\n");
        w.field_arr("xs");
        w.item_u64(1);
        w.item_u64(2);
        w.close_arr();
        w.field_obj("inner");
        w.field_opt_u64("d", None);
        w.field_f64("score", 0.5);
        w.close_obj();
        w.close_obj();
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"q":"say \"hi\"\n","xs":[1,2],"inner":{"d":null,"score":0.5}}"#
        );
        // And the decoder agrees with the encoder.
        assert!(parse(&text).is_ok());
    }
}
