//! Hand-rolled JSON tree, writer, and parser.
//!
//! The workspace builds offline, so run reports cannot lean on serde; this
//! module provides the minimal value model the telemetry layer needs: a
//! [`Json`] tree with a deterministic writer (object keys keep insertion
//! order, floats use Rust's shortest round-trip formatting), a strict
//! pull reader ([`JsonReader`]) that steps through a document without
//! building it, and [`Json::parse`], the tree built on that reader.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so emitted reports are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` — also what non-finite floats serialise to.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i64),
    /// A finite float. Non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counter values far exceed no realistic run; saturate rather than
        // silently wrap if one ever does.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(i64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object; panics on non-objects —
    /// report assembly is programmer-driven, a mistyped call is a bug.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::insert on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
        self
    }

    /// Member lookup on objects; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Integer view (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Serialises without extra whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialises with two-space indentation (the style of the committed
    /// report goldens under `tests/golden/`).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Strict parse of a complete JSON document (trailing content is an
    /// error). Numbers without fraction/exponent that fit an `i64` parse as
    /// [`Json::Int`]; everything else numeric as [`Json::Num`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut reader = JsonReader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        // `{}` is Rust's shortest representation that round-trips.
        let _ = write!(out, "{n}");
        // Keep a fraction marker so the value re-parses as a float.
        if !out.ends_with(|c: char| !c.is_ascii_digit() && c != '-') && !n.fract().is_normal() {
            let start = out
                .rfind(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.'))
                .map_or(0, |i| i + 1);
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A pull reader over one JSON document. It steps through objects
/// ([`begin_object`](Self::begin_object), [`next_key`](Self::next_key))
/// and arrays ([`begin_array`](Self::begin_array),
/// [`next_item`](Self::next_item)), hands out strings borrowed from the
/// input unless they hold escapes, and checks a value it is not asked to
/// build with [`skip_value`](Self::skip_value). [`Json::parse`] is
/// [`value`](Self::value) then [`finish`](Self::finish), so every byte
/// offset and error message is the reader's.
///
/// ```
/// use corroborate_obs::JsonReader;
///
/// let mut r = JsonReader::new(r#"{"n": [1, 2], "name": "café"}"#);
/// r.begin_object().unwrap();
/// let mut name = None;
/// while let Some(key) = r.next_key().unwrap() {
///     match &*key {
///         "name" => name = Some(r.string().unwrap()),
///         _ => r.skip_value().unwrap(),
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(name.as_deref(), Some("café"));
/// ```
#[derive(Debug)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Set by `begin_*`: the next `next_key`/`next_item` reads the
    /// container's first member, with no `,` before it.
    opened: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0, opened: false }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte without consuming it:
    /// at a value, its first byte tells its kind (`{`, `[`, `"`, `t`, …).
    /// `None` at the end of the input.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// Consumes the `{` that opens an object; step through its members
    /// with [`Self::next_key`].
    ///
    /// # Errors
    /// The next value is not an object.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'{')?;
        self.opened = true;
        Ok(())
    }

    /// The next key of the innermost open object, leaving the reader at
    /// its value, which the caller must read or skip before the next
    /// call; `None` once the object's `}` is consumed.
    ///
    /// # Errors
    /// A syntax error at or before the key's `:`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.byte() == Some(b'}') {
                self.pos += 1;
                return Ok(None);
            }
        } else {
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(None);
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
            self.skip_ws();
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Consumes the `[` that opens an array; step through its items with
    /// [`Self::next_item`].
    ///
    /// # Errors
    /// The next value is not an array.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'[')?;
        self.opened = true;
        Ok(())
    }

    /// Whether the innermost open array has another item; if so the
    /// reader is at it, and the caller must read or skip it before the
    /// next call. `false` once the array's `]` is consumed.
    ///
    /// # Errors
    /// A syntax error between items.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.skip_ws();
        if std::mem::take(&mut self.opened) {
            if self.byte() == Some(b']') {
                self.pos += 1;
                return Ok(false);
            }
        } else {
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(false);
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
            self.skip_ws();
        }
        Ok(true)
    }

    /// Reads a string value: borrowed from the input when it holds no
    /// escape, decoded into an owned copy when it does.
    ///
    /// # Errors
    /// The next value is not a string, or the string is malformed.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let start = self.pos;
            self.plain_run();
            out.push_str(&self.text[start..self.pos]);
        }
    }

    /// Advances over a run of bytes a string holds as they are. It stops
    /// only at ASCII bytes, so both ends are character boundaries.
    fn plain_run(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Decodes the escape after a consumed `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let esc = self.byte().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if self.byte() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            other => return Err(self.err(format!("invalid escape '\\{}'", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Reads the next value into a [`Json`] tree.
    ///
    /// # Errors
    /// The first syntax error in the value.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    entries.push((key.into_owned(), value));
                }
                Ok(Json::Obj(entries))
            }
            _ => self.scalar(),
        }
    }

    /// Checks the next value as [`Self::value`] would, without building
    /// it. Nested containers are tracked on a heap stack, not by
    /// recursion, so no nesting depth exhausts the thread's stack.
    ///
    /// # Errors
    /// The first syntax error in the value.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        // The containers open inside the value, innermost last; `true`
        // marks an object.
        let mut open: Vec<bool> = Vec::new();
        loop {
            match self.peek() {
                Some(b'{') => {
                    self.begin_object()?;
                    open.push(true);
                }
                Some(b'[') => {
                    self.begin_array()?;
                    open.push(false);
                }
                Some(b'"') => {
                    self.string()?;
                }
                _ => {
                    self.scalar()?;
                }
            }
            // Step to the innermost container's next member, closing
            // every container that has none.
            loop {
                let Some(&object) = open.last() else { return Ok(()) };
                let more = if object { self.next_key()?.is_some() } else { self.next_item()? };
                if more {
                    break;
                }
                open.pop();
            }
        }
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    /// Trailing content after the document.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing content after JSON document"));
        }
        Ok(())
    }

    /// A literal or a number, or the error for a byte no value starts
    /// with.
    fn scalar(&mut self) -> Result<Json, ParseError> {
        match self.byte() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII bytes were consumed: the slice is whole characters.
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| ParseError { offset: start, message: format!("invalid number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_scalars() {
        assert_eq!(Json::Null.to_json(), "null");
        assert_eq!(Json::Bool(true).to_json(), "true");
        assert_eq!(Json::Int(-7).to_json(), "-7");
        assert_eq!(Json::from(0.25).to_json(), "0.25");
        assert_eq!(Json::from(3.0).to_json(), "3.0");
        assert_eq!(Json::from(f64::NAN).to_json(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_json(), "null");
        assert_eq!(Json::from("a\"b\\c\nd").to_json(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn object_preserves_insertion_order_and_replaces() {
        let mut o = Json::object();
        o.insert("b", 1u64).insert("a", 2u64).insert("b", 3u64);
        assert_eq!(o.to_json(), "{\"b\":3,\"a\":2}");
        assert_eq!(o.get("a").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn round_trips_through_parse() {
        let mut report = Json::object();
        report.insert("name", "heu_scaling");
        report.insert("ratio", 1.5);
        report.insert("rounds", vec![1u64, 2, 3]);
        let mut nested = Json::object();
        nested.insert("unicode", "αβ\t\"quoted\"");
        nested.insert("none", Json::Null);
        report.insert("meta", nested);

        for text in [report.to_json(), report.to_json_pretty()] {
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed, report, "{text}");
        }
    }

    #[test]
    fn parses_existing_bench_artifact_style() {
        let text = r#"{
  "bench": "heu_scaling",
  "rayon_feature": false,
  "scaling": [
    {"mode": "SelfTerm", "n_facts": 1000, "indexed_s": 0.001472}
  ]
}"#;
        let v = Json::parse(text).unwrap();
        let scaling = v.get("scaling").unwrap().as_array().unwrap();
        assert_eq!(scaling[0].get("n_facts").unwrap().as_i64(), Some(1000));
        assert_eq!(scaling[0].get("indexed_s").unwrap().as_f64(), Some(0.001472));
    }

    #[test]
    fn parses_escapes_and_surrogate_pairs() {
        let v = Json::parse(r#""aé😀\n""#).unwrap();
        assert_eq!(v.as_str(), Some("aé😀\n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "\"unterminated", "{} trailing", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn integer_widening_and_saturation() {
        assert_eq!(Json::from(u64::MAX).to_json(), i64::MAX.to_string());
        assert_eq!(Json::parse("9007199254740993").unwrap().as_i64(), Some(9007199254740993));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }
}
