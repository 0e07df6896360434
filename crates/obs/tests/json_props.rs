//! `Json::parse` against a frozen copy of the recursive-descent parser it
//! replaced: on generated documents, and on the same documents truncated,
//! byte-flipped or with junk inserted, both must return an equal `Json`
//! or an equal `ParseError { offset, message }`.
//!
//! The case count honours `PROPTEST_CASES` (64 by default).

use corroborate_obs::{Json, ParseError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The recursive-descent parser `Json::parse` was before it was rebuilt
/// on the pull reader, kept verbatim as the reference.
mod oracle {
    use corroborate_obs::{Json, ParseError};

    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, message: impl Into<String>) -> ParseError {
            ParseError { offset: self.pos, message: message.into() }
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected '{}'", b as char)))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(format!("expected '{word}'")))
            }
        }

        fn value(&mut self) -> Result<Json, ParseError> {
            match self.peek() {
                Some(b'n') => self.literal("null", Json::Null),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => self.array(),
                Some(b'{') => self.object(),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(other) => Err(self.err(format!("unexpected byte '{}'", other as char))),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn array(&mut self) -> Result<Json, ParseError> {
            self.expect(b'[')?;
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
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, ParseError> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                                    if self.peek() == Some(b'\\') {
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
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid \\u escape"))?,
                                );
                            }
                            other => {
                                return Err(
                                    self.err(format!("invalid escape '\\{}'", other as char))
                                )
                            }
                        }
                    }
                    Some(_) => return Err(self.err("unescaped control character in string")),
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            let slice = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
            self.pos += 4;
            Ok(v)
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            let mut float = false;
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        float = true;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("invalid number"))?;
            if !float {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            }
            text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
        }
    }
}

/// Whitespace between tokens: usually none, sometimes a mix.
fn ws(rng: &mut StdRng, out: &mut String) {
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1..4) {
            out.push([' ', '\t', '\n', '\r'][rng.gen_range(0..4)]);
        }
    }
}

/// A string literal with plain text, every escape form, `\u` escapes in
/// and beyond the BMP (surrogate pairs, upper- and lower-case hex), and
/// now and then a malformed escape.
fn string(rng: &mut StdRng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.gen_range(0..6) {
        match rng.gen_range(0..14) {
            0..=4 => {
                out.push_str(["a", "key", "é", "😀", " x ", "source", "名"][rng.gen_range(0..7)])
            }
            5 => out.push_str(
                ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"][rng.gen_range(0..8)],
            ),
            6 => out.push_str(&format!("\\u{:04x}", rng.gen_range(0u32..0xD800))),
            7 => out.push_str(&format!("\\u{:04X}", rng.gen_range(0xE000u32..0x10000))),
            8 | 9 => {
                let code = rng.gen_range(0x10000u32..0x110000) - 0x10000;
                let (hi, lo) = (0xD800 + (code >> 10), 0xDC00 + (code & 0x3FF));
                if rng.gen_bool(0.5) {
                    out.push_str(&format!("\\u{hi:04x}\\u{lo:04x}"));
                } else {
                    out.push_str(&format!("\\u{hi:04X}\\u{lo:04X}"));
                }
            }
            10 => out.push_str("\\ud83d\\ude00"),
            11 => out.push_str(
                [
                    "\\ud83d",
                    "\\ud83dx",
                    "\\ud83d\\u0041",
                    "\\ude00",
                    "\\u12",
                    "\\uzzzz",
                    "\\u+0a1",
                    "\\q",
                    "\\é",
                    "\\",
                ][rng.gen_range(0..10)],
            ),
            12 => out.push(['\u{1}', '\n', '\u{1f}'][rng.gen_range(0..3)]),
            _ => out.push_str("plain"),
        }
    }
    out.push('"');
}

fn number(rng: &mut StdRng, out: &mut String) {
    let text = match rng.gen_range(0..12) {
        0 => "0".to_string(),
        1 => "-0".to_string(),
        2 => (rng.next_u64() as i64).to_string(),
        3 => i64::MIN.to_string(),
        4 => "99999999999999999999".to_string(),
        5 => format!("{}.{}", rng.gen_range(0..1000), rng.gen_range(0..1000)),
        6 => format!("-{}e{}", rng.gen_range(1..100), rng.gen_range(-20..20)),
        7 => "1E+3".to_string(),
        8 => "1e999".to_string(),
        9 => "007".to_string(),
        10 => ["1-2", "-", "1e", "1.2.3", "--1", "2e+-1"][rng.gen_range(0..6)].to_string(),
        _ => rng.gen_range(0..100).to_string(),
    };
    out.push_str(&text);
}

fn value(rng: &mut StdRng, depth: u32, out: &mut String) {
    let kinds = if depth >= 4 { 6 } else { 9 };
    match rng.gen_range(0..kinds) {
        0 => out.push_str(["null", "true", "false"][rng.gen_range(0..3)]),
        1 | 2 => number(rng, out),
        3..=5 => string(rng, out),
        6 => {
            out.push('[');
            ws(rng, out);
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                    ws(rng, out);
                }
                value(rng, depth + 1, out);
                ws(rng, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            ws(rng, out);
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                    ws(rng, out);
                }
                // A duplicate key now and then: the first one must win.
                if rng.gen_bool(0.3) {
                    out.push_str("\"dup\"");
                } else {
                    string(rng, out);
                }
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                value(rng, depth + 1, out);
                ws(rng, out);
            }
            out.push('}');
        }
    }
}

/// One document, then variants of it: truncated, a byte replaced, junk
/// inserted (each at a random byte; invalid UTF-8 is replaced lossily,
/// as only `&str` reaches the parser).
fn documents(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doc = String::new();
    ws(&mut rng, &mut doc);
    value(&mut rng, 0, &mut doc);
    ws(&mut rng, &mut doc);
    let bytes = doc.as_bytes().to_vec();
    let mut out = vec![doc];
    for _ in 0..4 {
        let at = rng.gen_range(0..=bytes.len());
        let mut b = bytes.clone();
        match rng.gen_range(0..3) {
            0 => b.truncate(at),
            1 if at < b.len() => b[at] = b"\"\\{}[],:0a \n\x01\xc3e-."[rng.gen_range(0..17)],
            _ => {
                let junk = [&b"x"[..], b",", b"}", b"]", b"\"", b"{\"k\":", b"[1,", b"\\u"];
                b.splice(at..at, junk[rng.gen_range(0..junk.len())].iter().copied());
            }
        }
        out.push(String::from_utf8_lossy(&b).into_owned());
    }
    out
}

fn assert_same(text: &str) -> Result<(), TestCaseError> {
    let got: Result<Json, ParseError> = Json::parse(text);
    let want = oracle::parse(text);
    prop_assert_eq!(got, want, "document {:?}", text);
    Ok(())
}

proptest! {
    #[test]
    fn json_parse_matches_the_recursive_oracle(seed in any::<u64>()) {
        for text in documents(seed) {
            assert_same(&text)?;
        }
    }
}

#[test]
fn json_parse_matches_the_oracle_on_hand_picked_documents() {
    for text in [
        "",
        " ",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{,}",
        "[,1]",
        "01x",
        "\"unterminated",
        "{} trailing",
        "nul",
        "\"\\ud83d\\ude00\"",
        "\"\\uD83D\\uDE00\"",
        "\"\\ud83d\"",
        "\"\\ud83d\\n\"",
        "\"\\ude00\"",
        "\"\\u+041\"",
        "\"\\u00é\"",
        "\"a\\",
        "\"\u{1}\"",
        "[[[[]]]]",
        "{\"k\":{\"k\":[{}]}}",
        "{\"a\":1,\"a\":2}",
        "-",
        "1e999",
        "-1.5e-3",
        "9223372036854775808",
        "ü",
    ] {
        assert_same(text).unwrap();
    }
}
