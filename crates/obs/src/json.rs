//! Minimal hand-rolled JSON support shared across the observability layer.
//!
//! Two halves, both dependency-free by design (this crate may depend only
//! on `blap-types`):
//!
//! * **Escaping** — the single escaper used by every renderer (trace JSONL
//!   and metrics JSON), so a hostile label cannot break artifact syntax in
//!   one renderer while surviving the other.
//! * **Parsing** — a small recursive-descent reader used by the analyzer
//!   and the artifact differ to load artifacts back in. Numbers are kept
//!   as their literal source text ([`Value::Num`]) so comparing two
//!   artifacts is exact: no float round-trip, no locale, no 2^53 cliff.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Escapes a string into `out` for embedding in a JSON string literal.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Escapes a string for a JSON string literal, borrowing when the input
/// needs no changes (the overwhelmingly common case for metric keys).
pub fn escape(s: &str) -> Cow<'_, str> {
    if s.chars()
        .all(|c| c != '"' && c != '\\' && (c as u32) >= 0x20)
    {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 4);
    escape_into(s, &mut out);
    Cow::Owned(out)
}

/// A parsed JSON value.
///
/// Object member order is preserved (`Vec`, not a map) so reports can cite
/// artifacts in their on-disk order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal source text for exact comparison.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: byte offset into the input plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets one hostile line overflow
/// the stack; every artifact the tools write nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing whitespace is allowed,
/// trailing garbage and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
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
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own artifacts;
                            // map unpaired ones to U+FFFD rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 char (input is &str, so boundaries
                    // are valid; find the next boundary).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        Ok(Value::Num(text.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_clean_strings() {
        assert!(matches!(escape("pages_started"), Cow::Borrowed(_)));
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("tab\there"), "tab\\there");
    }

    #[test]
    fn parse_round_trips_trace_line_shape() {
        let v =
            parse(r#"{"t":1250,"dev":2,"ev":"lmp_send","peer":"cc:cc:cc:cc:cc:cc","raced":false}"#)
                .expect("parses");
        assert_eq!(v.get("t").and_then(Value::as_u64), Some(1250));
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("lmp_send"));
        assert_eq!(v.get("raced").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_preserves_number_literals() {
        let v = parse("[0, 18446744073709551615, -3]").expect("parses");
        let Value::Array(items) = v else { panic!() };
        assert_eq!(items[1], Value::Num("18446744073709551615".to_owned()));
        assert_eq!(items[1].as_u64(), Some(u64::MAX));
        assert_eq!(items[2].as_u64(), None, "negative is not a u64");
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escaped_strings_reparse_to_the_original() {
        let hostile = "label\" with \\ hostile\n\tbytes\u{1}";
        let mut doc = String::from("\"");
        escape_into(hostile, &mut doc);
        doc.push('"');
        assert_eq!(parse(&doc).expect("parses").as_str(), Some(hostile));
    }
}
