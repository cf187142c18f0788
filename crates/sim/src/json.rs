//! Minimal JSON tree, writer and parser.
//!
//! The workspace has no serialization dependency. Small documents (the
//! stats report, a scenario summary, the benchmark's result line) are built
//! as a [`Json`] value and printed; the per-record exporters, whose output
//! runs to megabytes, stream through the crate's `ObjectWriter` instead
//! and never hold a tree. Both print strings and numbers through the same
//! three writers. The parser exists so tests can round-trip what was
//! written; it accepts standard JSON (no comments, no trailing commas).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer that fits u64 exactly (kept exact for counters and
    /// timestamps).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64 (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the guard admits only whole values inside u64's range"
            )]
            Json::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(f) => Some(*f),
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

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Writes `s` as a JSON string literal — quoted, with quotes, backslashes
/// and control characters escaped — straight into `out`. The one escaper:
/// [`Json`]'s `Display` and the streaming exporters both print strings
/// (and object keys) through it.
pub(crate) fn write_string<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Everything escaped is ASCII, so the stretches between escapes are
    // whole characters and go out as they are.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        plain = i + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

/// Writes an exact integer in decimal, digit by digit: the exporters print
/// half a dozen integers per record, `write!("{n}")` sets up a formatter
/// for each, and a push per digit beats a block copy at these lengths.
pub(crate) fn write_u64<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    // u64::MAX has 20 digits.
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[at..]
        .iter()
        .try_for_each(|&d| out.write_char(char::from(d)))
}

/// Writes a number the way [`Json::F64`] prints: integral values keep one
/// decimal (`3.0`) so they stay floats on the way back in, everything else
/// takes Rust's shortest round-trip form, and non-finite values are `null`.
pub(crate) fn write_f64<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        out.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    }
}

/// Streams one JSON object into a [`fmt::Write`], member by member, with
/// no tree behind it — what the per-record exporters use, and what
/// [`Json`]'s own `Display` prints objects through, so the two cannot
/// drift.
#[derive(Debug)]
pub(crate) struct ObjectWriter<'a, W: fmt::Write> {
    out: &'a mut W,
    any: bool,
}

impl<'a, W: fmt::Write> ObjectWriter<'a, W> {
    /// Opens the object.
    pub(crate) fn begin(out: &'a mut W) -> Result<ObjectWriter<'a, W>, fmt::Error> {
        out.write_char('{')?;
        Ok(ObjectWriter { out, any: false })
    }

    /// Writes `"key":` (after a comma, from the second member on) and
    /// hands back the sink for the value.
    pub(crate) fn key(&mut self, key: &str) -> Result<&mut W, fmt::Error> {
        if self.any {
            self.out.write_char(',')?;
        }
        self.any = true;
        write_string(self.out, key)?;
        self.out.write_char(':')?;
        Ok(self.out)
    }

    /// An exact integer member.
    pub(crate) fn u64(&mut self, key: &str, value: u64) -> fmt::Result {
        write_u64(self.key(key)?, value)
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &str, value: &str) -> fmt::Result {
        write_string(self.key(key)?, value)
    }

    /// Opens a nested object member; close it before writing on.
    pub(crate) fn object(&mut self, key: &str) -> Result<ObjectWriter<'_, W>, fmt::Error> {
        ObjectWriter::begin(self.key(key)?)
    }

    /// Closes the object.
    pub(crate) fn end(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write_u64(f, *n),
            Json::F64(x) => write_f64(f, *x),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                let mut object = ObjectWriter::begin(f)?;
                for (k, v) in pairs {
                    write!(object.key(k)?, "{v}")?;
                }
                object.end()
            }
        }
    }
}

/// Parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u hex"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u hex"))?;
                            // Surrogate pairs are not needed by our own
                            // exports; map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos = end;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Re-decode the multi-byte char from the source.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_parser_round_trip() {
        let doc = Json::obj([
            ("name", Json::from("gc \"pass\"\n")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.125f64)),
            ("flag", Json::Bool(true)),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::Null, Json::from("x")]),
            ),
        ]);
        let text = doc.to_string();
        let back = parse(&text).expect("round trip");
        assert_eq!(back, doc);
    }

    /// The printed bytes themselves, spelled out: `Display` and the
    /// streaming exporters share `write_string` / `write_f64`, so a test
    /// that compares one with the other cannot see both move.
    #[test]
    fn strings_and_numbers_print_the_documented_bytes() {
        let hostile = Json::from("a\"b\\c\n\r\t\u{1}\u{1f} é/");
        assert_eq!(hostile.to_string(), r#""a\"b\\c\n\r\t\u0001\u001f é/""#);
        for (x, text) in [
            (0.0, "0.0"),
            (1.0, "1.0"),
            (-3.0, "-3.0"),
            (0.5, "0.5"),
            (6750.788, "6750.788"),
            (999_999_999_999_999.0, "999999999999999.0"),
            (1e15, "1000000000000000"),
            (1e21, "1000000000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Json::F64(x).to_string(), text, "{x:e}");
        }
        let doc = Json::obj([("k\"", Json::Arr(vec![Json::U64(u64::MAX), Json::Null]))]);
        assert_eq!(doc.to_string(), r#"{"k\"":[18446744073709551615,null]}"#);
        assert_eq!(Json::obj([]).to_string(), "{}");
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ").unwrap();
        let items = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn large_integers_stay_exact() {
        let n = u64::MAX - 3;
        let v = parse(&Json::U64(n).to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("{} extra").is_err());
    }
}
