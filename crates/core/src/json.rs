//! The workspace's one JSON reader and writer.
//!
//! Integers are `u64` end to end, so checkpoint records round-trip
//! `u64::MAX` sentinels bit-exactly; a float never stands in for one.
//! Numbers with a sign, a fraction or an exponent (the Chrome trace
//! exports' `ts`, the bench report's percentages) keep their source
//! text, so a read-and-rewrite never changes their digits.
//!
//! There is one writer and one lexer, used two ways:
//!
//! * **Streaming.** [`JsonWriter`] appends values straight into one
//!   buffer, and [`JsonCursor`] reads them back value by value from the
//!   canonical text the writer emits: no whitespace, keys in the order
//!   the caller names them, and unsigned integers only. The snapshot
//!   codec for run reports uses this pair, so a multi-megabyte report
//!   never becomes a tree.
//! * **Tree.** [`JsonValue`] holds a whole document, for small documents
//!   (repro specs, `analytics.json`, manifest lines, the artifact
//!   validators) and for callers that already hold a tree. Its `Display`
//!   renders through [`JsonWriter`], and [`JsonValue::parse`] runs on
//!   [`JsonCursor`]'s lexer, tolerating whitespace.
//!
//! Binary data travels as a base64 string (RFC 4648 §4: the standard
//! alphabet, `=`-padded): [`JsonWriter::base64`] writes it and
//! [`JsonCursor::base64`] reads back only that canonical spelling.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON document (anything but `null`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, held exactly.
    U64(u64),
    /// Any other number (one with a sign, a fraction or an exponent),
    /// as its source text.
    Num(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Any number, as the nearest `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(n) => Some(*n as f64),
            JsonValue::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document; trailing garbage is an error.
    ///
    /// A plain integer must fit in `u64`; every other number must
    /// follow the JSON number grammar.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut cursor = JsonCursor::new(text);
        let value = cursor.parse_value()?;
        cursor.skip_ws();
        cursor.finish()?;
        Ok(value)
    }

    /// Renders this value through `w`; `Display` is this, buffered.
    fn write(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::U64(n) => w.u64(*n),
            JsonValue::Num(text) => w.raw(text),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Arr(items) => {
                w.begin_arr();
                for item in items {
                    item.write(w);
                }
                w.end_arr();
            }
            JsonValue::Obj(pairs) => {
                w.begin_obj();
                for (key, value) in pairs {
                    w.key(key);
                    value.write(w);
                }
                w.end_obj();
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::default();
        self.write(&mut w);
        f.write_str(&w.finish())
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        // `n % 100` is below 100, so the cast cannot truncate.
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        i -= 2;
        buf[i] = DIGIT_PAIRS[pair];
        buf[i + 1] = DIGIT_PAIRS[pair + 1];
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        i -= 2;
        buf[i] = DIGIT_PAIRS[pair];
        buf[i + 1] = DIGIT_PAIRS[pair + 1];
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// `"00"`, `"01"`, …, `"99"`, concatenated.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, as are
/// control characters (`\n`, `\t`, `\r`, else `\u00xx`); everything
/// else, non-ASCII included, is copied as is.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            b'\r' => b"\\r",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if escape.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(escape);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// The base64 alphabet, by 6-bit value.
const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The 6-bit value of each alphabet byte; `0xff` for any other byte.
const BASE64_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 64 {
        table[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends `bytes` in base64, padded with `=` to a multiple of four.
fn push_base64(out: &mut Vec<u8>, bytes: &[u8]) {
    out.reserve(bytes.len().div_ceil(3) * 4);
    let sextet = |n: u32, shift: u32| BASE64[(n >> shift & 0x3f) as usize];
    let mut chunks = bytes.chunks_exact(3);
    for c in &mut chunks {
        let n = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    match *chunks.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), b'=', b'=']);
        }
        [a, b] => {
            let n = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), b'=']);
        }
        _ => {}
    }
}

/// Decodes [`push_base64`] output. Only its spelling is accepted: the
/// length a multiple of four, `=` only as one or two final padding
/// bytes, and zero in the bits the padding leaves unused, so each byte
/// string has exactly one encoding.
fn decode_base64(text: &[u8]) -> Result<Vec<u8>, &'static str> {
    if !text.len().is_multiple_of(4) {
        return Err("base64 length is not a multiple of 4");
    }
    let pad = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&b| b == b'=')
        .count();
    let mut out = Vec::with_capacity(text.len() / 4 * 3 - pad);
    let sextet = |b: u8| match BASE64_VALUE[usize::from(b)] {
        0xff => Err("not a base64 string"),
        v => Ok(u32::from(v)),
    };
    let mut quads = text.chunks_exact(4);
    let last = if pad > 0 { quads.next_back() } else { None };
    for q in quads {
        let n = sextet(q[0])? << 18 | sextet(q[1])? << 12 | sextet(q[2])? << 6 | sextet(q[3])?;
        out.extend_from_slice(&n.to_be_bytes()[1..]);
    }
    if let Some(q) = last {
        let (a, b) = (sextet(q[0])?, sextet(q[1])?);
        if pad == 2 {
            if b & 0xf != 0 {
                return Err("base64 padding bits are not zero");
            }
            out.push((a << 2 | b >> 4) as u8);
        } else {
            let c = sextet(q[2])?;
            if c & 0x3 != 0 {
                return Err("base64 padding bits are not zero");
            }
            let n = a << 10 | b << 4 | c >> 2;
            out.extend_from_slice(&n.to_be_bytes()[2..]);
        }
    }
    Ok(out)
}

/// A streaming JSON writer: appends straight into one buffer, placing
/// the `,` separators itself. Its output is byte-identical to
/// `JsonValue`'s `Display` for the same sequence of values.
///
/// The buffer holds bytes and is checked as UTF-8 once, in
/// [`JsonWriter::finish`]: everything appended is either a `&str` or
/// ASCII, so the check cannot fail.
#[derive(Debug)]
pub struct JsonWriter {
    out: Vec<u8>,
    /// No value yet in the innermost open array or object (or just after
    /// a key), so the next value takes no `,`.
    first: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter::append_to(String::new())
    }
}

impl JsonWriter {
    /// A writer that appends one document to `out`; text already in
    /// `out` is not part of the document.
    #[must_use]
    pub fn append_to(out: String) -> Self {
        JsonWriter {
            out: out.into_bytes(),
            first: true,
        }
    }

    /// The buffer, with the document appended.
    #[must_use]
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push(b'{');
        self.first = true;
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.out.push(b'}');
        self.first = false;
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push(b'[');
        self.first = true;
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.out.push(b']');
        self.first = false;
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) {
        self.sep();
        push_escaped(&mut self.out, key);
        self.out.push(b':');
        self.first = true;
    }

    /// Writes an integer.
    pub fn u64(&mut self, n: u64) {
        self.sep();
        push_u64(&mut self.out, n);
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.sep();
        push_escaped(&mut self.out, s);
    }

    /// Writes `bytes` as a base64 string (see the module docs).
    pub fn base64(&mut self, bytes: &[u8]) {
        self.sep();
        self.out.push(b'"');
        push_base64(&mut self.out, bytes);
        self.out.push(b'"');
    }

    /// Writes `text`, already valid JSON, as it is.
    fn raw(&mut self, text: &str) {
        self.sep();
        self.out.extend_from_slice(text.as_bytes());
    }
}

/// A byte cursor over one JSON document.
///
/// It backs two readers. [`JsonValue::parse`] builds a tree from any
/// whitespace-tolerant document. The streaming methods (`begin_obj`,
/// `key`, `u64`, …) instead read the canonical text [`JsonWriter`]
/// emits, value by value, in the order the caller expects: no
/// whitespace, and each `,` checked where the writer would have placed
/// it. Both share one string lexer and one checked `u64` lexer.
///
/// Every reading method fails, with a message naming the byte offset,
/// when the next bytes are not the value it reads.
#[derive(Debug)]
pub struct JsonCursor<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// As in [`JsonWriter`]: the next value expects no `,`.
    first: bool,
}

impl<'a> JsonCursor<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        JsonCursor {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            first: true,
        }
    }

    /// A message naming the current byte offset.
    #[must_use]
    pub(crate) fn error(&self, message: &str) -> String {
        format!("json byte {}: {}", self.pos, message)
    }

    /// The next byte, not consumed. Right after a key or an opening
    /// bracket this is the first byte of the next value.
    #[must_use]
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", want as char)))
        }
    }

    fn sep(&mut self) -> Result<(), String> {
        if self.first {
            self.first = false;
            Ok(())
        } else {
            self.expect(b',')
        }
    }

    /// Fails unless the whole document has been read.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing data after document"))
        }
    }

    /// Reads `{`.
    pub fn begin_obj(&mut self) -> Result<(), String> {
        self.sep()?;
        self.expect(b'{')?;
        self.first = true;
        Ok(())
    }

    /// Reads `}`.
    pub fn end_obj(&mut self) -> Result<(), String> {
        self.expect(b'}')?;
        self.first = false;
        Ok(())
    }

    /// Reads `[`.
    pub fn begin_arr(&mut self) -> Result<(), String> {
        self.sep()?;
        self.expect(b'[')?;
        self.first = true;
        Ok(())
    }

    /// Reads `]`.
    pub fn end_arr(&mut self) -> Result<(), String> {
        self.expect(b']')?;
        self.first = false;
        Ok(())
    }

    /// Whether the innermost array ends here (`]` is next).
    #[must_use]
    pub(crate) fn at_arr_end(&self) -> bool {
        self.peek() == Some(b']')
    }

    /// Reads the key `"name":` if it comes next, and reports whether it
    /// did. `name` must need no escaping.
    pub(crate) fn try_key(&mut self, name: &str) -> bool {
        let rest = &self.bytes[self.pos..];
        let rest = if self.first {
            Some(rest)
        } else {
            rest.strip_prefix(b",")
        };
        let after = rest
            .and_then(|r| r.strip_prefix(b"\""))
            .and_then(|r| r.strip_prefix(name.as_bytes()))
            .and_then(|r| r.strip_prefix(b"\":"));
        if let Some(after) = after {
            self.pos = self.bytes.len() - after.len();
            self.first = true;
        }
        after.is_some()
    }

    /// Reads the key `"name":`, which must come next.
    pub fn key(&mut self, name: &str) -> Result<(), String> {
        if self.try_key(name) {
            Ok(())
        } else {
            Err(self.error(&format!("expected key `{name}`")))
        }
    }

    /// Reads an unsigned integer.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.sep()?;
        self.lex_u64()
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.sep()?;
        for (lit, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(value);
            }
        }
        Err(self.error("expected a boolean"))
    }

    /// Reads a string, borrowed from the document unless it holds
    /// escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.sep()?;
        self.lex_str()
    }

    /// Reads a string [`JsonWriter::base64`] wrote and decodes it. Any
    /// other spelling of the bytes, an escape included, is an error.
    pub fn base64(&mut self) -> Result<Vec<u8>, String> {
        self.sep()?;
        self.expect(b'"')?;
        let text = &self.bytes[self.pos..];
        let Some(len) = text.iter().position(|&b| b == b'"') else {
            return Err(self.error("unterminated string"));
        };
        let bytes = decode_base64(&text[..len]).map_err(|why| self.error(why))?;
        self.pos += len + 1;
        Ok(bytes)
    }

    fn lex_u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let digits = self.bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += digits;
        if digits == 0 {
            return Err(self.error("expected an integer"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(self.error("only unsigned integers are supported"));
        }
        let raw = &self.bytes[start..self.pos];
        let digit = |d: &u8| u64::from(d - b'0');
        // Nineteen decimal digits always fit in a u64.
        if digits <= 19 {
            return Ok(raw.iter().fold(0, |n, d| n * 10 + digit(d)));
        }
        raw.iter()
            .try_fold(0u64, |n, d| n.checked_mul(10)?.checked_add(digit(d)))
            .ok_or_else(|| {
                let raw = &self.text[start..self.pos];
                self.error(&format!("integer out of range `{raw}`"))
            })
    }

    fn lex_str(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte.
            // Each of those is ASCII, so the run is whole chars.
            let run = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') if out.is_empty() && run == start => {
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos - 1]);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos - 1]);
                    self.lex_escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control byte in string")),
            }
        }
    }

    fn lex_escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.bump() {
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
                    .text
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
                self.pos += 4;
                // The writer never emits surrogate pairs.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(self.error("bad escape")),
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // The tree reader behind `JsonValue::parse`
    // -----------------------------------------------------------------

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.lex_str()?.into_owned())),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(&format!("unexpected byte `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads a number: a plain one through the `u64` lexer, any other
    /// as its text, checked against the JSON number grammar.
    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let int = self.skip_digits();
        if int == 0 || (int > 1 && self.bytes[self.pos - int] == b'0') {
            return Err(self.error("malformed number"));
        }
        let mut plain = !negative;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            plain = false;
            if self.skip_digits() == 0 {
                return Err(self.error("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            plain = false;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            if self.skip_digits() == 0 {
                return Err(self.error("malformed number"));
            }
        }
        if plain {
            self.pos = start;
            return self.lex_u64().map(JsonValue::U64);
        }
        Ok(JsonValue::Num(self.text[start..self.pos].to_owned()))
    }

    /// Steps over a run of ASCII digits and returns its length.
    fn skip_digits(&mut self) -> usize {
        let digits = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += digits;
        digits
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.lex_str()?.into_owned();
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.error("expected `:` in object"));
            }
            pairs.push((key, self.parse_value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(JsonValue::Obj(pairs)),
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_shape() {
        let doc = JsonValue::Obj(vec![
            ("max".to_owned(), JsonValue::U64(u64::MAX)),
            ("zero".to_owned(), JsonValue::U64(0)),
            ("flag".to_owned(), JsonValue::Bool(true)),
            (
                "text".to_owned(),
                JsonValue::Str("quote \" slash \\ nl \n tab \t café — ok".to_owned()),
            ),
            ("neg".to_owned(), JsonValue::Num("-2.5".to_owned())),
            ("exp".to_owned(), JsonValue::Num("6.02E+23".to_owned())),
            (
                "arr".to_owned(),
                JsonValue::Arr(vec![JsonValue::U64(1), JsonValue::Obj(vec![])]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn u64_max_survives_exactly() {
        let text = JsonValue::U64(u64::MAX).to_string();
        assert_eq!(text, u64::MAX.to_string());
        assert_eq!(JsonValue::parse(&text).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_floats_negatives_null_and_garbage() {
        for float in ["1.5", "-3", "1e3"] {
            assert_eq!(JsonValue::parse(float).unwrap().as_u64(), None, "{float}");
        }
        assert!(JsonValue::parse("null").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("12 3").is_err());
        assert!(JsonValue::parse("18446744073709551616").is_err()); // u64::MAX + 1
        for bad in [
            "-", "01", "-01", "1.", ".5", "1e", "1e+", "+1", "--1", "1.5.5",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn other_numbers_keep_their_text() {
        let doc = JsonValue::parse(r#"[0.00, 210.5, -2.5, 1e3, -0]"#).unwrap();
        assert_eq!(doc.to_string(), "[0.00,210.5,-2.5,1e3,-0]");
        let nums: Vec<Option<f64>> = doc
            .as_arr()
            .unwrap()
            .iter()
            .map(JsonValue::as_f64)
            .collect();
        assert_eq!(
            nums,
            [Some(0.0), Some(210.5), Some(-2.5), Some(1000.0), Some(-0.0)]
        );
        assert_eq!(JsonValue::U64(7).as_f64(), Some(7.0));
        assert_eq!(JsonValue::Bool(true).as_f64(), None);
        // The streaming reader stays unsigned-integer only.
        assert!(JsonCursor::new("1.5").u64().is_err());
        assert!(JsonCursor::new("-3").u64().is_err());
    }

    #[test]
    fn control_chars_escape_and_decode() {
        let doc = JsonValue::Str("\u{1} bell \u{7}".to_owned());
        let text = doc.to_string();
        assert!(text.contains("\\u0001"));
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = JsonValue::parse(r#"{"a":7,"b":"x","c":[true]}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("c").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert!(doc.get("missing").is_none());
    }

    /// `bytes` written by [`JsonWriter::base64`], as a whole document.
    fn base64_doc(bytes: &[u8]) -> String {
        let mut w = JsonWriter::default();
        w.base64(bytes);
        w.finish()
    }

    fn read_base64(doc: &str) -> Result<Vec<u8>, String> {
        let mut p = JsonCursor::new(doc);
        let bytes = p.base64()?;
        p.finish()?;
        Ok(bytes)
    }

    #[test]
    fn base64_matches_the_rfc_4648_vectors() {
        // RFC 4648 §10.
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            let doc = format!("\"{encoded}\"");
            assert_eq!(base64_doc(plain.as_bytes()), doc);
            assert_eq!(read_base64(&doc).unwrap(), plain.as_bytes(), "{encoded}");
        }
    }

    #[test]
    fn base64_round_trips_every_byte_at_every_remainder() {
        let bytes: Vec<u8> = (0..=255u8).chain((0..=255u8).rev()).collect();
        for len in 0..bytes.len() {
            let doc = base64_doc(&bytes[..len]);
            assert_eq!(doc.len(), 2 + len.div_ceil(3) * 4);
            assert_eq!(read_base64(&doc).unwrap(), &bytes[..len]);
        }
    }

    #[test]
    fn base64_rejects_foreign_bytes_and_bad_padding() {
        for doc in [
            // Outside the standard alphabet: URL-safe, space, escapes.
            "\"Zm9-\"",
            "\"Zm9_\"",
            "\"Zm9 \"",
            "\"Zm\\/v\"",
            "\"Zm9\\u0076\"",
            "\"Zm9vé===\"",
            // Padding missing, short, long, misplaced or mid-string.
            "\"Zg\"",
            "\"Zg=\"",
            "\"Z===\"",
            "\"====\"",
            "\"Zg==Zm8=\"",
            "\"=Zg=\"",
            "\"Zm=v\"",
            // Nonzero bits under the padding: other spellings of "f", "fo".
            "\"Zh==\"",
            "\"Zm9=\"",
            // Not a string, or not a whole one.
            "Zm9v",
            "\"Zm9v",
        ] {
            assert!(read_base64(doc).is_err(), "accepted {doc}");
        }
    }
}
