//! Minimal JSON value model, parser and writer.
//!
//! The workspace writes experiment reports and traces as JSON and reads
//! them back, but builds in environments with no access to crates.io, so
//! this module supplies the small self-contained subset of serde_json the
//! repo needs: a [`Json`] value type, [`Json::parse`], compact and pretty
//! writers, indexing, and a [`ToJson`] conversion trait with an
//! [`impl_to_json!`](crate::impl_to_json) helper macro for flat structs.
//! Hot record formats (JSONL traces) skip the tree but not the grammar or
//! the number format: they read through the same pull [`Lexer`] that
//! [`Json::parse`] uses and print numbers with [`write_int`] and
//! [`write_f64`].
//!
//! Numbers distinguish integers from floats so integer counters
//! round-trip exactly; floats are printed with Rust's shortest
//! round-trip formatting, which keeps reports byte-identical across runs
//! of the same seed.
//!
//! # Example
//!
//! ```
//! use simcore::json::{Json, ToJson};
//!
//! let v = Json::parse(r#"{"rate": 2.5, "frames": [1, 2]}"#).unwrap();
//! assert_eq!(v["rate"].as_f64(), Some(2.5));
//! assert_eq!(v["frames"][1].as_u64(), Some(2));
//! assert_eq!(vec![1u64, 2].to_json().dump(), "[1,2]");
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (no fractional part or exponent in the source).
    Int(i64),
    /// A floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse error with byte offset context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

static NULL: Json = Json::Null;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// `true` for `Json::Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut lexer = Lexer::new(text);
        let value = lexer.value()?;
        lexer.end()?;
        Ok(value)
    }

    /// Compact single-line serialization.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed serialization with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => write_int(out, *i),
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, pairs.len(), '{', '}', |out, i| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Appends an integer exactly as [`Json::Int`] serializes it.
pub fn write_int(out: &mut String, i: i64) {
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "{i}");
}

/// Appends a float exactly as [`Json::Num`] serializes it: Rust's
/// shortest round-trip form, with `.0` added to integral values so they
/// re-parse as floats, and `null` for NaN and the infinities.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let start = out.len();
        let _ = write!(out, "{x}");
        // Keep floats recognizable as floats on re-parse.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; follow serde_json's lossy convention.
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

fn err(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.into(),
        offset,
    }
}

/// One lexical step of a JSON value, as [`Lexer::token`] reads it.
///
/// Scalars arrive whole; strings borrow from the input unless they hold
/// escapes. An array or object arrives as its opening bracket only: the
/// caller walks an object's members with [`Lexer::next_key`], or passes
/// the token to [`Lexer::skip_rest`].
#[derive(Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent that fits an `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// The `[` opening an array.
    ArrayStart,
    /// The `{` opening an object.
    ObjectStart,
}

impl Token<'_> {
    /// The token as an `f64` (integers widen), as [`Json::as_f64`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Int(i) => Some(*i as f64),
            Token::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The token as a `u64`, as [`Json::as_u64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Token::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The token as a bool, as [`Json::as_bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Token::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The token as a string slice, as [`Json::as_str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The JSON grammar, as a pull lexer over one document.
///
/// [`Json::parse`] builds its tree from these calls, and streaming
/// decoders (the JSONL trace reader) use the same calls to read flat
/// records without building one, so both accept exactly one language.
/// Errors carry the same messages and byte offsets either way.
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Lexer<'a> {
        Lexer { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(err(&format!("expected `{lit}`"), self.pos))
        }
    }

    /// Reads the next value's first token, skipping leading whitespace.
    ///
    /// # Errors
    ///
    /// Malformed or missing input.
    pub fn token(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(err("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null").map(|()| Token::Null),
            Some(b't') => self.literal("true").map(|()| Token::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Token::Bool(false)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::ArrayStart)
            }
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::ObjectStart)
            }
            Some(_) => self.number(),
        }
    }

    /// Inside an array: `true` when another item follows (read it with
    /// [`Lexer::token`]), `false` after consuming the closing `]`.
    /// `first` says whether this is the call right after the `[`.
    fn next_item(&mut self, first: bool) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(err("expected `,` or `]`", self.pos)),
        }
    }

    /// Inside an object: the next member's key, with its `:` consumed
    /// (read the value with [`Lexer::token`]), or `None` after consuming
    /// the closing `}`. `first` says whether this is the call right
    /// after the `{`.
    ///
    /// # Errors
    ///
    /// A missing `,`, `}`, key or `:`.
    pub fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(err("expected `,` or `}`", self.pos)),
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(err("expected `:`", self.pos));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Consumes the rest of a value whose first token was `token`: the
    /// contents and closing bracket of an array or object, checked but
    /// not kept. A no-op for scalars.
    ///
    /// # Errors
    ///
    /// Malformed contents.
    pub fn skip_rest(&mut self, token: &Token<'_>) -> Result<(), JsonError> {
        match token {
            Token::ArrayStart => {
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    let item = self.token()?;
                    self.skip_rest(&item)?;
                }
            }
            Token::ObjectStart => {
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    let value = self.token()?;
                    self.skip_rest(&value)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads one whole value as a [`Json`] tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.token()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Int(i) => Json::Int(i),
            Token::Num(x) => Json::Num(x),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::ArrayStart => {
                let mut items = Vec::new();
                while self.next_item(items.is_empty())? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Token::ObjectStart => {
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(pairs.is_empty())? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Json::Obj(pairs)
            }
        })
    }

    /// Checks that only whitespace remains.
    ///
    /// # Errors
    ///
    /// Trailing characters after the value.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(err("trailing characters after value", self.pos))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(err("expected string", self.pos));
        }
        self.pos += 1;
        let (text, bytes) = (self.text, self.bytes());
        let start = self.pos;
        let run = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|n| from + n)
        };
        // Borrow when the string has no escapes: the common case.
        let mut at = run(start).ok_or_else(|| err("unterminated string", text.len()))?;
        if bytes[at] == b'"' {
            self.pos = at + 1;
            return Ok(Cow::Borrowed(&text[start..at]));
        }
        let mut out = String::from(&text[start..at]);
        loop {
            // `at` is on a backslash.
            self.pos = at + 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'u') => {
                    let hex = bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| err("truncated \\u escape", self.pos))?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| err("invalid \\u escape", self.pos))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| err("invalid \\u escape", self.pos))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                _ => return Err(err("invalid escape", self.pos)),
            }
            self.pos += 1;
            at = run(self.pos).ok_or_else(|| err("unterminated string", text.len()))?;
            out.push_str(&text[self.pos..at]);
            if bytes[at] == b'"' {
                self.pos = at + 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let bytes = self.bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(err("expected number", start));
        }
        if is_float {
            text.parse::<f64>()
                .map(Token::Num)
                .map_err(|_| err("invalid float", start))
        } else {
            text.parse::<i64>()
                .map(Token::Int)
                .or_else(|_| text.parse::<f64>().map(Token::Num))
                .map_err(|_| err("invalid integer", start))
        }
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<&str> for Json {
    fn index_mut(&mut self, key: &str) -> &mut Json {
        match self {
            Json::Obj(pairs) => {
                if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
                    &mut pairs[i].1
                } else {
                    pairs.push((key.to_string(), Json::Null));
                    &mut pairs.last_mut().expect("just pushed").1
                }
            }
            _ => panic!("cannot index non-object with a string key"),
        }
    }
}

impl std::ops::IndexMut<usize> for Json {
    fn index_mut(&mut self, i: usize) -> &mut Json {
        match self {
            Json::Arr(items) => &mut items[i],
            _ => panic!("cannot index non-array with a number"),
        }
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        self.as_i64() == Some(i64::from(*other))
    }
}

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
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

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

macro_rules! int_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

int_to_json!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl ToJson for crate::time::SimTime {
    fn to_json(&self) -> Json {
        nanos_to_json(self.as_nanos())
    }
}

impl ToJson for crate::time::SimDuration {
    fn to_json(&self) -> Json {
        nanos_to_json(self.as_nanos())
    }
}

/// Clock values serialize as integer nanoseconds (exact round-trip); the
/// `u64::MAX` sentinels fall back to a float rather than wrapping.
fn nanos_to_json(nanos: u64) -> Json {
    if let Ok(i) = i64::try_from(nanos) {
        Json::Int(i)
    } else {
        Json::Num(nanos as f64)
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Implements [`ToJson`](crate::json::ToJson) for a struct with the named
/// fields, producing an object in field order:
///
/// ```
/// struct Row { freq_mhz: f64, label: &'static str }
/// simcore::impl_to_json!(Row { freq_mhz, label });
/// let row = Row { freq_mhz: 221.2, label: "max" };
/// assert_eq!(
///     simcore::json::ToJson::to_json(&row).dump(),
///     r#"{"freq_mhz":221.2,"label":"max"}"#
/// );
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_dump_roundtrip() {
        let text = r#"{"a":1,"b":[true,null,2.5],"c":"x\"y"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
        assert_eq!(v["a"], 1u64);
        assert_eq!(v["b"][2], 2.5);
        assert_eq!(v["c"], "x\"y");
    }

    #[test]
    fn number_writers_append_exactly_dump() {
        let mut buf = String::from("prefix:");
        write_int(&mut buf, -42);
        write_f64(&mut buf, 3.0);
        write_f64(&mut buf, f64::NAN);
        assert_eq!(
            buf,
            format!(
                "prefix:{}{}{}",
                Json::Int(-42).dump(),
                Json::Num(3.0).dump(),
                Json::Num(f64::NAN).dump()
            )
        );
        assert_eq!(buf, "prefix:-423.0null");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut lexer = Lexer::new(r#"["plain", "es\u0063aped\n", "é\"q"]"#);
        assert_eq!(lexer.token().unwrap(), Token::ArrayStart);
        assert!(lexer.next_item(true).unwrap());
        assert!(matches!(
            lexer.token().unwrap(),
            Token::Str(Cow::Borrowed("plain"))
        ));
        assert!(lexer.next_item(false).unwrap());
        assert_eq!(
            lexer.token().unwrap(),
            Token::Str(Cow::Owned("escaped\n".to_owned()))
        );
        assert!(lexer.next_item(false).unwrap());
        assert_eq!(lexer.token().unwrap().as_str(), Some("é\"q"));
        assert!(!lexer.next_item(false).unwrap());
        assert!(lexer.end().is_ok());
    }

    #[test]
    fn skip_rest_checks_nested_values() {
        let mut lexer = Lexer::new(r#"{"a":[1,{"b":null}],"c":2}"#);
        let open = lexer.token().unwrap();
        lexer.skip_rest(&open).unwrap();
        assert!(lexer.end().is_ok());
        let mut bad = Lexer::new(r#"{"a":[1,{"b" null}]}"#);
        let open = bad.token().unwrap();
        assert_eq!(
            bad.skip_rest(&open).unwrap_err(),
            Json::parse(r#"{"a":[1,{"b" null}]}"#).unwrap_err()
        );
    }

    #[test]
    fn integers_and_floats_are_distinct() {
        let v = Json::parse("[7, 7.0, -3, 1e3]").unwrap();
        assert_eq!(v[0].as_u64(), Some(7));
        assert_eq!(v[1].as_u64(), None);
        assert_eq!(v[1].as_f64(), Some(7.0));
        assert_eq!(v[2].as_i64(), Some(-3));
        assert_eq!(v[3].as_f64(), Some(1000.0));
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, f64::MAX] {
            let v = Json::Num(x).dump();
            let back = Json::parse(&v).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{v}");
        }
    }

    #[test]
    fn pretty_print_is_indented() {
        let v = Json::parse(r#"{"a":[1,2]}"#).unwrap();
        let p = v.pretty();
        assert!(p.contains("\n  \"a\": [\n    1,\n    2\n  ]\n"), "{p}");
        assert_eq!(Json::parse(&p).unwrap(), v);
    }

    #[test]
    fn missing_lookups_are_null() {
        let v = Json::parse(r#"{"a": 1}"#).unwrap();
        assert!(v["nope"].is_null());
        assert!(v["a"]["deeper"].is_null());
        assert!(v[3].is_null());
    }

    #[test]
    fn index_mut_replaces_values() {
        let mut v = Json::parse(r#"{"xs":[{"k":1}]}"#).unwrap();
        v["xs"][0]["k"] = Json::Int(9);
        assert_eq!(v["xs"][0]["k"], 9u64);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "nul", "\"abc", "{\"a\" 1}", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
        assert_eq!(Json::Num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn to_json_for_collections() {
        let mut map = BTreeMap::new();
        map.insert("x".to_string(), 1u64);
        assert_eq!(map.to_json().dump(), r#"{"x":1}"#);
        assert_eq!(Some(2.5f64).to_json().dump(), "2.5");
        assert_eq!(None::<f64>.to_json().dump(), "null");
        assert_eq!(vec!["a", "b"].to_json().dump(), r#"["a","b"]"#);
    }

    #[test]
    fn escapes_in_strings() {
        let v = Json::Str("line\nbreak\t\"q\"".to_string());
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
