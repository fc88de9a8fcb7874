//! Offline stand-in for `serde_json`.
//!
//! Renders the workspace `serde` shim's [`Value`] tree to JSON text and
//! parses it back. Floats are written with Rust's `{}` formatting, which is
//! shortest-roundtrip exact, so a serialize → parse cycle reproduces every
//! finite `f64` bit-for-bit (integral floats print without a fraction and
//! come back as `Value::Int`, which numeric deserializers accept).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub use serde::Value;
use serde::{Deserialize, Serialize};
// Writing into a `String` cannot fail, so the writer drops `write!`'s result.
use std::fmt::{self, Write as _};

/// The nesting depth (arrays and objects) past which parsing stops with a
/// [`Category::DepthLimit`] error, the same limit real `serde_json` uses.
/// The parser recurses once per level, so this bounds its stack use on
/// hostile input.
pub const MAX_DEPTH: usize = 128;

/// What kind of failure an [`Error`] reports, mirroring
/// `serde_json::error::Category`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// The input is not well-formed JSON.
    Syntax,
    /// The input is JSON, but arrays and objects nest deeper than
    /// [`MAX_DEPTH`].
    DepthLimit,
    /// The JSON is well-formed but does not fit the requested type.
    Data,
}

/// A JSON (de)serialization error: a message, optionally with the byte
/// offset where parsing failed (parse errors end in `at byte N`).
#[derive(Debug, Clone)]
pub struct Error {
    category: Category,
    message: String,
}

impl Error {
    /// What kind of failure this is.
    pub fn classify(&self) -> Category {
        self.category
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error {
            category: Category::Data,
            message: e.0,
        }
    }
}

/// An insertion-ordered JSON object under construction, mirroring
/// `serde_json::Map<String, Value>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts a key, replacing (in place) any previous value for it.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl From<Map> for Value {
    fn from(map: Map) -> Value {
        Value::Map(map.entries)
    }
}

impl Serialize for Map {
    fn to_value(&self) -> Value {
        Value::Map(self.entries.clone())
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Builds a [`Value`] from object syntax (`json!({"k": expr, ...})`) or any
/// serializable expression (`json!(expr)`). Unlike real serde_json, nested
/// objects must themselves be `json!(...)` calls.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::to_value(&$value)); )*
        $crate::Value::from(map)
    }};
    (null) => { $crate::Value::Null };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ------------------------------------------------------------------ write

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes to human-readable JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Writes `value` into `out`: compact when `indent` is `None`, else one item
/// per line, indented `indent` spaces per level below `depth`.
fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                // JSON has no NaN/Infinity; mirror JavaScript's JSON.stringify.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            write_bracketed(items.iter(), '[', ']', indent, depth, out, |item, d, o| {
                write_value(item, indent, d, o);
            });
        }
        Value::Map(entries) => {
            write_bracketed(
                entries.iter(),
                '{',
                '}',
                indent,
                depth,
                out,
                |(k, v), d, o| {
                    write_string(k, o);
                    o.push(':');
                    if indent.is_some() {
                        o.push(' ');
                    }
                    write_value(v, indent, d, o);
                },
            );
        }
    }
}

fn write_bracketed<I, T>(
    items: I,
    open: char,
    close: char,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    mut write_item: impl FnMut(T, usize, &mut String),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            write_newline(step * (depth + 1), out);
        }
        write_item(item, depth + 1, out);
    }
    if !empty {
        if let Some(step) = indent {
            write_newline(step * depth, out);
        }
    }
    out.push(close);
}

/// Writes a line break and `width` spaces of indentation.
fn write_newline(width: usize, out: &mut String) {
    const SPACES: &str = "                                                                ";
    out.push('\n');
    let mut left = width;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        left -= n;
    }
}

/// Writes `s` as a quoted JSON string. Runs of bytes that need no escape
/// are copied whole; every byte that needs one is ASCII, so each run ends
/// on a char boundary.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let short = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ------------------------------------------------------------------ parse

/// Deserializes a value from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(T::from_value(&value)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        self.error_of(Category::Syntax, message)
    }

    fn error_of(&self, category: Category, message: &str) -> Error {
        Error {
            category,
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error_of(
                Category::DepthLimit,
                &format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // stop bytes are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(text);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: one escape sequence.
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate follows.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(self.error("lone high surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            out.push(c.ok_or_else(|| self.error("invalid \\u escape"))?);
                        }
                        _ => return Err(self.error("unknown escape sequence")),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number chars");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.1, 1.0 / 3.0, 6.02e23, -1e-300, 81.66666666666667_f64] {
            let text = to_string(&f).expect("serializes");
            let back: f64 = from_str(&text).expect("parses");
            assert_eq!(f.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line\nbreak \"quoted\" back\\slash \t tab \u{1}ctl émoji 🎈";
        let text = to_string(&String::from(original)).expect("serializes");
        let back: String = from_str(&text).expect("parses");
        assert_eq!(back, original);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let back: String = from_str(r#""🎈""#).expect("parses");
        assert_eq!(back, "🎈");
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({"a": 1usize, "b": vec![1.5f64, 2.5], "c": "text"});
        let text = to_string(&v).expect("serializes");
        assert_eq!(text, r#"{"a":1,"b":[1.5,2.5],"c":"text"}"#);
    }

    #[test]
    fn pretty_output_is_parseable() {
        let mut map = Map::new();
        map.insert("nested".to_string(), json!({"x": 1i64}));
        map.insert("list".to_string(), json!(vec![true, false]));
        let text = to_string_pretty(&map).expect("serializes");
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).expect("parses");
        assert_eq!(back, Value::from(map));
    }

    #[test]
    fn map_insert_replaces() {
        let mut map = Map::new();
        assert!(map.insert("k".to_string(), Value::Int(1)).is_none());
        assert_eq!(
            map.insert("k".to_string(), Value::Int(2)),
            Some(Value::Int(1))
        );
        assert_eq!(map.len(), 1);
        assert_eq!(map.get("k"), Some(&Value::Int(2)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }

    #[test]
    fn errors_are_classified() {
        let syntax = from_str::<Value>("[1,").expect_err("truncated");
        assert_eq!(syntax.classify(), Category::Syntax);
        assert!(syntax.to_string().ends_with("at byte 3"), "{syntax}");
        let data = from_str::<String>("1").expect_err("not a string");
        assert_eq!(data.classify(), Category::Data);
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let value: Value = from_str(&nested(MAX_DEPTH)).expect("at the limit");
        assert!(matches!(value, Value::Seq(_)));
        let objects = "{\"k\":".repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        from_str::<Value>(&objects).expect("objects at the limit");
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let e = from_str::<Value>(&nested(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!(e.classify(), Category::DepthLimit);
        // The offset suffix is what diagnostics read the caret position from.
        assert!(
            e.to_string().ends_with(&format!("at byte {MAX_DEPTH}")),
            "{e}"
        );

        let mixed = "{\"a\":[".repeat(MAX_DEPTH) + "1";
        let e = from_str::<Value>(&mixed).expect_err("too deep");
        assert_eq!(e.classify(), Category::DepthLimit);
    }

    #[test]
    fn a_million_open_brackets_error_instead_of_overflowing_the_stack() {
        for open in ["[", "{\"k\":"] {
            let body = open.repeat(1_000_000);
            let e = from_str::<Value>(&body).expect_err("too deep");
            assert_eq!(e.classify(), Category::DepthLimit, "{open}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // About 1 MB of mixed one-, two-, three- and four-byte characters,
        // with an escape every few dozen bytes so both the run copy and the
        // escape path are exercised. A parser that rescans the rest of the
        // buffer per character takes minutes on this input.
        let unit = "plain ascii text, café, 東京, 🎈 and a \"quote\"\n";
        let text: String = unit.repeat(1_000_000 / unit.len());
        let body = to_string(&text).expect("serializes");
        assert!(body.len() > 1_000_000);
        let start = std::time::Instant::now();
        let back: String = from_str(&body).expect("parses");
        let elapsed = start.elapsed();
        assert_eq!(back, text);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "a 1 MB string took {elapsed:?} to parse"
        );
    }

    #[test]
    fn every_escape_parses() {
        let back: String =
            from_str(r#""\" \\ \/ \b \f \n \r \t \u0041 \u00e9 \u6771 \ud83c\udf88""#)
                .expect("parses");
        assert_eq!(back, "\" \\ / \u{8} \u{c} \n \r \t A é 東 🎈");
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\ud83c""#,
            r#""\ud83c\u0041""#,
            r#""\"#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }

    /// The writer as it was before it copied runs: one `push` per char, a
    /// `format!` per control character, a temporary `String` per number
    /// and one `push` per indent space. The properties below hold the
    /// writer to its bytes.
    mod reference {
        use super::super::Value;

        pub fn to_string(value: &Value) -> String {
            let mut out = String::new();
            write_value(value, None, 0, &mut out);
            out
        }

        pub fn to_string_pretty(value: &Value) -> String {
            let mut out = String::new();
            write_value(value, Some(2), 0, &mut out);
            out
        }

        fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
            match value {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Int(i) => out.push_str(&i.to_string()),
                Value::Float(f) => {
                    if f.is_finite() {
                        out.push_str(&f.to_string());
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Str(s) => write_string(s, out),
                Value::Seq(items) => {
                    write_bracketed(items.iter(), '[', ']', indent, depth, out, |item, d, o| {
                        write_value(item, indent, d, o);
                    });
                }
                Value::Map(entries) => {
                    write_bracketed(
                        entries.iter(),
                        '{',
                        '}',
                        indent,
                        depth,
                        out,
                        |(k, v), d, o| {
                            write_string(k, o);
                            o.push(':');
                            if indent.is_some() {
                                o.push(' ');
                            }
                            write_value(v, indent, d, o);
                        },
                    );
                }
            }
        }

        fn write_bracketed<I, T>(
            items: I,
            open: char,
            close: char,
            indent: Option<usize>,
            depth: usize,
            out: &mut String,
            mut write_item: impl FnMut(T, usize, &mut String),
        ) where
            I: ExactSizeIterator<Item = T>,
        {
            out.push(open);
            let empty = items.len() == 0;
            for (i, item) in items.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(step) = indent {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
                }
                write_item(item, depth + 1, out);
            }
            if !empty {
                if let Some(step) = indent {
                    out.push('\n');
                    out.extend(std::iter::repeat_n(' ', step * depth));
                }
            }
            out.push(close);
        }

        fn write_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    #[test]
    fn writer_matches_the_reference_on_edge_values() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let value = json!({
            "ints": vec![i64::MIN, -1, 0, i64::MAX],
            "floats": vec![0.0, -0.0, 5e-324, f64::MIN_POSITIVE / 2.0, 1e300, -1.5,
                           f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            "text": format!("{controls} \"\\/ é 東京 🎈 \u{7f}\u{2028}"),
            "empty": Value::Map(Vec::new()),
            "nested": vec![Value::Seq(Vec::new()), json!({"k": Value::Null})]
        });
        assert_eq!(
            to_string(&value).expect("writes"),
            reference::to_string(&value)
        );
        assert_eq!(
            to_string_pretty(&value).expect("writes"),
            reference::to_string_pretty(&value)
        );
        // Deeper than the 64-space indent slice, so it is pushed in pieces.
        let deep = (0..40).fold(Value::Int(7), |inner, _| Value::Seq(vec![inner]));
        assert_eq!(
            to_string_pretty(&deep).expect("writes"),
            reference::to_string_pretty(&deep)
        );
    }

    mod properties {
        use super::super::*;
        use super::reference;
        use proptest::prelude::*;

        /// Any char, weighted so every UTF-8 width, every control character
        /// and every character the writer escapes turn up often.
        fn any_char() -> impl Strategy<Value = char> {
            const SPECIAL: [char; 8] = ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'];
            prop_oneof![
                (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i] as u32),
                0u32..0x80,
                0x80u32..0x800,
                0x800u32..0x10000,
                0x10000u32..0x11_0000,
            ]
            .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
        }

        /// Writes `c` as one or two `\uXXXX` escapes (a surrogate pair
        /// above the BMP).
        fn escape_utf16(c: char, out: &mut String) {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }

        /// Fragments that steer random input into every parser branch.
        fn json_token() -> impl Strategy<Value = String> {
            const TOKENS: [&str; 24] = [
                "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83c", "\\udf88", "\\n",
                "true", "fals", "null", "-", "0", "12", ".5", "e+", " ", "é", "🎈", "\u{1}",
            ];
            prop_oneof![
                (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
                any_char().prop_map(String::from),
            ]
        }

        /// Floats from every bit pattern (NaN and ±inf included), subnormals,
        /// and the values a writer is likeliest to get wrong.
        fn any_float() -> impl Strategy<Value = f64> {
            const EDGES: [f64; 9] = [
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                9_007_199_254_740_993.0,
            ];
            prop_oneof![
                any::<u64>().prop_map(f64::from_bits),
                (1u64..1 << 52).prop_map(f64::from_bits),
                (1u64..1 << 52).prop_map(|bits| -f64::from_bits(bits)),
                (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
            ]
        }

        fn any_string() -> impl Strategy<Value = String> {
            prop::collection::vec(any_char(), 0..24).prop_map(|chars| chars.into_iter().collect())
        }

        /// Nested arrays and objects over every scalar kind.
        fn any_value() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i64>().prop_map(Value::Int),
                prop_oneof![Just(i64::MIN), Just(i64::MAX), -2i64..3].prop_map(Value::Int),
                any_float().prop_map(Value::Float),
                any_string().prop_map(Value::Str),
            ];
            leaf.prop_recursive(4, 64, 6, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
                    prop::collection::vec((any_string(), inner), 0..6).prop_map(Value::Map),
                ]
            })
        }

        /// `value` as it reads back from the writer's output: non-finite
        /// floats become `null`, and a float written without a fraction
        /// (integral, in `i64` range) parses as an integer.
        fn as_parsed(value: &Value) -> Value {
            match value {
                Value::Float(f) if !f.is_finite() => Value::Null,
                Value::Float(f) => f.to_string().parse().map_or(Value::Float(*f), Value::Int),
                Value::Seq(items) => Value::Seq(items.iter().map(as_parsed).collect()),
                Value::Map(entries) => Value::Map(
                    entries
                        .iter()
                        .map(|(k, v)| (k.clone(), as_parsed(v)))
                        .collect(),
                ),
                other => other.clone(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn writer_matches_the_reference(value in any_value()) {
                let compact = to_string(&value).expect("writes");
                let pretty = to_string_pretty(&value).expect("writes");
                prop_assert_eq!(&compact, &reference::to_string(&value));
                prop_assert_eq!(&pretty, &reference::to_string_pretty(&value));
                let expected = as_parsed(&value);
                prop_assert_eq!(from_str::<Value>(&compact).expect("parses"), expected.clone());
                prop_assert_eq!(from_str::<Value>(&pretty).expect("parses"), expected);
            }

            #[test]
            fn strings_roundtrip(chars in prop::collection::vec(any_char(), 0..48)) {
                let s: String = chars.into_iter().collect();
                let text = to_string(&s).expect("serializes");
                prop_assert_eq!(from_str::<String>(&text).expect("parses"), s);
            }

            #[test]
            fn utf16_escapes_parse_back(
                chars in prop::collection::vec((any_char(), any::<bool>()), 0..32)
            ) {
                let mut text = String::from("\"");
                for &(c, escaped) in &chars {
                    if escaped {
                        escape_utf16(c, &mut text);
                    } else {
                        let mut quoted = String::new();
                        write_string(&c.to_string(), &mut quoted);
                        text.push_str(&quoted[1..quoted.len() - 1]);
                    }
                }
                text.push('"');
                let s: String = chars.iter().map(|&(c, _)| c).collect();
                prop_assert_eq!(from_str::<String>(&text).expect("parses"), s);
            }

            #[test]
            fn arbitrary_input_never_panics(
                tokens in prop::collection::vec(json_token(), 0..64)
            ) {
                let text: String = tokens.concat();
                // Either outcome is fine; a panic fails the test.
                let _ = from_str::<Value>(&text);
            }
        }
    }
}
