#![warn(missing_docs)]

//! Offline stand-in for `serde_json`: prints and parses the [`serde`]
//! shim's [`Value`] tree as JSON.
//!
//! Output is deterministic: object fields keep their insertion order
//! (struct declaration order from the derive), floats print through
//! Rust's shortest-round-trip `Display`, and integers print exactly.
//! `f64` round-trips bit-exactly through `to_string` → `from_str`, which
//! the golden-trace tests rely on.

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// JSON serialization/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    /// 1-based line of the error, when known (0 = not applicable).
    line: usize,
    /// 1-based column of the error, when known.
    column: usize,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
            line: 0,
            column: 0,
        }
    }

    fn at(msg: impl fmt::Display, line: usize, column: usize) -> Self {
        Error {
            msg: msg.to_string(),
            line,
            column,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{} at line {} column {}",
                self.msg, self.line, self.column
            )
        } else {
            f.write_str(&self.msg)
        }
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(Error::new)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuilds a typed value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::new)
}

// ---- printer ---------------------------------------------------------------

/// A run of spaces that indentation is sliced from.
const SPACES: &str = "                                                                ";

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so `start..i` always lies
    // on character boundaries.
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        let mut n = w * depth;
        while n > 0 {
            let run = n.min(SPACES.len());
            out.push_str(&SPACES[..run]);
            n -= run;
        }
    }
}

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    // `write!` into a `String` cannot fail.
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("JSON cannot represent NaN or infinity"));
            }
            // Rust's Display prints the shortest decimal that round-trips,
            // without exponents — valid JSON and bit-exact on re-parse.
            let start = out.len();
            let _ = write!(out, "{f}");
            if !out.as_bytes()[start..].contains(&b'.') {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

// ---- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn line_col(&self) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    fn err(&self, msg: impl fmt::Display) -> Error {
        let (line, col) = self.line_col();
        Error::at(msg, line, col)
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                self.peek()
                    .map(|c| format!("`{}`", c as char))
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn parse(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let v = self.parse_inner(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn parse_inner(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > 512 {
            return Err(self.err("recursion depth exceeded"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_inner(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_inner(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(self.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected `{kw}`)")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // printer; reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

fn parse_value(s: &str) -> Result<Value, Error> {
    Parser::new(s).parse()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(to_string(&4.0f64).unwrap(), "4.0");
        assert_eq!(to_string("hi\n").unwrap(), "\"hi\\n\"");
        let x: f64 = from_str("2.5").unwrap();
        assert_eq!(x, 2.5);
        let s: String = from_str("\"a\\u0041b\"").unwrap();
        assert_eq!(s, "aAb");
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            12345.678901234567,
            -0.000001,
            1e300,
        ] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{json}");
        }
    }

    #[test]
    fn large_u64_survive() {
        let seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let json = to_string(&seed).unwrap();
        let back: u64 = from_str(&json).unwrap();
        assert_eq!(back, seed);
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2.5],[3,4.5]]");
        let back: Vec<(u32, f64)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_prints_indented() {
        let v = vec![1u32, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn errors_carry_position() {
        let err = from_str::<Vec<u32>>("[1, x]").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<Vec<u32>>("[1] trailing").is_err());
        assert!(from_str::<f64>("").is_err());
    }

    #[test]
    fn rejects_nan() {
        assert!(to_string(&f64::NAN).is_err());
    }
}
