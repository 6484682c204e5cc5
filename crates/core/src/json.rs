//! Minimal hand-rolled JSON: the workspace's one string escaper and one
//! parser, shared by the server's wire envelopes, the calibration store
//! and the conformance report. The workspace is offline/zero-dep (no
//! serde), so this is a small recursive-descent parser for objects,
//! arrays, strings (UTF-8 throughout, with the standard escapes, `\n`
//! included, since the workflow text DSL travels inside a JSON string),
//! numbers, booleans and null. Numbers keep their literal text, so
//! integers read back exactly at any width ([`Value::as_u64`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are ordered (`BTreeMap`) so
/// re-renderings are deterministic, though the protocol never relies on
/// re-rendering parsed values byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as its (validated) literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as a u64, if this is a non-negative integral number.
    /// Integer literals convert exactly; other spellings (`3.0`, `1e3`)
    /// go through f64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok().or_else(|| {
                let f = self.as_f64()?;
                (f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64).then_some(f as u64)
            }),
            _ => None,
        }
    }

    /// The bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Parse one JSON value from `text` (must consume the whole input apart
/// from trailing whitespace). Errors are one-line descriptions with a
/// byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Escape `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
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
    out
}

/// Maximum container nesting. The protocol needs 2–3 levels; the cap
/// exists because the parser is recursive descent on a network-facing
/// daemon — without it a `[[[[…` request line deep enough to overflow
/// the stack aborts the whole process, not just the connection.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == c => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.enter()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the
                            // protocol (escape() never emits them); reject
                            // rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("unpaired surrogate \\u{hex}"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|&b| b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        match text.parse::<f64>() {
            Ok(_) => Ok(Value::Num(text.to_owned())),
            Err(_) => Err(format!("bad number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_envelope() {
        let v = parse(r#"{"id":"r1","n":3,"ok":true,"body":{"xs":[1,2,-3.5]},"z":null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("z"), Some(&Value::Null));
        let xs = match v.get("body").and_then(|b| b.get("xs")) {
            Some(Value::Arr(xs)) => xs,
            other => panic!("{other:?}"),
        };
        assert_eq!(xs.len(), 3);
    }

    #[test]
    fn integers_read_back_exactly() {
        let v = parse("[9007199254740993, 18446744073709551615, 3.0, 1e3, -1, 2.5]").unwrap();
        let Value::Arr(xs) = v else { panic!("{v:?}") };
        let got: Vec<Option<u64>> = xs.iter().map(Value::as_u64).collect();
        assert_eq!(
            got,
            [
                Some((1 << 53) + 1),
                Some(u64::MAX),
                Some(3),
                Some(1000),
                None,
                None
            ]
        );
        assert_eq!(xs[5].as_f64(), Some(2.5));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\u{1} π";
        let wire = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let v = parse(&wire).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn rejects_garbage_with_position() {
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_not_stack_overflowed() {
        // Well under the cap parses fine…
        let shallow = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&shallow).is_ok());
        // …one past it is a parse error…
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&deep).unwrap_err().contains("nesting"), "{deep}");
        // …and a hostile request tens of thousands deep must error, not
        // overflow the thread stack and abort the daemon.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn workflow_text_survives_the_wire() {
        let dsl = "source \"S\" table rows=10 (a)\nactivity a1 \"σ\" = filter a >= 1.0 <- \"S\"\ntarget \"T\" table (a) <- a1\n";
        let wire = format!("{{\"workflow\":\"{}\"}}", escape(dsl));
        assert!(!wire.contains('\n'), "envelope must stay one line");
        let v = parse(&wire).unwrap();
        assert_eq!(v.get("workflow").and_then(Value::as_str), Some(dsl));
    }
}
