//! Dependency-free JSON reading and writing.
//!
//! The workspace builds with no network access, so serde is not
//! available; the [`record`](crate::record) schema rides on this ~200-line
//! value type instead. Numbers are `f64` (every field the schema stores
//! fits: counters stay below 2⁵³), written with Rust's shortest
//! round-trip formatting so `parse(write(x)) == x` exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (also produced when writing non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap), which makes the emitted
    /// records byte-stable across runs — handy for diffing artifacts.
    Obj(BTreeMap<String, Value>),
}

/// A parse error with byte offset and message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Convenience constructor for object values.
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value as f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as str, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up `key`, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// `Value::obj(entries ∪ {key: Str(text)}).to_json()`, byte for
    /// byte, with `text` escaped straight from the borrow into the line
    /// at `key`'s sorted position: the one member that can be a 17.7 MB
    /// particle dump is not copied into a [`Value::Str`] first. `key`
    /// must not be among `entries`.
    pub fn obj_json_with_str(
        entries: impl IntoIterator<Item = (&'static str, Value)>,
        key: &str,
        text: &str,
    ) -> String {
        let mut members: Vec<(&str, Value)> = entries.into_iter().collect();
        members.sort_by_key(|(k, _)| *k);
        let (before, after) = members.split_at(members.partition_point(|(k, _)| *k < key));
        // Room for the whole line, so it is allocated once: a dump's
        // escapes are its newlines, one per row of at least 34 bytes.
        let mut out = String::with_capacity(text.len() + text.len() / 16 + 256);
        out.push('{');
        let name = |out: &mut String, k: &str| {
            if out.len() > 1 {
                out.push(',');
            }
            write_escaped(k, out);
            out.push(':');
        };
        for (k, v) in before {
            name(&mut out, k);
            v.write(&mut out);
        }
        name(&mut out, key);
        write_escaped(text, &mut out);
        for (k, v) in after {
            name(&mut out, k);
            v.write(&mut out);
        }
        out.push('}');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                if x.is_finite() {
                    // Rust's Display for floats is shortest-round-trip.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal. Whatever needs escaping is one
/// ASCII byte, never part of a multi-byte sequence, so the bytes between
/// two escapes are whole characters and go out as one `push_str` — a
/// 17.7 MB particle dump is ~125 000 such runs, not 17.7 M `char` pushes.
fn write_escaped(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
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
    out.push_str(&s[run..]);
    out.push('"');
}

/// Arrays and objects nested deeper than this are refused. The parser
/// recurses once per level and lines come off the wire: without a bound
/// a line of a few hundred thousand `[` overflows the stack, which
/// aborts the process instead of returning an error. The schema's own
/// documents nest four deep.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document from `input` (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// `src.as_bytes()`: structural characters are all ASCII.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object, one level further down.
    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            // Surrogates are not expected in our own
                            // output; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash. `pos` follows ASCII and both stoppers
                    // are ASCII, so the run is on char boundaries of
                    // the source `&str` and needs no re-validation.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or_else(|| self.error("unterminated string"))?;
                    let text = self
                        .src
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("bad number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1.5", "1e-9", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn a_borrowed_member_lands_where_the_map_would_put_it() {
        let entries = || [("b", Value::Num(1.0)), ("d", Value::Str("x\"y".into()))];
        let text = "line one\nline \"two\"\\\u{1}";
        // Before every key, between two, after every key; then alone.
        for key in ["a", "c", "e"] {
            let owned = entries()
                .into_iter()
                .chain([(key, Value::Str(text.into()))]);
            assert_eq!(
                Value::obj_json_with_str(entries(), key, text),
                Value::obj(owned).to_json(),
                "{key}"
            );
        }
        assert_eq!(Value::obj_json_with_str([], "k", ""), r#"{"k":""}"#);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -2.5e17, 123456789.123456] {
            let v = Value::Num(x);
            let back = parse(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Value::obj([
            ("name", Value::Str("bench \"x\"\n".into())),
            (
                "series",
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Null]),
            ),
            (
                "inner",
                Value::obj([("ok", Value::Bool(true)), ("n", Value::Num(42.0))]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        // Objects emit keys sorted, so serialization is stable.
        assert_eq!(text, parse(&text).unwrap().to_json());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": "s", "c": [1, 2]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("c").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("").is_err());
    }

    /// Regression: each of these lines overflowed the parser's stack
    /// (a process abort, not a panic) before the depth bound.
    #[test]
    fn runaway_nesting_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":", "[{\"a\":"] {
            let err = parse(&unit.repeat(200_000)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok(), "{MAX_DEPTH} levels still parse");
        assert!(parse(&format!("[{deepest}]")).is_err());
        // Siblings do not count as depth.
        assert!(parse(&format!("[{}]", "[[]],".repeat(1_000) + "[]")).is_ok());
    }

    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        // A `completed` line carries a whole particle dump in one string
        // member; per-character re-validation made this quadratic.
        let unit = "1.5e-3 é\t\"λ\\ 粒子\n";
        let big = unit.repeat(4 * 1024 * 1024 / unit.len() + 1);
        assert!(big.len() >= 4 * 1024 * 1024);
        let v = Value::obj([("particles", Value::Str(big)), ("id", Value::Num(7.0))]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    /// The escaper as it was before it copied runs: one `char` at a time.
    fn write_escaped_by_char(s: &str, out: &mut String) {
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

    #[test]
    fn run_copying_escaper_is_byte_identical_to_the_char_loop() {
        // Random strings over an alphabet that is mostly what needs
        // escaping and what must not be split: quotes, backslashes, every
        // control byte, DEL, and 2-, 3- and 4-byte UTF-8 sequences.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', ' ', 'a', 'Z', '7', '\u{7f}']);
        alphabet.extend([
            'é',
            'ß',
            '\u{80}',
            '漢',
            '\u{2028}',
            '\u{ffff}',
            '😀',
            '\u{10ffff}',
        ]);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for case in 0..2000 {
            let len = if case < 8 { case } else { next() % 200 };
            let s: String = (0..len)
                .map(|_| alphabet[next() % alphabet.len()])
                .collect();
            let (mut old, mut new) = (String::new(), String::from("prefix"));
            write_escaped_by_char(&s, &mut old);
            write_escaped(&s, &mut new);
            assert_eq!(&new["prefix".len()..], old, "input {s:?}");
            assert_eq!(parse(&old).unwrap(), Value::Str(s));
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("tab\t nl\n quote\" back\\ ctl\u{1}".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
