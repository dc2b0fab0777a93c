//! Dependency-free JSON reading and writing.
//!
//! The workspace builds with no network access, so serde is not
//! available; the [`record`](crate::record) schema rides on this ~200-line
//! value type instead. Numbers are `f64` (every field the schema stores
//! fits: counters stay below 2⁵³), written with Rust's shortest
//! round-trip formatting so `parse(write(x)) == x` exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

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

/// Writes `Value::obj(entries ∪ {key: Str(s)}).to_json()` to `out`, byte
/// for byte, where `pieces` joined are [`str_body`]`(s)`: the member's
/// body, already escaped, written verbatim from its borrows at `key`'s
/// sorted position. The one member that can be a particle dump of many
/// megabytes (≈ 11 MB for 125 000 `f32` particles, ≈ 18 MB at `f64`) is
/// neither joined, nor copied into a [`Value::Str`], nor scanned, and no
/// line holding it is built. Each piece is one write, so an unbuffered
/// `out` (a socket) wants a buffer in front of it. `key` must not be
/// among `entries`.
///
/// # Errors
///
/// Propagates any I/O error from `out`.
pub fn write_obj_with_str<W: io::Write>(
    out: &mut W,
    entries: impl IntoIterator<Item = (&'static str, Value)>,
    key: &str,
    pieces: &[&str],
) -> io::Result<()> {
    let mut members: Vec<(&str, Value)> = entries.into_iter().collect();
    members.sort_by_key(|(k, _)| *k);
    let (before, after) = members.split_at(members.partition_point(|(k, _)| *k < key));
    let mut head = String::from("{");
    for (k, v) in before {
        write_escaped(k, &mut head);
        head.push(':');
        v.write(&mut head);
        head.push(',');
    }
    write_escaped(key, &mut head);
    head.push_str(":\"");
    out.write_all(head.as_bytes())?;
    debug_assert!(
        pieces.iter().all(|p| p.bytes().all(|b| b >= 0x20)),
        "a string body holds no raw control byte: escape it with `str_body`"
    );
    for piece in pieces {
        out.write_all(piece.as_bytes())?;
    }
    let mut tail = String::from("\"");
    for (k, v) in after {
        tail.push(',');
        write_escaped(k, &mut tail);
        tail.push(':');
        v.write(&mut tail);
    }
    tail.push('}');
    out.write_all(tail.as_bytes())
}

/// `s` as the body of a JSON string literal: escaped, without the
/// quotes. What [`write_obj_with_str`] takes.
pub fn str_body(s: &str) -> String {
    // A particle dump's body is ≈ 1 % longer than its text (one escape a
    // row): room enough that the body is never moved while it grows.
    let mut body = String::with_capacity(s.len() + s.len() / 16);
    push_body(s, &mut body);
    body
}

/// Appends `s` as a JSON string literal.
fn write_escaped(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    push_body(s, out);
    out.push('"');
}

/// What each byte below 0x20 becomes inside a JSON string.
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// `0x01` in every byte of a word.
const ONES: u64 = u64::MAX / 0xff;

/// Index of the first byte of `bytes` that a JSON string must escape — a
/// control below 0x20, `"` or `\` — found eight bytes per step. Per word,
/// each test is the classic `(x − 0x01…·n) & !x & 0x80…` ("a byte of x
/// is below n"), with `"` and `\` turned into zeros by an XOR: a borrow
/// can flag a byte above a true one, never below it, so the lowest flag
/// is exact. Bytes of multi-byte UTF-8 sequences have the high bit set
/// and are never flagged.
fn next_escape(bytes: &[u8]) -> Option<usize> {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut last = [b' '; 8];
    last[..tail.len()].copy_from_slice(tail);
    let words = words.iter().copied().chain([last]);
    words.enumerate().find_map(|(i, word)| {
        let word = u64::from_le_bytes(word);
        let quote = word ^ (ONES * u64::from(b'"'));
        let backslash = word ^ (ONES * u64::from(b'\\'));
        // `"` and `\` have the high bit clear: `!quote`, `!backslash` and
        // `!word` agree there.
        let below = word.wrapping_sub(ONES * 0x20);
        let mask = (below | quote.wrapping_sub(ONES) | backslash.wrapping_sub(ONES)) & !word;
        let mask = mask & (ONES << 7);
        (mask != 0).then_some(i * 8 + (mask.trailing_zeros() / 8) as usize)
    })
}

/// Appends the body of `s` as a JSON string literal, without the quotes:
/// the runs that need no escape, copied whole, and between them the
/// escape of each byte that does. The one escaper of every string this
/// module writes. What needs escaping is one ASCII byte, never inside a
/// multi-byte sequence, so every run is whole characters.
fn push_body(s: &str, out: &mut String) {
    let mut rest = s;
    while let Some(at) = next_escape(rest.as_bytes()) {
        let (run, escaped) = rest.split_at(at);
        out.push_str(run);
        out.push_str(match escaped.as_bytes()[0] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            // bounds: every other byte the scan stops at is below 0x20.
            b => CONTROL_ESCAPES[usize::from(b)],
        });
        rest = &escaped[1..];
    }
    out.push_str(rest);
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
        let text = "line one\nline \"two\"\\\u{1} é";
        let written = |entries: &[(&'static str, Value)], key: &str, pieces: &[&str]| {
            let mut out = Vec::new();
            write_obj_with_str(&mut out, entries.iter().cloned(), key, pieces).unwrap();
            String::from_utf8(out).unwrap()
        };
        // Before every key, between two, after every key; then alone.
        for key in ["a", "c", "e"] {
            let owned = entries()
                .into_iter()
                .chain([(key, Value::Str(text.into()))]);
            let expect = Value::obj(owned).to_json();
            let body = str_body(text);
            assert_eq!(written(&entries(), key, &[&body]), expect, "{key}");
            // The body in two pieces, cut at every character boundary.
            for (cut, _) in body.char_indices().chain([(body.len(), ' ')]) {
                let pieces = [&body[..cut], &body[cut..]];
                assert_eq!(written(&entries(), key, &pieces), expect, "{key} {cut}");
            }
        }
        assert_eq!(written(&[], "k", &[]), r#"{"k":""}"#);
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

    /// `s` escaped by the char loop, and by the word scan both into a
    /// `String` and in two pieces cut at `cut` (a character boundary),
    /// streamed through a buffer of `capacity` bytes: all three agree, and
    /// the literal parses back to `s`.
    fn escape_three_ways(s: &str, cut: usize, capacity: usize) {
        let mut old = String::new();
        write_escaped_by_char(s, &mut old);
        let mut new = String::from("prefix");
        write_escaped(s, &mut new);
        assert_eq!(&new["prefix".len()..], old, "input {s:?}");
        let mut streamed = io::BufWriter::with_capacity(capacity, Vec::new());
        let pieces = [str_body(&s[..cut]), str_body(&s[cut..])];
        write_obj_with_str(&mut streamed, [], "k", &[&pieces[0], &pieces[1]]).unwrap();
        let streamed = String::from_utf8(streamed.into_inner().unwrap()).unwrap();
        assert_eq!(
            streamed,
            format!("{{\"k\":{old}}}"),
            "input {s:?} cut at {cut}"
        );
        assert_eq!(parse(&old).unwrap(), Value::Str(s.to_owned()));
    }

    #[test]
    fn word_scanning_escaper_is_byte_identical_to_the_char_loop() {
        // Random strings over two alphabets: one that is mostly what needs
        // escaping and what must not be split — quotes, backslashes, every
        // control byte, DEL, and 2-, 3- and 4-byte UTF-8 sequences — and
        // one where escapes are rare, so that whole words scan clean.
        let wide = [
            'é',
            'ß',
            '\u{80}',
            '漢',
            '\u{2028}',
            '\u{ffff}',
            '😀',
            '\u{10ffff}',
        ];
        let mut dense: Vec<char> = (0u8..0x20).map(char::from).collect();
        dense.extend(['"', '\\', '/', ' ', 'a', 'Z', '7', '\u{7f}']);
        dense.extend(wide);
        let mut sparse: Vec<char> = "0123456789e-+. ".chars().cycle().take(120).collect();
        sparse.extend(wide);
        sparse.extend(['\n', '"', '\\', '\u{1}', '\u{1f}', '\u{7f}']);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        // A 4-byte character across a word boundary, escapes beside it.
        let fixed = ["😀\"é\n漢".to_owned(), "\\😀x".to_owned()];
        let random = (0..2000).map(|case| {
            let alphabet = if case % 2 == 0 { &dense } else { &sparse };
            let len = if case < 8 { case } else { next() % 200 };
            (0..len)
                .map(|_| alphabet[next() % alphabet.len()])
                .collect::<String>()
        });
        let cases: Vec<String> = fixed.into_iter().chain(random).collect();
        for (case, s) in cases.iter().enumerate() {
            // At every start offset mod 8, so that each byte of the string
            // sits at each position of a word; cut somewhere.
            for pad in 0..8 {
                let padded = format!("{}{s}", "x".repeat(pad));
                let cuts: Vec<usize> = padded.char_indices().map(|(i, _)| i).collect();
                let cut = cuts.get(case % (cuts.len() + 1)).copied();
                escape_three_ways(&padded, cut.unwrap_or(padded.len()), 64);
            }
        }
    }

    #[test]
    fn streaming_through_a_buffer_splits_the_member_at_every_byte() {
        // A member that overfills a 64 KiB buffer, with escapes and a wide
        // character at every byte position around the point where the
        // buffer first fills, and the two pieces cut there too.
        const CAPACITY: usize = 64 * 1024;
        for at in CAPACITY - 24..CAPACITY + 24 {
            let s = format!("{}\"😀\n\\{}", "a".repeat(at), "b".repeat(40));
            escape_three_ways(&s, at, CAPACITY);
            escape_three_ways(&s, at + 1, CAPACITY);
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("tab\t nl\n quote\" back\\ ctl\u{1}".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
