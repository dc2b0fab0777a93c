//! Hostile wire input: whatever a client writes on a line, the request
//! parser and the JSON reader under it answer `Ok` or `Err` — they never
//! panic, never overflow the stack, and take time linear in the line.
//!
//! The lines here are arbitrary bytes, valid requests cut short or with
//! bytes overwritten, and valid prefixes repeated to any depth or
//! length. A line that is not UTF-8, or longer than the frontend will
//! buffer, never reaches the parser: the frontend answers it with an
//! `error` line itself and reads on.

use pic_serve::clock::Clock;
use pic_serve::frontend::serve_lines;
use pic_serve::proto::parse_request;
use pic_serve::{JobSpec, ServeConfig, Server};
use pic_telemetry::json::{parse, Value};
use proptest::prelude::*;

/// Both entry points on one line; returning at all is the property.
fn feed(line: &str) -> bool {
    let request = parse_request(line);
    // A line the request parser accepts is a JSON document.
    request.is_err() || parse(line).is_ok()
}

fn submit_line() -> String {
    let spec = JobSpec {
        timeout_ms: Some(1_500),
        deadline_ms: Some(9),
        device: "p630".to_string(),
        ..JobSpec::default()
    };
    Value::obj([
        ("proto", Value::Num(1.0)),
        ("op", Value::Str("submit".into())),
        ("tag", Value::Str("t\"\\\u{e9}\n".into())),
        ("spec", spec.to_value()),
    ])
    .to_json()
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_answered_not_panicked_on(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..200),
    ) {
        prop_assert!(feed(&String::from_utf8_lossy(&bytes)));
    }

    /// JSON-looking noise reaches far more of the parser than uniform
    /// bytes do.
    #[test]
    fn structural_noise_is_answered_not_panicked_on(
        picks in proptest::collection::vec(0usize..20, 0..120),
    ) {
        const ALPHABET: [&str; 20] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u12", "-", "1e", "0.", "9",
            "null", "tru", "\"op\"", "\"submit\"", " ", "\u{7c92}",
        ];
        let line: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        prop_assert!(feed(&line));
    }

    #[test]
    fn cut_and_overwritten_requests_are_answered(
        cut in 0usize..400,
        at in 0usize..400,
        byte in 0u8..128,
    ) {
        let line = submit_line();
        prop_assert!(parse_request(&line).is_ok());
        let mut bytes = line.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        bytes.truncate(cut.min(bytes.len()));
        prop_assert!(feed(&String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn valid_prefixes_nest_to_any_depth(
        pick in 0usize..4,
        depth in 1usize..300_000,
    ) {
        let unit = ["[", "{\"spec\":", "[{\"a\":[", "{\"op\":\"submit\",\"spec\":"][pick];
        let line = unit.repeat(depth);
        prop_assert!(parse_request(&line).is_err());
        prop_assert!(parse(&line).is_err());
    }
}

/// Fastest of three parses of `line` by both entry points, ns.
fn parse_ns(line: &str) -> u64 {
    let clock = Clock::new();
    (0..3)
        .map(|_| {
            let start = clock.now_ns();
            assert!(feed(line));
            clock.now_ns() - start
        })
        .min()
        .unwrap_or(0)
}

/// Lines that stay a valid prefix however long they grow: eight times
/// the bytes must not cost sixty-four times the time. The gate sits
/// between the two (linear reads 8, quadratic 64).
#[test]
fn long_lines_parse_in_linear_time() {
    const OPEN_ARRAY: &str = "{\"op\":\"stats\",\"x\":[";
    // (what the line opens with, what it repeats, what it ends with)
    let shapes = [
        (OPEN_ARRAY, "1.5e-3,", "0]}"), // the one that parses
        (OPEN_ARRAY, "1.5e-3,", ""),
        (OPEN_ARRAY, "{\"k\":0,\"key\":[]},", ""),
        (OPEN_ARRAY, "\"\\n\\u00e9 x\",", ""),
        ("{\"tag\":\"", "\\\"", ""),
        ("{\"tag\":\"", "plain text ", ""),
    ];
    for (open, unit, close) in shapes {
        let line_of = |bytes: usize| format!("{open}{}{close}", unit.repeat(bytes / unit.len()));
        assert_eq!(parse(&line_of(1024)).is_ok(), !close.is_empty());
        let small = parse_ns(&line_of(128 * 1024)).max(50_000);
        let large = parse_ns(&line_of(1024 * 1024));
        assert!(
            large < 32 * small,
            "{unit:?}: 1 MiB took {large} ns, 128 KiB took {small} ns"
        );
    }
}

/// What a fresh service answers on one connection carrying `hostile`
/// and then a `stats` request: the message of the `error` line that
/// refuses the first, once the second has been answered too.
fn refusal_then_stats(hostile: &[u8]) -> String {
    let input = [hostile, b"{\"op\":\"stats\"}\n"].concat();
    let server = Server::start(ServeConfig::default(), "hostile-input");
    let served = serve_lines(server, std::io::Cursor::new(input), Vec::<u8>::new())
        .expect("a refused line must not end the connection");
    let text = String::from_utf8(served.output).expect("responses are UTF-8");
    let lines: Vec<Value> = text.lines().map(|l| parse(l).expect("json")).collect();
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    assert_eq!(lines.len(), 2, "{text}");
    assert_eq!(field(&lines[0], "type").as_deref(), Some("error"), "{text}");
    assert_eq!(field(&lines[1], "type").as_deref(), Some("stats"), "{text}");
    field(&lines[0], "message").expect("an error line carries a message")
}

/// A line longer than the frontend buffers is refused for its length —
/// it is never held whole, let alone parsed — and skipped.
#[test]
fn an_overlong_line_is_refused_unparsed_and_the_connection_lives() {
    let line = [vec![b'x'; 1024 * 1024], b"\n".to_vec()].concat();
    let message = refusal_then_stats(&line);
    assert!(message.contains("exceeds"), "{message}");
}

#[test]
fn a_non_utf8_line_is_refused_and_the_connection_lives() {
    let message = refusal_then_stats(b"\xff\n");
    assert!(message.contains("UTF-8"), "{message}");
}
