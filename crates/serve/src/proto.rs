//! The versioned, line-delimited JSON wire protocol.
//!
//! One request per line in, one response object per line out (see
//! EXPERIMENTS.md §"Wire protocol" for the full schema). Every message
//! carries `"proto": 1`; requests from a newer protocol major are
//! answered with an `error` response instead of being misread, matching
//! the `BenchRecord` schema-gate policy.
//!
//! Requests: `submit` (a [`JobSpec`] under `"spec"`, with an optional
//! client `"tag"` echoed in every response about that job), `cancel`,
//! `stats`, `shutdown`. Responses: `accepted`, `rejected`, `completed`,
//! `cancelled`, `timed-out`, `cancel-result`, `stats`, `shutting-down`,
//! `error`. A submission always gets `accepted` or `rejected`
//! synchronously; each accepted job later gets exactly one terminal
//! response.

use crate::job::{JobSpec, Outcome};
use crate::scheduler::{CancelResult, ServeStats};
use pic_telemetry::json::{parse, str_body, write_obj_with_str, Value};
use std::io::{self, Write};

/// Protocol version spoken by this build.
pub const PROTO_VERSION: u64 = 1;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job; `tag` is echoed in all responses about it.
    Submit {
        /// Client-chosen correlation tag.
        tag: Option<String>,
        /// The job to run.
        spec: JobSpec,
    },
    /// Cancel a job by server-assigned id.
    Cancel {
        /// The id from the `accepted` response.
        id: u64,
    },
    /// Request a stats snapshot.
    Stats,
    /// Drain in-flight jobs and stop.
    Shutdown,
}

/// Parses one request line. The error string is ready for an
/// [`error_line`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    if let Some(proto) = v.get("proto") {
        let proto = proto
            .as_u64()
            .ok_or("proto must be a non-negative integer")?;
        if proto > PROTO_VERSION {
            return Err(format!(
                "request speaks protocol {proto}, this build speaks up to {PROTO_VERSION}"
            ));
        }
    }
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\" field")?;
    match op {
        "submit" => {
            let tag = v.get("tag").and_then(Value::as_str).map(str::to_owned);
            let spec = match v.get("spec") {
                Some(sv) => JobSpec::from_value(sv)?,
                None => JobSpec::default(),
            };
            Ok(Request::Submit { tag, spec })
        }
        "cancel" => {
            let id = v
                .get("id")
                .and_then(Value::as_u64)
                .ok_or("cancel needs a numeric \"id\"")?;
            Ok(Request::Cancel { id })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn base(kind: &str) -> Vec<(&'static str, Value)> {
    vec![
        ("proto", Value::Num(PROTO_VERSION as f64)),
        ("type", Value::Str(kind.to_string())),
    ]
}

fn with_tag(
    mut entries: Vec<(&'static str, Value)>,
    tag: Option<&str>,
) -> Vec<(&'static str, Value)> {
    if let Some(t) = tag {
        entries.push(("tag", Value::Str(t.to_string())));
    }
    entries
}

/// `accepted` response: the job got a slot and a server id.
pub fn accepted_line(id: u64, tag: Option<&str>) -> String {
    let mut e = base("accepted");
    e.push(("id", Value::Num(id as f64)));
    Value::obj(with_tag(e, tag)).to_json()
}

/// `rejected` response for an admission refusal (no server id) or a
/// terminal rejection of an admitted job (id present).
pub fn rejected_line(
    id: Option<u64>,
    tag: Option<&str>,
    reason: &crate::job::RejectReason,
) -> String {
    let mut e = base("rejected");
    if let Some(id) = id {
        e.push(("id", Value::Num(id as f64)));
    }
    e.push(("reason", Value::Str(reason.name().to_string())));
    e.push(("detail", Value::Str(reason.detail())));
    Value::obj(with_tag(e, tag)).to_json()
}

/// The terminal response for an admitted job: the bytes
/// [`write_outcome`] writes.
pub fn outcome_line(id: u64, tag: Option<&str>, outcome: &Outcome) -> String {
    let mut line = Vec::new();
    #[expect(clippy::expect_used, reason = "writing to a `Vec` cannot fail")]
    write_outcome(&mut line, id, tag, outcome).expect("a Vec takes every write");
    #[expect(
        clippy::expect_used,
        reason = "the line is made of `&str` pieces and ASCII, so it is UTF-8"
    )]
    String::from_utf8(line).expect("JSON text is UTF-8")
}

/// Writes the terminal response for an admitted job to `out`, without
/// the line's terminator. The `dump` pieces, already JSON string bodies,
/// are written in order from where they lie, so neither the dump nor
/// the line is copied whole; a `particles` text is escaped into a body
/// first.
///
/// # Errors
///
/// Propagates any I/O error from `out`.
pub fn write_outcome<W: Write>(
    out: &mut W,
    id: u64,
    tag: Option<&str>,
    outcome: &Outcome,
) -> io::Result<()> {
    let line = match outcome {
        Outcome::Rejected(reason) => rejected_line(Some(id), tag, reason),
        Outcome::Cancelled => {
            let mut e = base("cancelled");
            e.push(("id", Value::Num(id as f64)));
            Value::obj(with_tag(e, tag)).to_json()
        }
        Outcome::TimedOut => {
            let mut e = base("timed-out");
            e.push(("id", Value::Num(id as f64)));
            Value::obj(with_tag(e, tag)).to_json()
        }
        Outcome::Completed(r) => {
            let mut e = base("completed");
            e.push(("id", Value::Num(id as f64)));
            e.push(("nsps", Value::Num(r.nsps)));
            e.push(("queue_wait_ns", Value::Num(r.queue_wait_ns as f64)));
            e.push(("run_ns", Value::Num(r.run_ns as f64)));
            e.push(("batch_size", Value::Num(r.batch_size as f64)));
            e.push(("steps_done", Value::Num(r.steps_done as f64)));
            e.push(("imbalance", Value::Num(r.imbalance)));
            e.push(("time_imbalance", Value::Num(r.time_imbalance)));
            e.push(("cache_hit", Value::Bool(r.cache_hit)));
            // Additive: present only for domain-decomposed completions,
            // so pre-sharding clients never see the field.
            if r.shards > 0 {
                e.push(("shards", Value::Num(r.shards as f64)));
            }
            // Additive likewise: only merged parents measure a gather.
            if r.gather_ns > 0 {
                e.push(("gather_ns", Value::Num(r.gather_ns as f64)));
            }
            // Additive likewise: only an executed job has a setup.
            if r.setup_ns > 0 {
                e.push(("setup_ns", Value::Num(r.setup_ns as f64)));
            }
            if r.resumes > 0 {
                e.push(("resumes", Value::Num(r.resumes as f64)));
                e.push(("resumed_from_step", Value::Num(r.resumed_from_step as f64)));
            }
            let e = with_tag(e, tag);
            let body;
            let pieces: Vec<&str> = match &r.particles {
                Some(text) => {
                    body = str_body(text);
                    vec![&body]
                }
                None => r.dump.iter().map(|piece| piece.as_str()).collect(),
            };
            if !pieces.is_empty() {
                return write_obj_with_str(out, e, "particles", &pieces);
            }
            Value::obj(e).to_json()
        }
    };
    out.write_all(line.as_bytes())
}

/// Response to a `cancel` request.
pub fn cancel_result_line(id: u64, result: CancelResult) -> String {
    let mut e = base("cancel-result");
    e.push(("id", Value::Num(id as f64)));
    e.push(("result", Value::Str(result.name().to_string())));
    Value::obj(e).to_json()
}

/// Response to a `stats` request: every member of the snapshot, by its
/// field name.
pub fn stats_line(stats: &ServeStats) -> String {
    let mut e = base("stats");
    for (name, value) in stats.members() {
        e.push((name, Value::Num(value as f64)));
    }
    Value::obj(e).to_json()
}

/// Acknowledgment of a `shutdown` request (drain follows).
pub fn shutting_down_line() -> String {
    Value::obj(base("shutting-down")).to_json()
}

/// Response to an unintelligible line.
pub fn error_line(message: &str) -> String {
    let mut e = base("error");
    e.push(("message", Value::Str(message.to_string())));
    Value::obj(e).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RejectReason;

    #[test]
    fn submit_line_parses_spec_and_tag() {
        let line = r#"{"proto":1,"op":"submit","tag":"a","spec":{"scenario":"analytical","particles":100,"steps":2,"priority":"high"}}"#;
        let Ok(Request::Submit { tag, spec }) = parse_request(line) else {
            panic!("not a submit");
        };
        assert_eq!(tag.as_deref(), Some("a"));
        assert_eq!(spec.particles, 100);
        assert_eq!(spec.priority, crate::job::Priority::High);
    }

    #[test]
    fn newer_protocol_is_refused() {
        let err = parse_request(r#"{"proto":99,"op":"stats"}"#).unwrap_err();
        assert!(err.contains("protocol 99"), "{err}");
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"cancel"}"#).is_err());
    }

    #[test]
    fn responses_are_single_json_lines() {
        let lines = [
            accepted_line(3, Some("t")),
            rejected_line(None, None, &RejectReason::QueueFull),
            outcome_line(3, Some("t"), &Outcome::Cancelled),
            cancel_result_line(3, CancelResult::Requested),
            shutting_down_line(),
            error_line("nope"),
        ];
        for line in lines {
            assert!(!line.contains('\n'));
            let v = parse(&line).unwrap();
            assert_eq!(v.get("proto").and_then(Value::as_u64), Some(PROTO_VERSION));
            assert!(v.get("type").and_then(Value::as_str).is_some());
        }
    }

    #[test]
    fn completed_response_carries_the_report() {
        let report = crate::job::JobReport {
            nsps: 12.5,
            queue_wait_ns: 100,
            setup_ns: 40,
            run_ns: 5_000,
            batch_size: 3,
            steps_done: 7,
            imbalance: 1.1,
            time_imbalance: 0.0,
            particles: Some("# header\n".to_string()),
            dump: Vec::new(),
            cache_hit: false,
            resumes: 2,
            resumed_from_step: 5,
            shards: 0,
            columns: None,
            render_ns: 0,
            gather_ns: 0,
        };
        let line = outcome_line(9, None, &Outcome::Completed(report));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("completed"));
        assert_eq!(v.get("batch_size").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("setup_ns").and_then(Value::as_u64), Some(40));
        assert_eq!(v.get("steps_done").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("cache_hit"), Some(&Value::Bool(false)));
        assert_eq!(v.get("resumes").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("resumed_from_step").and_then(Value::as_u64), Some(5));
        assert!(v.get("particles").is_some());
        assert!(
            v.get("shards").is_none(),
            "monolithic completions omit the shards field"
        );
        assert!(
            v.get("gather_ns").is_none(),
            "monolithic completions omit the gather_ns field"
        );
    }

    /// The `completed` line with the dump cloned into a `Value::Str`
    /// like every other member — how the line was built before the dump
    /// was escaped in place, and what it must still equal.
    fn completed_line_via_value(id: u64, tag: Option<&str>, r: &crate::job::JobReport) -> String {
        let mut e = base("completed");
        e.push(("id", Value::Num(id as f64)));
        e.push(("nsps", Value::Num(r.nsps)));
        e.push(("queue_wait_ns", Value::Num(r.queue_wait_ns as f64)));
        e.push(("run_ns", Value::Num(r.run_ns as f64)));
        e.push(("batch_size", Value::Num(r.batch_size as f64)));
        e.push(("steps_done", Value::Num(r.steps_done as f64)));
        e.push(("imbalance", Value::Num(r.imbalance)));
        e.push(("time_imbalance", Value::Num(r.time_imbalance)));
        e.push(("cache_hit", Value::Bool(r.cache_hit)));
        for (name, value) in [
            ("shards", r.shards as u64),
            ("gather_ns", r.gather_ns),
            ("setup_ns", r.setup_ns),
            ("resumes", r.resumes),
        ] {
            if value > 0 {
                e.push((name, Value::Num(value as f64)));
            }
        }
        if r.resumes > 0 {
            e.push(("resumed_from_step", Value::Num(r.resumed_from_step as f64)));
        }
        if let Some(p) = &r.particles {
            e.push(("particles", Value::Str(p.clone())));
        }
        Value::obj(with_tag(e, tag)).to_json()
    }

    #[test]
    fn a_dump_escaped_in_place_gives_the_line_the_value_route_gives() {
        let looks_like_a_member = r#"","particles":"","proto":9,"x":""#;
        let rows: String = (0..300)
            .map(|i| {
                format!(
                    "{:e} {:e} {i}\n",
                    i as f64 * 1.7e-5,
                    -1.0 / (i as f64 + 3.0)
                )
            })
            .collect();
        let dumps = [
            String::new(),
            "# x y z px py pz weight gamma species\n".to_string(),
            rows,
            looks_like_a_member.to_string(),
            "quote \" backslash \\ tab \t cr \r nul \u{0} esc \u{1b} del \u{7f} é ∑ 🦀\n"
                .to_string(),
        ];
        let tags = [
            None,
            Some("t"),
            Some(looks_like_a_member),
            Some("q\"\\\n\u{1}"),
        ];
        // Every subset of the optional members, with and without a dump.
        for optional in 0..16u32 {
            let on = |bit: u32| u64::from(optional >> bit & 1);
            let report = crate::job::JobReport {
                nsps: 3.25,
                queue_wait_ns: 17,
                run_ns: 1 << 40,
                batch_size: 1,
                steps_done: 20,
                imbalance: 1.0625,
                shards: on(0) as usize * 4,
                gather_ns: on(1) * 750,
                setup_ns: on(2) * 40,
                resumes: on(3) * 2,
                resumed_from_step: on(3) * 10,
                ..Default::default()
            };
            for tag in tags {
                for dump in dumps.iter().map(Some).chain([None]) {
                    let report = crate::job::JobReport {
                        particles: dump.cloned(),
                        ..report.clone()
                    };
                    let expect = completed_line_via_value(9, tag, &report);
                    // The same text as the service holds it: in pieces,
                    // cut at a third and two thirds (on characters), each
                    // the body of a JSON string.
                    let pieces = dump.map_or_else(Vec::new, |text| {
                        let cut = |at: usize| (at..).find(|&i| text.is_char_boundary(i)).unwrap();
                        let (a, b) = (cut(text.len() / 3), cut(2 * text.len() / 3));
                        [&text[..a], &text[a..b], &text[b..]]
                            .map(|p| std::sync::Arc::new(str_body(p).into()))
                            .to_vec()
                    });
                    let in_pieces = crate::job::JobReport {
                        particles: None,
                        dump: pieces,
                        ..report.clone()
                    };
                    let line = outcome_line(9, tag, &Outcome::Completed(in_pieces));
                    assert_eq!(line, expect, "from pieces");
                    let line = outcome_line(9, tag, &Outcome::Completed(report));
                    assert_eq!(line, expect);
                    let v = parse(&line).unwrap();
                    assert_eq!(
                        v.get("particles").and_then(Value::as_str),
                        dump.map(|d| &**d)
                    );
                    assert_eq!(v.get("tag").and_then(Value::as_str), tag);
                }
            }
        }
    }

    #[test]
    fn sharded_completion_reports_its_shard_count() {
        let report = crate::job::JobReport {
            nsps: 2.0,
            steps_done: 10,
            batch_size: 1,
            shards: 4,
            gather_ns: 750,
            ..Default::default()
        };
        let line = outcome_line(5, None, &Outcome::Completed(report));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("gather_ns").and_then(Value::as_u64), Some(750));
    }

    #[test]
    fn uninterrupted_completion_omits_resume_fields() {
        let report = crate::job::JobReport {
            nsps: 1.0,
            steps_done: 10,
            batch_size: 1,
            cache_hit: true,
            ..Default::default()
        };
        let line = outcome_line(2, None, &Outcome::Completed(report));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("cache_hit"), Some(&Value::Bool(true)));
        assert!(v.get("resumes").is_none());
        assert!(v.get("resumed_from_step").is_none());
        assert!(v.get("setup_ns").is_none(), "a cache hit set nothing up");
    }

    #[test]
    fn stats_line_carries_cache_and_resume_counters() {
        let stats = ServeStats {
            submitted: 5,
            completed: 4,
            cache_hits: 2,
            resumed: 3,
            sharded: 1,
            ..Default::default()
        };
        let line = stats_line(&stats);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("cache_hits").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("resumed").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("sharded").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn stats_line_carries_every_field_of_the_snapshot() {
        // Distinct non-zero values, so a member wired to the wrong field
        // shows as well as a missing one.
        let stats = ServeStats {
            submitted: 1,
            completed: 2,
            rejected: 3,
            cancelled: 4,
            timed_out: 5,
            depth: 6,
            cache_hits: 7,
            resumed: 8,
            exec_overruns: 9,
            sharded: 10,
        };
        let v = parse(&stats_line(&stats)).unwrap();
        // The field names and values come from the struct's derived
        // `Debug`, not from the counter table the line is built from: an
        // eleventh field that is not on the wire fails here.
        let debug = format!("{stats:?}");
        let fields: Vec<(&str, u64)> = debug
            .trim_start_matches("ServeStats {")
            .trim_end_matches('}')
            .split(',')
            .filter_map(|field| field.split_once(':'))
            .map(|(name, value)| (name.trim(), value.trim().parse().unwrap()))
            .collect();
        assert_eq!(fields.len(), 10, "{debug}");
        for (name, value) in fields {
            assert!(value > 0, "{name} must be set non-zero above");
            assert_eq!(
                v.get(name).and_then(Value::as_u64),
                Some(value),
                "stats line lost `{name}`"
            );
        }
    }
}
