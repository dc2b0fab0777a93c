//! Pumps wire-protocol lines between an I/O pair and a [`Server`].
//!
//! Requests are read line-by-line from any `BufRead`, through a buffer
//! bounded at [`MAX_LINE_BYTES`]; a line that is longer, or not UTF-8,
//! is answered with an `error` line and the connection carries on.
//! Responses are funneled through an internal channel to a dedicated
//! writer thread, so
//! job-completion notifiers (which fire on scheduler threads) and
//! synchronous replies interleave without tearing lines. A job's outcome
//! crosses the channel as the outcome itself, its dump still in the
//! pieces it was rendered in: the writer serializes it straight into a
//! [`RESPONSE_BUFFER`]-byte buffer flushed to the output as it fills, so
//! a `completed` line carrying a dump of many megabytes is never built
//! whole. The
//! writer thread owns the output until every response for this connection has
//! been written — including the terminal response of every job submitted
//! on it — because each submission's notifier holds a channel sender and
//! the writer only exits when all senders are dropped.
//!
//! The `pic-serve` binary wires this to stdin/stdout (`--stdio`) or to
//! accepted Unix-domain-socket connections (`--socket`).

use crate::job::Outcome;
use crate::proto::{
    accepted_line, cancel_result_line, error_line, parse_request, rejected_line,
    shutting_down_line, stats_line, write_outcome, Request,
};
use crate::scheduler::{JobTicket, Server, ShutdownReport};
use pic_runtime::sync::lock;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Longest request line (terminator included) the frontend buffers. A
/// submit line is a small JSON object.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Bytes the writer collects before it writes to the output: a whole
/// line unless the line is longer, so a small reply is one write.
const RESPONSE_BUFFER: usize = 64 * 1024;

/// One response line on its way to the writer thread.
enum Response {
    /// A reply rendered where it was made.
    Line(String),
    /// A job's terminal outcome, serialized by the writer.
    Outcome {
        id: u64,
        tag: Option<String>,
        outcome: Outcome,
    },
}

/// Reads the next request line, without its terminator. `None` is end
/// of input; `Some(Err(why))` is a line the frontend refuses — longer
/// than [`MAX_LINE_BYTES`] or not UTF-8 — which has been consumed
/// through its newline, so the next read starts on the next line.
fn read_request_line<I: BufRead>(input: &mut I) -> io::Result<Option<Result<String, String>>> {
    let mut line = Vec::new();
    let mut bounded = (&mut *input).take(MAX_LINE_BYTES as u64);
    if bounded.read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') && line.len() == MAX_LINE_BYTES {
        // Discard the rest of the line a buffer-full at a time.
        loop {
            let seen = input.fill_buf()?;
            let newline = seen.iter().position(|&b| b == b'\n');
            let used = newline.map_or(seen.len(), |at| at + 1);
            input.consume(used);
            if newline.is_some() || used == 0 {
                break;
            }
        }
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))));
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    Ok(Some(String::from_utf8(line).map_err(|_| {
        "request line is not valid UTF-8".to_string()
    })))
}

/// What a finished [`serve_lines`] session hands back.
pub struct ServeOutcome<O> {
    /// The output sink, returned once every response has been written.
    pub output: O,
    /// The drained server's final stats and telemetry records.
    pub report: ShutdownReport,
}

/// Serves one connection: reads requests from `input` until EOF or a
/// `shutdown` request, writing every response (including asynchronous
/// job outcomes) to `output`. Returns the output plus whether shutdown
/// was requested. The server itself keeps running — callers owning
/// multiple connections decide when to drain it.
pub fn serve_connection<I, O>(server: &Server, input: I, output: O) -> io::Result<(O, bool)>
where
    I: BufRead,
    O: Write + Send + 'static,
{
    serve_connection_keeping(server, input, output, |_| {})
}

/// [`serve_connection`], handing the ticket of every job it admits to
/// `keep` (a test reads the outcome each line was written from).
fn serve_connection_keeping<I, O>(
    server: &Server,
    mut input: I,
    output: O,
    mut keep: impl FnMut(JobTicket),
) -> io::Result<(O, bool)>
where
    I: BufRead,
    O: Write + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = thread::spawn(move || -> io::Result<O> {
        let mut output = BufWriter::with_capacity(RESPONSE_BUFFER, output);
        for response in rx {
            match response {
                Response::Line(line) => output.write_all(line.as_bytes())?,
                Response::Outcome { id, tag, outcome } => {
                    write_outcome(&mut output, id, tag.as_deref(), &outcome)?
                }
            }
            output.write_all(b"\n")?;
            output.flush()?;
        }
        output.into_inner().map_err(io::IntoInnerError::into_error)
    });
    let mut shutdown_requested = false;
    while let Some(line) = read_request_line(&mut input)? {
        if line.as_ref().is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        let response = match line.and_then(|text| parse_request(&text)) {
            Err(why) => error_line(&why),
            Ok(Request::Submit { tag, spec }) => {
                // The outcome must follow `accepted` on the wire, but a
                // cache hit completes inside `submit` and a short job
                // can finish before it returns: until `accepted` is
                // queued the gate is `Some` and parks an early outcome.
                let gate = Arc::new(Mutex::new(Some(Vec::<Response>::new())));
                let notify_gate = gate.clone();
                let notify_tx = tx.clone();
                let notify_tag = tag.clone();
                let notifier = Box::new(move |id: u64, outcome: &Outcome| {
                    // A clone shares the dump's pieces; the writer
                    // serializes them.
                    let response = Response::Outcome {
                        id,
                        tag: notify_tag,
                        outcome: outcome.clone(),
                    };
                    match &mut *lock(&notify_gate) {
                        Some(parked) => parked.push(response),
                        // The connection may already be gone; a dead
                        // channel just drops the notification.
                        None => {
                            let _ = notify_tx.send(response);
                        }
                    }
                });
                let response = match server.submit(spec, Some(notifier)) {
                    Ok(ticket) => {
                        let line = accepted_line(ticket.id(), tag.as_deref());
                        keep(ticket);
                        line
                    }
                    Err(reason) => rejected_line(None, tag.as_deref(), &reason),
                };
                // Queue the response and open the gate under its lock,
                // so a concurrent outcome lands after it either way.
                let mut gate = lock(&gate);
                let mut sent = tx.send(Response::Line(response)).is_ok();
                for parked in gate.take().into_iter().flatten() {
                    sent &= tx.send(parked).is_ok();
                }
                if !sent {
                    break; // writer died (I/O error); surfaced via join
                }
                continue;
            }
            Ok(Request::Cancel { id }) => cancel_result_line(id, server.cancel_job(id)),
            Ok(Request::Stats) => stats_line(&server.stats()),
            Ok(Request::Shutdown) => {
                shutdown_requested = true;
                shutting_down_line()
            }
        };
        if tx.send(Response::Line(response)).is_err() {
            break; // writer died (I/O error); surface it via join below
        }
        if shutdown_requested {
            break;
        }
    }
    // Drop our sender; the writer exits once every in-flight job's
    // notifier (each holding a clone) has fired and dropped too — i.e.
    // once every job submitted on this connection is terminal. The
    // caller must drain the server concurrently or afterwards only if
    // jobs are still queued when shutdown was NOT requested; for the
    // shutdown path, `serve_lines` drains before the writer can finish.
    drop(tx);
    let output = writer
        .join()
        .map_err(|_| io::Error::other("response writer panicked"))??;
    Ok((output, shutdown_requested))
}

/// Serves one connection to completion, then drains the server: the
/// single-connection (`--stdio`) entry point. Every submitted job's
/// terminal response is written before this returns, because
/// [`serve_connection`] only returns once its writer thread — kept
/// alive by every pending job's notifier — has exited, and the server
/// is still executing jobs during that wait.
pub fn serve_lines<I, O>(server: Server, input: I, output: O) -> io::Result<ServeOutcome<O>>
where
    I: BufRead,
    O: Write + Send + 'static,
{
    let connection = serve_connection(&server, input, output);
    let report = server.shutdown();
    let (output, _) = connection?;
    Ok(ServeOutcome { output, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::outcome_line;
    use crate::scheduler::{ServeConfig, ServeStats};
    use pic_telemetry::json::{parse, Value};
    use std::io::Cursor;

    fn served(input: &str, cfg: ServeConfig) -> (Vec<String>, ShutdownReport) {
        let server = Server::start(cfg, "frontend-test");
        let out = serve_lines(server, Cursor::new(input.to_string()), Vec::<u8>::new())
            .expect("serve_lines");
        let text = String::from_utf8(out.output).expect("utf8");
        (text.lines().map(str::to_owned).collect(), out.report)
    }

    fn types(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                parse(l)
                    .expect("json line")
                    .get("type")
                    .and_then(Value::as_str)
                    .expect("type field")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn submit_gets_accepted_then_exactly_one_terminal_response() {
        let input = r#"{"op":"submit","tag":"t1","spec":{"particles":50,"steps":2}}"#;
        let (lines, report) = served(input, ServeConfig::default());
        let kinds = types(&lines);
        assert_eq!(kinds.iter().filter(|k| *k == "accepted").count(), 1);
        assert_eq!(kinds.iter().filter(|k| *k == "completed").count(), 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].outcome, "completed");
        let completed = lines
            .iter()
            .find(|l| l.contains("\"completed\""))
            .expect("completed line");
        let v = parse(completed).expect("json");
        assert_eq!(v.get("tag").and_then(Value::as_str), Some("t1"));
        assert!(v.get("nsps").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn accepted_precedes_completed_even_for_cache_hits() {
        let server = Server::start(ServeConfig::default(), "frontend-order");
        let spec = crate::job::JobSpec {
            particles: 50,
            steps: 2,
            ..Default::default()
        };
        // Warm the cache: both wire submits below complete inside `submit`.
        server.submit(spec, None).expect("admitted").wait();
        let submit = r#"{"op":"submit","spec":{"particles":50,"steps":2}}"#;
        let input = format!("{submit}\n{submit}");
        let out = serve_lines(server, Cursor::new(input), Vec::<u8>::new()).expect("serve_lines");
        assert_eq!(out.report.stats.cache_hits, 2);
        let text = String::from_utf8(out.output).expect("utf8");
        let lines: Vec<Value> = text.lines().map(|l| parse(l).expect("json")).collect();
        let index_of = |kind: &str, id: u64| {
            lines.iter().position(|v| {
                v.get("type").and_then(Value::as_str) == Some(kind)
                    && v.get("id").and_then(Value::as_u64) == Some(id)
            })
        };
        for id in [2, 3] {
            let accepted = index_of("accepted", id).expect("accepted line");
            let completed = index_of("completed", id).expect("completed line");
            assert!(accepted < completed, "job {id}: {text}");
        }
    }

    /// Serves `lines` on `server`, then checks that every `completed`
    /// line is, byte for byte, `outcome_line` of the outcome its job's
    /// ticket reads, and parses. Returns the server's final stats and
    /// the completed lines that carry a dump.
    fn check_lines_against_tickets(server: Server, lines: &[String]) -> (ServeStats, usize) {
        let mut tickets = Vec::new();
        let input = Cursor::new(lines.join("\n"));
        let (out, _) = serve_connection_keeping(&server, input, Vec::new(), |t| tickets.push(t))
            .expect("serve_connection");
        let stats = server.shutdown().stats;
        let text = String::from_utf8(out).expect("utf8");
        let mut tags = std::collections::HashMap::new();
        let mut with_dump = 0;
        for line in text.lines() {
            let v = parse(line).expect("every line parses");
            let id = v.get("id").and_then(Value::as_u64).expect("id");
            let tag = v.get("tag").and_then(Value::as_str).map(str::to_owned);
            match v.get("type").and_then(Value::as_str) {
                Some("accepted") => {
                    tags.insert(id, tag);
                }
                Some("completed") => {
                    let ticket = tickets.iter().find(|t| t.id() == id).expect("ticket");
                    let outcome = ticket.outcome().expect("terminal");
                    let expect = outcome_line(id, tags[&id].as_deref(), &outcome);
                    assert!(
                        line == expect,
                        "job {id}: the wire differs from outcome_line"
                    );
                    with_dump += usize::from(v.get("particles").is_some());
                }
                other => panic!("unexpected {other:?}: {line}"),
            }
        }
        assert_eq!(tags.len(), lines.len(), "every submission accepted");
        (stats, with_dump)
    }

    /// The bytes a connection streams are `outcome_line`'s: for a
    /// monolithic job, K ∈ {2, 3, 8} shards over an uneven plan, a
    /// submit-time and a claim-time cache hit, each tagged and untagged.
    #[test]
    fn the_wire_writes_outcome_line_of_every_tickets_outcome() {
        use crate::job::JobSpec;
        let spec = |seed: u64, asks: bool| JobSpec {
            particles: 101,
            steps: 3,
            seed,
            return_particles: asks,
            ..JobSpec::default()
        };
        // A job's submit line with a tag that needs escaping, and without.
        let submit = |spec: &JobSpec| {
            [Some("t\"1\\\n"), None].map(|tag| {
                let tag = tag.map(|t| ("tag", Value::Str(t.into())));
                let entries = [
                    ("op", Value::Str("submit".into())),
                    ("spec", spec.to_value()),
                ];
                Value::obj(entries.into_iter().chain(tag)).to_json()
            })
        };
        // Monolithic, and 101 particles split unevenly for every K (51/50,
        // 34/34/33, 13×5 + 12×3); no cache, so that every job runs.
        for shards in [0usize, 2, 3, 8] {
            let cfg = ServeConfig {
                cache_capacity: 0,
                shard_threshold: if shards > 0 { 10 } else { 0 },
                shards,
                ..ServeConfig::default()
            };
            let lines = [submit(&spec(10, true)), submit(&spec(11, false))].concat();
            let (stats, with_dump) =
                check_lines_against_tickets(Server::start(cfg, "wire"), &lines);
            assert_eq!(stats.sharded, if shards > 0 { 4 } else { 0 });
            assert_eq!(with_dump, 2, "K={shards}");
        }
        // Cache hits: the producer ran in process and did not ask.
        let server = Server::start(ServeConfig::default(), "wire-hit");
        server
            .submit(spec(30, false), None)
            .expect("admitted")
            .wait();
        let (stats, with_dump) = check_lines_against_tickets(server, &submit(&spec(30, true)));
        assert_eq!((stats.cache_hits, with_dump), (2, 2));
        // Claim-time hits: the one worker is busy with a long job, so the
        // producer waits in the queue while its duplicates arrive behind
        // it; the worker takes them after the producer filled the cache.
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let long = JobSpec {
            particles: 20_000,
            steps: 20,
            ..spec(40, false)
        };
        let [_, long] = submit(&long);
        let [_, producer] = submit(&spec(41, false));
        let lines = [vec![long, producer], submit(&spec(41, true)).to_vec()].concat();
        let (stats, with_dump) = check_lines_against_tickets(Server::start(cfg, "wire-f"), &lines);
        assert_eq!((stats.cache_hits, with_dump), (2, 2));
    }

    #[test]
    fn garbage_and_unknown_ops_get_error_responses() {
        let input = "not json\n{\"op\":\"warp\"}\n{\"op\":\"stats\"}";
        let (lines, _) = served(input, ServeConfig::default());
        let kinds = types(&lines);
        assert_eq!(kinds.iter().filter(|k| *k == "error").count(), 2);
        assert_eq!(kinds.iter().filter(|k| *k == "stats").count(), 1);
    }

    #[test]
    fn shutdown_op_acknowledges_and_stops_reading() {
        let input = "{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}";
        let (lines, _) = served(input, ServeConfig::default());
        let kinds = types(&lines);
        assert_eq!(kinds, vec!["shutting-down".to_string()]);
    }

    #[test]
    fn invalid_spec_is_rejected_synchronously() {
        let input = r#"{"op":"submit","spec":{"particles":0}}"#;
        let (lines, report) = served(input, ServeConfig::default());
        let kinds = types(&lines);
        assert_eq!(kinds, vec!["rejected".to_string()]);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.records.len(), 1, "shed jobs still emit records");
        assert_eq!(report.records[0].outcome, "rejected");
    }
}
