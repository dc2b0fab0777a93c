//! Pumps wire-protocol lines between an I/O pair and a [`Server`].
//!
//! Requests are read line-by-line from any `BufRead`, through a buffer
//! bounded at [`MAX_LINE_BYTES`]; a line that is longer, or not UTF-8,
//! is answered with an `error` line and the connection carries on.
//! Responses are funneled through an internal channel to a dedicated
//! writer thread, so
//! job-completion notifiers (which fire on scheduler threads) and
//! synchronous replies interleave without tearing lines. The writer
//! thread owns the output until every response for this connection has
//! been written — including the terminal response of every job submitted
//! on it — because each submission's notifier holds a channel sender and
//! the writer only exits when all senders are dropped.
//!
//! The `pic-serve` binary wires this to stdin/stdout (`--stdio`) or to
//! accepted Unix-domain-socket connections (`--socket`).

use crate::proto::{
    accepted_line, cancel_result_line, error_line, outcome_line, parse_request, rejected_line,
    shutting_down_line, stats_line, Request,
};
use crate::scheduler::{Server, ShutdownReport};
use pic_runtime::sync::lock;
use std::io::{self, BufRead, Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// Longest request line (terminator included) the frontend buffers. A
/// submit line is a small JSON object.
const MAX_LINE_BYTES: usize = 64 * 1024;

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
pub fn serve_connection<I, O>(server: &Server, mut input: I, output: O) -> io::Result<(O, bool)>
where
    I: BufRead,
    O: Write + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || -> io::Result<O> {
        let mut output = output;
        for line in rx {
            output.write_all(line.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
        Ok(output)
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
                let gate = Arc::new(Mutex::new(Some(Vec::<String>::new())));
                let notify_gate = gate.clone();
                let notify_tx = tx.clone();
                let notify_tag = tag.clone();
                let notifier = Box::new(move |id: u64, outcome: &crate::job::Outcome| {
                    let line = outcome_line(id, notify_tag.as_deref(), outcome);
                    match &mut *lock(&notify_gate) {
                        Some(parked) => parked.push(line),
                        // The connection may already be gone; a dead
                        // channel just drops the notification.
                        None => {
                            let _ = notify_tx.send(line);
                        }
                    }
                });
                let response = match server.submit(spec, Some(notifier)) {
                    Ok(ticket) => accepted_line(ticket.id(), tag.as_deref()),
                    Err(reason) => rejected_line(None, tag.as_deref(), &reason),
                };
                // Queue the response and open the gate under its lock,
                // so a concurrent outcome lands after it either way.
                let mut gate = lock(&gate);
                let mut sent = tx.send(response).is_ok();
                for line in gate.take().into_iter().flatten() {
                    sent &= tx.send(line).is_ok();
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
        if tx.send(response).is_err() {
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
    use crate::scheduler::ServeConfig;
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
