//! The load generator's side of the wire protocol: one connection into
//! `pic_serve::frontend::serve_connection` over a Unix socket pair, in
//! process, so CPU time and peak memory cover the whole service.

use pic_serve::frontend::serve_connection;
use pic_serve::{JobSpec, Server};
use pic_telemetry::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Threads the load generator runs: one sender, one reader.
pub const GENERATOR_THREADS: usize = 2;
/// A reply that takes longer than this fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The submit request for `spec`, tagged with the job's index.
pub fn submit_line(tag: usize, spec: &JobSpec) -> String {
    Value::obj([
        ("op", Value::Str("submit".to_owned())),
        ("tag", Value::Str(tag.to_string())),
        ("spec", spec.to_value()),
    ])
    .to_json()
}

/// The members of a flat JSON object, values left as written (strings
/// keep their quotes and escapes). One linear pass: a completion line
/// that carries a 125 k-particle dump is 12 MB, and the workspace's own
/// `pic_telemetry::json::parse` re-validates the rest of the input at
/// every string character, which is quadratic in such a line. `None` for
/// anything but a flat object (no reply nests).
pub fn members(line: &str) -> Option<Vec<(&str, &str)>> {
    let bytes = line.as_bytes();
    // Index just past the string that opens at `at`.
    let string_end = |at: usize| -> Option<usize> {
        let mut i = at + 1;
        while *bytes.get(i)? != b'"' {
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        Some(i + 1)
    };
    let skip_ws = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    };
    let mut out = Vec::new();
    let mut i = skip_ws(0);
    if *bytes.get(i)? != b'{' {
        return None;
    }
    i = skip_ws(i + 1);
    if *bytes.get(i)? == b'}' {
        return Some(out);
    }
    loop {
        if *bytes.get(i)? != b'"' {
            return None;
        }
        let key_end = string_end(i)?;
        let key = line.get(i + 1..key_end - 1)?;
        i = skip_ws(key_end);
        if *bytes.get(i)? != b':' {
            return None;
        }
        i = skip_ws(i + 1);
        let value_end = match *bytes.get(i)? {
            b'"' => string_end(i)?,
            b'{' | b'[' => return None,
            _ => i + bytes[i..].iter().position(|b| matches!(b, b',' | b'}'))?,
        };
        out.push((key, line.get(i..value_end)?.trim_end()));
        i = skip_ws(value_end);
        match *bytes.get(i)? {
            b',' => i = skip_ws(i + 1),
            b'}' => return Some(out),
            _ => return None,
        }
    }
}

/// Undoes JSON string escapes (the body of a string, without quotes).
pub fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut chars = rest[at + 1..].chars();
        let mut taken = 1;
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let code = rest
                    .get(at + 2..at + 6)
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                taken = 5;
            }
            Some(c) => out.push(c),
            None => taken = 0,
        }
        rest = &rest[at + 1 + taken..];
    }
    out.push_str(rest);
    out
}

/// A terminal reply to one submitted job.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The job's tag (its index in the generator's list).
    pub tag: usize,
    /// When the reply line had been read, before it was parsed.
    pub received: Instant,
    /// `completed`, `rejected`, `cancelled` or `timed-out`.
    pub kind: String,
    /// Steps the service integrated (completed jobs).
    pub steps_done: usize,
    /// Server-reported queue wait, ns.
    pub queue_wait_ns: f64,
    /// Server-reported batch sweep time, ns.
    pub run_ns: f64,
    /// Server-reported shard gather time, ns (0 when unsharded).
    pub gather_ns: f64,
    /// Jobs in the batch this one ran in.
    pub batch_size: f64,
    /// Served from the result cache or a duplicate in flight.
    pub cache_hit: bool,
    /// The returned dump, kept only when the caller asked for it.
    pub particles: Option<String>,
}

/// What the reader makes of one line.
pub enum Line {
    /// A job's terminal reply.
    Terminal(Reply),
    /// A `stats` reply: jobs admitted and not yet terminal, and jobs
    /// coalesced onto a duplicate in flight.
    Stats {
        /// Admitted, not yet terminal.
        depth: f64,
        /// Follower submissions served by their primary's run.
        coalesced: f64,
    },
    /// `accepted` and anything else a client need not act on.
    Other,
}

/// The sending half of the connection.
pub struct Tx(UnixStream);

/// The receiving half of the connection. The line buffer is kept
/// between reads: a reply that carries a dump is 12 MB, and mapping
/// fresh pages for each would be the client's noise in the job latency.
pub struct Rx {
    reader: BufReader<UnixStream>,
    line: String,
}

/// The client end of the connection. The halves are separate fields so
/// an open loop can send from one thread while another reads.
pub struct Client {
    /// Requests go out here.
    pub tx: Tx,
    /// Replies come in here.
    pub rx: Rx,
}

impl Tx {
    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.0.write_all(line.as_bytes())?;
        self.0.write_all(b"\n")
    }

    /// Asks for the service's counters; the reply is a [`Line::Stats`].
    pub fn request_stats(&mut self) -> io::Result<()> {
        self.send("{\"op\":\"stats\"}")
    }
}

impl Rx {
    /// Reads and classifies the next line. `keep_particles` retains a
    /// returned dump (verified jobs only, so client work per reply is
    /// otherwise constant).
    pub fn read(&mut self, keep_particles: bool) -> io::Result<Line> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let received = Instant::now();
        let members =
            members(self.line.trim_end()).ok_or_else(|| io::Error::other("bad reply line"))?;
        let raw = |key: &str| members.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let num = |key: &str| raw(key).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        let text = |key: &str| raw(key).and_then(|v| v.strip_prefix('"')?.strip_suffix('"'));
        let kind = text("type").unwrap_or("");
        match kind {
            "stats" => Ok(Line::Stats {
                depth: num("depth"),
                coalesced: num("coalesced"),
            }),
            "completed" | "rejected" | "cancelled" | "timed-out" => {
                let tag = text("tag")
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| io::Error::other("terminal reply without a tag"))?;
                let particles = text("particles").filter(|_| keep_particles).map(unescape);
                Ok(Line::Terminal(Reply {
                    tag,
                    received,
                    kind: kind.to_owned(),
                    steps_done: num("steps_done") as usize,
                    queue_wait_ns: num("queue_wait_ns"),
                    run_ns: num("run_ns"),
                    gather_ns: num("gather_ns"),
                    batch_size: num("batch_size"),
                    cache_hit: raw("cache_hit") == Some("true"),
                    particles,
                }))
            }
            _ => Ok(Line::Other),
        }
    }

    /// Reads on until a job's terminal reply arrives.
    pub fn read_terminal(&mut self, keep_particles: bool) -> io::Result<Reply> {
        loop {
            if let Line::Terminal(reply) = self.read(keep_particles)? {
                return Ok(reply);
            }
        }
    }
}

impl Client {
    /// Connects to `server`: the service side of a socket pair is pumped
    /// by `serve_connection` on a scoped thread, which ends when the
    /// client [`close`](Client::close)s and every job has been answered.
    pub fn connect<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        server: &'env Server,
    ) -> io::Result<(Client, ScopedJoinHandle<'scope, io::Result<()>>)> {
        let (client, service) = UnixStream::pair()?;
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        let input = BufReader::new(service.try_clone()?);
        let pump = scope.spawn(move || serve_connection(server, input, service).map(|_| ()));
        let rx = Rx {
            reader: BufReader::with_capacity(1 << 16, client.try_clone()?),
            line: String::new(),
        };
        Ok((Client { tx: Tx(client), rx }, pump))
    }

    /// Submits `spec` and waits for its terminal reply (closed loop).
    /// Returns when the request was written, and the reply.
    pub fn call(&mut self, tag: usize, spec: &JobSpec, keep: bool) -> io::Result<(Instant, Reply)> {
        let line = submit_line(tag, spec);
        let sent = Instant::now();
        self.tx.send(&line)?;
        let reply = self.rx.read_terminal(keep)?;
        Ok((sent, reply))
    }

    /// Ends the request stream and reads the reply stream to its end:
    /// the service answers what is in flight, writes what it still owes
    /// (an `accepted` line can trail its job's `completed` line) and
    /// closes. Leaving such a line unread makes the service's side of the
    /// socket fail with `ECONNRESET`.
    pub fn close(mut self) -> io::Result<()> {
        self.tx.0.shutdown(Shutdown::Write)?;
        loop {
            self.rx.line.clear();
            if self.rx.reader.read_line(&mut self.rx.line)? == 0 {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_serve::proto::{outcome_line, stats_line};
    use pic_serve::{JobReport, Outcome, ServeStats};
    use pic_telemetry::json::parse;

    #[test]
    fn the_linear_scanner_agrees_with_the_workspace_parser() {
        let report = JobReport {
            nsps: 12.5,
            queue_wait_ns: 100,
            run_ns: 5_000,
            batch_size: 3,
            steps_done: 7,
            particles: Some("# x y \"z\"\n1e0 2e-3 \\ \t\u{1}\n".to_owned()),
            ..JobReport::default()
        };
        for line in [
            outcome_line(9, Some("41"), &Outcome::Completed(report)),
            outcome_line(9, Some("4"), &Outcome::Cancelled),
            stats_line(&ServeStats::default()),
        ] {
            let reference = parse(&line).expect("workspace parser");
            let scanned = members(&line).expect("flat object");
            let Value::Obj(entries) = &reference else {
                panic!("not an object")
            };
            assert_eq!(scanned.len(), entries.len());
            for (key, raw) in scanned {
                match &entries[key] {
                    Value::Str(s) => {
                        assert_eq!(&unescape(&raw[1..raw.len() - 1]), s, "{key}")
                    }
                    Value::Num(n) => assert_eq!(raw.parse::<f64>().ok(), Some(*n), "{key}"),
                    Value::Bool(b) => assert_eq!(raw, b.to_string(), "{key}"),
                    other => panic!("unexpected value {other:?}"),
                }
            }
        }
        assert_eq!(members("{}"), Some(vec![]));
        assert_eq!(members("{\"a\":{\"b\":1}}"), None);
        assert_eq!(members("{\"a\":1"), None);
        assert_eq!(members("not json"), None);
    }

    #[test]
    fn submit_lines_parse_back_to_their_spec() {
        let spec = JobSpec {
            particles: 777,
            device: "iris-xe-max".to_owned(),
            ..JobSpec::default()
        };
        let parsed = pic_serve::proto::parse_request(&submit_line(5, &spec)).expect("parses");
        assert_eq!(
            parsed,
            pic_serve::proto::Request::Submit {
                tag: Some("5".to_owned()),
                spec
            }
        );
    }
}
