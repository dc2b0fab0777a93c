//! `pic-serve`: the simulation job service binary.
//!
//! Speaks the line-delimited JSON protocol (see EXPERIMENTS.md, "Wire
//! protocol") over stdin/stdout by default, or over a Unix-domain
//! socket with `--socket PATH`. Offline-safe: no network, no external
//! dependencies.
//!
//! ```text
//! pic-serve [--stdio | --socket PATH] [--workers N] [--queue-depth N]
//!           [--threads N] [--cache N] [--checkpoint-interval N]
//!           [--shard-threshold N] [--shards K|auto]
//!           [--label NAME] [--telemetry PATH]
//! ```

use pic_runtime::Topology;
use pic_serve::frontend::{serve_connection, serve_lines};
use pic_serve::{ServeConfig, Server, ShutdownReport};
use pic_telemetry::write_records;
use std::io::{self, BufReader, Write};
use std::path::PathBuf;
use std::process;

enum Transport {
    Stdio,
    #[cfg(unix)]
    Socket(PathBuf),
}

struct Args {
    transport: Transport,
    cfg: ServeConfig,
    label: String,
    telemetry: Option<PathBuf>,
}

fn usage() -> String {
    "usage: pic-serve [--stdio | --socket PATH] [--workers N] \
     [--queue-depth N] [--threads N] [--cache N] \
     [--checkpoint-interval N] [--shard-threshold N] [--shards K|auto] \
     [--label NAME] [--telemetry PATH]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        transport: Transport::Stdio,
        cfg: ServeConfig::default(),
        label: "serve".to_string(),
        telemetry: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--stdio" => args.transport = Transport::Stdio,
            "--socket" => {
                let path = value("--socket")?;
                #[cfg(unix)]
                {
                    args.transport = Transport::Socket(PathBuf::from(path));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err("--socket is only supported on unix".to_string());
                }
            }
            "--workers" => {
                args.cfg.workers = parse_count("--workers", &value("--workers")?)?;
            }
            "--queue-depth" => {
                args.cfg.queue_capacity = parse_count("--queue-depth", &value("--queue-depth")?)?;
            }
            "--threads" => {
                let threads = parse_count("--threads", &value("--threads")?)?.max(1);
                args.cfg.topology = Topology::single(threads);
            }
            "--cache" => {
                args.cfg.cache_capacity = parse_count("--cache", &value("--cache")?)?;
            }
            "--checkpoint-interval" => {
                args.cfg.checkpoint_interval =
                    parse_count("--checkpoint-interval", &value("--checkpoint-interval")?)?;
            }
            "--shard-threshold" => {
                args.cfg.shard_threshold =
                    parse_count("--shard-threshold", &value("--shard-threshold")?)?;
            }
            "--shards" => {
                let raw = value("--shards")?;
                // "auto" = one shard per worker, decided at fan-out time.
                args.cfg.shards = if raw == "auto" {
                    0
                } else {
                    parse_count("--shards", &raw)?
                };
            }
            "--label" => args.label = value("--label")?,
            "--telemetry" => args.telemetry = Some(PathBuf::from(value("--telemetry")?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_count(name: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .map_err(|_| format!("{name} needs a non-negative integer, got {raw:?}"))
}

fn finish(report: &ShutdownReport, telemetry: Option<&PathBuf>) -> io::Result<()> {
    if let Some(path) = telemetry {
        write_records(path, &report.records)?;
    }
    let s = &report.stats;
    eprintln!(
        "pic-serve: {} submitted, {} completed ({} cache hits), \
         {} rejected, {} cancelled, {} timed out, {} resumed, {} sharded",
        s.submitted,
        s.completed,
        s.cache_hits,
        s.rejected,
        s.cancelled,
        s.timed_out,
        s.resumed,
        s.sharded
    );
    Ok(())
}

fn run_stdio(args: &Args) -> io::Result<()> {
    let server = Server::start(args.cfg.clone(), &args.label);
    let stdin = io::stdin();
    let out = serve_lines(server, stdin.lock(), io::stdout())?;
    finish(&out.report, args.telemetry.as_ref())
}

#[cfg(unix)]
fn run_socket(args: &Args, path: &PathBuf) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    eprintln!("pic-serve: listening on {}", path.display());
    let server = Server::start(args.cfg.clone(), &args.label);
    let mut shutdown_requested = false;
    while !shutdown_requested {
        let (stream, _) = listener.accept()?;
        let reader = BufReader::new(stream.try_clone()?);
        match serve_connection(&server, reader, stream) {
            Ok((mut stream, wants_shutdown)) => {
                let _ = stream.flush();
                shutdown_requested = wants_shutdown;
            }
            Err(err) => eprintln!("pic-serve: connection error: {err}"),
        }
    }
    let report = server.shutdown();
    let _ = std::fs::remove_file(path);
    finish(&report, args.telemetry.as_ref())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            process::exit(2);
        }
    };
    let result = match &args.transport {
        Transport::Stdio => run_stdio(&args),
        #[cfg(unix)]
        Transport::Socket(path) => run_socket(&args, &path.clone()),
    };
    if let Err(err) = result {
        eprintln!("pic-serve: {err}");
        process::exit(1);
    }
}
