//! Command line: one workload in this process (the contract's form), the
//! whole suite in child processes (`run`), or the suite against itself
//! (`selfcheck`).

use crate::report::{human_lines, parse_result, result_line, RunResult};
use crate::spec::{MetricDef, Outcome, RunArgs, Workload, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{procfs, serve, sweep};
use pic_telemetry::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  pic-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
      one workload in this process; the last line of output is the result as JSON
  pic-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
      every workload, each in its own child process, one after another
  pic-benchmark selfcheck [--seed <n>] [--seconds <s>]
      the suite twice, interleaved (A, B, A, B), compared under BENCHMARK.json's bounds";

/// Suite runs per set in `selfcheck`: A, B, A, B.
const SELFCHECK_ROUNDS: usize = 2;

/// Parsed command line.
struct Opts {
    command: Option<String>,
    workload: Option<Workload>,
    args: RunArgs,
    out_dir: PathBuf,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: None,
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: 26.0,
            trace: false,
            quick: false,
        },
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "selfcheck" if opts.command.is_none() => opts.command = Some(arg.clone()),
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                opts.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.args.seconds > 0.0 && opts.args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                opts.args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value("a directory")?),
            "--quick" => opts.args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The metric list a run reports: end-to-end untraced, per-layer traced.
pub fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs one workload in this process. A traced run leaves its spans in
/// `out_dir/trace_<workload>.json`.
pub fn run_workload(workload: Workload, args: &RunArgs, out_dir: &Path) -> Outcome {
    let mut tracer = Tracer::new(args.trace);
    let mut out = match workload {
        Workload::SweepPrecalc | Workload::SweepAnalytic => sweep::run(workload, args, &mut tracer),
        Workload::ServeSmallOpen | Workload::ServeShardClosed => {
            serve::run(workload, args, &mut tracer)
        }
    };
    if args.trace {
        // Serve-only metrics read 0 on the sweeps, which run no service.
        for d in PER_LAYER {
            out.metrics.entry(d.name).or_insert(0.0);
        }
        for (name, ns) in tracer.self_times() {
            out.notes
                .push(format!("self time {name} {:.3} ms", ns as f64 / 1e6));
        }
        let path = out_dir.join(format!("trace_{}.json", workload.name()));
        match tracer.write_json(&path) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(err) => {
                out.failed += 1;
                out.notes
                    .push(format!("TRACE NOT WRITTEN to {}: {err}", path.display()));
            }
        }
    }
    out
}

fn print_one(workload: Workload, out: &Outcome, trace: bool) {
    let defs = metric_defs(trace);
    for line in human_lines(workload.name(), out, defs) {
        println!("{line}");
    }
    println!("{}", result_line(out, defs));
}

/// Runs `workload` in a child process of this executable and reads its
/// result line; the child's own lines are passed through.
fn run_child(workload: Workload, args: &RunArgs) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    parse_result(last)
        .filter(|_| output.status.success())
        .ok_or_else(|| {
            format!(
                "{} exited with {} and no result line; stderr: {}",
                workload.name(),
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })
}

fn selected(opts: &Opts) -> Vec<Workload> {
    opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn run_suite(opts: &Opts) -> ExitCode {
    println!(
        "machine: {} hardware threads, caches {}",
        procfs::nproc(),
        procfs::cache_summary()
    );
    let mut ok = true;
    for workload in selected(opts) {
        match run_child(workload, &opts.args) {
            Ok(result) => {
                ok &= result.correct;
                if !result.correct {
                    println!(
                        "{}: FAILED ({} of {} operations)",
                        workload.name(),
                        result.failed,
                        result.attempted
                    );
                }
            }
            Err(why) => {
                println!("{why}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `name → (bound, lower is better)` of `BENCHMARK.json`'s end-to-end metrics.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            let lower = m.get("better")?.as_str()? == "lower";
            Some((name, (m.get("bound")?.as_f64()?, lower)))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "malformed end_to_end entry".to_owned())
}

fn selfcheck(opts: &Opts) -> ExitCode {
    let bounds = match read_bounds(Path::new("BENCHMARK.json")) {
        Ok(b) => b,
        Err(why) => {
            eprintln!("selfcheck: {why} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    // values[set][workload][metric] = one value per round
    let mut values: [BTreeMap<(&str, String), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    for round in 0..SELFCHECK_ROUNDS {
        for (set, store) in values.iter_mut().enumerate() {
            for workload in selected(opts) {
                let args = RunArgs {
                    seed: opts.args.seed + (2 * round + set) as u64,
                    ..opts.args
                };
                match run_child(workload, &args) {
                    Ok(result) => {
                        ok &= result.correct;
                        for (name, v) in result.metrics {
                            store.entry((workload.name(), name)).or_default().push(v);
                        }
                    }
                    Err(why) => {
                        println!("{why}");
                        ok = false;
                    }
                }
            }
        }
    }
    println!(
        "{:<26} {:<14} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "bound"
    );
    for ((workload, name), a) in &values[0] {
        let (Some(b), Some(&(bound, lower))) =
            (values[1].get(&(*workload, name.clone())), bounds.get(name))
        else {
            continue;
        };
        let (ma, mb) = (median(a), median(b));
        let worse = if lower {
            (mb - ma) / ma
        } else {
            (ma - mb) / ma
        };
        let verdict = if worse > bound {
            ok = false;
            "WORSE"
        } else {
            ""
        };
        println!(
            "{workload:<26} {name:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>5.0}% {verdict}",
            worse * 100.0,
            bound * 100.0
        );
    }
    if ok {
        println!("selfcheck: the two sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

/// The program's entry point.
pub fn main(argv: &[String]) -> ExitCode {
    // Without FMA in the target features every `mul_add` in the kernels
    // lowers to a libm call and the numbers mean nothing. The flag comes
    // from the repository's `.cargo/config.toml`, which cargo only reads
    // when invoked from the repository root.
    if !cfg!(target_feature = "fma") {
        eprintln!(
            "pic-benchmark: built without FMA; build from the repository root \
             (cargo run --release --manifest-path benchmark/Cargo.toml) and leave RUSTFLAGS unset"
        );
        return ExitCode::from(2);
    }
    let opts = match parse_opts(argv) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("pic-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (opts.command.as_deref(), opts.workload) {
        (Some("run"), _) => run_suite(&opts),
        (Some("selfcheck"), _) => selfcheck(&opts),
        (_, Some(workload)) => {
            let out = run_workload(workload, &opts.args, &opts.out_dir);
            print_one(workload, &out, opts.args.trace);
            // The result line carries correctness; the exit code only
            // says the benchmark itself ran.
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
