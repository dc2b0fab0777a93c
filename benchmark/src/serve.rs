//! The two serving workloads, driven over the wire protocol.
//!
//! An *operation* is one job: request line written (open loop: *due*)
//! to `completed` line read. A job that is refused, times out, stops
//! short of its steps or returns a wrong dump is a failed operation.

use crate::check::reference_dump;
use crate::jobs::{shard_job, Arrival, RatePhase, SmallMix, JOB_STEPS};
use crate::layers;
use crate::procfs::{cpu_ns, nproc, peak_rss_mib};
use crate::spec::{more_setups, Metrics, Outcome, RunArgs, Workload};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::Tracer;
use crate::wire::{submit_line, Client, Line, Reply, GENERATOR_THREADS};
use pic_serve::{JobSpec, ServeConfig, Server};
use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// The open loop's rate, jobs per second. The traced run walks a ladder
/// around it: half of it, then it, then twice it, for 0.2 / 0.6 / 0.2 of
/// its time.
pub const BASE_RATE: f64 = 150.0;
const LADDER: [(f64, f64); 3] = [(0.5, 0.2), (1.0, 0.6), (2.0, 0.2)];
/// The ladder phase at [`BASE_RATE`].
const MAIN_PHASE: usize = 1;
/// Latency limit on the open loop's 90th percentile: 1.5 × the 10 ms
/// p90 measured at [`BASE_RATE`] when the benchmark was defined.
pub const JOB_SLO_MS: f64 = 15.0;
/// The open loop is only valid while the sender keeps its schedule: a
/// median request written later than this means the generator, not the
/// service, set the pace. (The p99 is reported, not judged: on a shared
/// machine one host stall of tens of ms lands there, and latency counts
/// from due time, so the jobs it delayed already carry it.)
const MAX_LATE_P50_MS: f64 = 1.0;
/// Jobs of the small-job warm-up that ends a set-up, beyond the pool:
/// enough that set-up takes a few tenths of a second and its time is the
/// sum of many jobs, not the luck of a few.
const SMALL_WARMUP_JOBS: usize = 120;
/// Every this-many-th small job is resubmitted and its dump verified.
const VERIFY_EVERY: usize = 100;
/// Sharded jobs whose dumps are verified.
const SHARD_VERIFIED: usize = 2;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Starts a server, connects the one client, runs `body` with it and the
/// instant set-up began, then drains and stops the server.
pub fn with_service<T>(
    cfg: ServeConfig,
    body: impl FnOnce(&mut Client, Instant) -> io::Result<T>,
) -> io::Result<T> {
    let began = Instant::now();
    let server = Server::start(cfg, "benchmark");
    let out = thread::scope(|scope| {
        let (mut client, pump) = Client::connect(scope, &server)?;
        let out = body(&mut client, began);
        let ctx = |what: &'static str| move |e: io::Error| io::Error::other(format!("{what}: {e}"));
        client.close().map_err(ctx("closing the request stream"))?;
        pump.join()
            .expect("the connection thread does not panic")
            .map_err(ctx("serve_connection"))?;
        out.map_err(ctx("client"))
    });
    server.shutdown();
    out
}

/// Sets the service up again and again — server started, client
/// connected, `warm_up` drained — stopping all but the last, on which
/// `timed` then runs. `timed` also gets every set-up's duration, seconds.
fn with_warm_service(
    cfg: &ServeConfig,
    warm_up: impl Fn(&mut Client) -> io::Result<()>,
    timed: impl FnOnce(&mut Client, &[f64]) -> io::Result<Outcome>,
) -> io::Result<Outcome> {
    // One set-up: its duration, from before the server started.
    let set_up = |client: &mut Client, began: Instant| {
        warm_up(client).map(|()| began.elapsed().as_secs_f64())
    };
    let mut setup_s = Vec::new();
    while more_setups(&setup_s, 1) {
        setup_s.push(with_service(cfg.clone(), set_up)?);
    }
    with_service(cfg.clone(), |client, began| {
        setup_s.push(set_up(client, began)?);
        timed(client, &setup_s)
    })
}

/// Submits every spec at once and waits until all are answered (the
/// warm-up; never timed).
fn burst(client: &mut Client, specs: &[JobSpec]) -> io::Result<()> {
    for (tag, spec) in specs.iter().enumerate() {
        client.tx.send(&submit_line(tag, spec))?;
    }
    for _ in specs {
        client.rx.read_terminal(false)?;
    }
    Ok(())
}

fn completed(reply: &Reply, spec: &JobSpec) -> bool {
    reply.kind == "completed" && reply.steps_done == spec.steps
}

/// Records a job's span and the server-reported phases inside it.
fn record_job(tracer: &mut Tracer, start_ns: u64, reply: &Reply) {
    let end_ns = tracer.ns_of(reply.received);
    let op = reply.tag as u64;
    let job = tracer.record("serve.job", start_ns, end_ns, None, op);
    let queued = start_ns + reply.queue_wait_ns as u64;
    let ran = queued + reply.run_ns as u64;
    tracer.record("serve.queue_wait", start_ns, queued, job, op);
    tracer.record("serve.run", queued, ran, job, op);
    if reply.gather_ns > 0.0 {
        tracer.record("serve.gather", ran, ran + reply.gather_ns as u64, job, op);
    }
}

/// What one pass through an open-loop schedule measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Job latency from *due* time, ms, per rate phase, in reply order.
    pub latency_ms: Vec<Vec<f64>>,
    /// How late each request was written, ms, per rate phase, in job order.
    pub late_ms: Vec<Vec<f64>>,
    /// Jobs admitted and not yet terminal when each phase stopped sending.
    pub depth: Vec<f64>,
    /// Process CPU ns at the start of each phase, and at the end of the last.
    pub cpu: Vec<u64>,
    /// Every terminal reply, in arrival order.
    pub replies: Vec<Reply>,
    /// The service's `coalesced` counter after the last phase.
    pub coalesced: f64,
}

/// Sends `arrivals` on schedule from this thread while a second thread
/// reads the replies. Latency counts from each job's due time, so a
/// sender that falls behind charges the wait to the jobs it delayed
/// instead of hiding it. `stall` is the tests' way to make the sender
/// fall behind: sleep that long before writing that job.
pub fn open_loop(
    client: &mut Client,
    arrivals: &[Arrival],
    phases: usize,
    tracer: &mut Tracer,
    stall: Option<(usize, Duration)>,
) -> io::Result<OpenLoop> {
    let lines: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(tag, a)| submit_line(tag, &a.spec))
        .collect();
    let mut out = OpenLoop {
        latency_ms: vec![Vec::new(); phases],
        late_ms: vec![Vec::new(); phases],
        ..OpenLoop::default()
    };
    let Client { tx, rx } = client;
    let mut side = tracer.fork();
    let start = Instant::now() + Duration::from_millis(20);
    let start_ns = tracer.ns_of(start);
    let (replies, depth, coalesced, side) = thread::scope(|scope| {
        let reader = scope.spawn(move || -> io::Result<_> {
            let mut replies = Vec::with_capacity(arrivals.len());
            let (mut depth, mut coalesced) = (Vec::with_capacity(phases), 0.0);
            while replies.len() < arrivals.len() || depth.len() < phases {
                match rx.read(false)? {
                    Line::Terminal(reply) => {
                        if side.enabled() {
                            record_job(&mut side, start_ns + arrivals[reply.tag].due_ns, &reply);
                        }
                        replies.push(reply);
                    }
                    Line::Stats {
                        depth: d,
                        coalesced: c,
                    } => {
                        depth.push(d);
                        coalesced = c;
                    }
                    Line::Other => {}
                }
            }
            Ok((replies, depth, coalesced, side))
        });
        let mut phase = 0;
        out.cpu.push(cpu_ns());
        for (tag, (arrival, line)) in arrivals.iter().zip(&lines).enumerate() {
            if let Some((_, pause)) = stall.filter(|&(at, _)| at == tag) {
                thread::sleep(pause);
            }
            if arrival.phase != phase {
                phase = arrival.phase;
                tx.request_stats()?;
                out.cpu.push(cpu_ns());
            }
            let due = start + Duration::from_nanos(arrival.due_ns);
            thread::sleep(due.saturating_duration_since(Instant::now()));
            out.late_ms[phase].push(ms(Instant::now().saturating_duration_since(due)));
            tx.send(line)?;
        }
        tx.request_stats()?;
        let read = reader.join().expect("the reader thread does not panic");
        out.cpu.push(cpu_ns());
        read
    })?;
    tracer.absorb(side);
    for reply in &replies {
        let a = &arrivals[reply.tag];
        let due = start + Duration::from_nanos(a.due_ns);
        out.latency_ms[a.phase].push(ms(reply.received.saturating_duration_since(due)));
    }
    (out.replies, out.depth, out.coalesced) = (replies, depth, coalesced);
    Ok(out)
}

fn ladder(seconds: f64) -> Vec<RatePhase> {
    LADDER
        .iter()
        .map(|&(rate, share)| RatePhase {
            rate: BASE_RATE * rate,
            seconds: seconds * share,
        })
        .collect()
}

fn particle_steps<'a>(specs: impl Iterator<Item = &'a JobSpec>) -> f64 {
    specs.map(|s| (s.particles * s.steps) as f64).sum()
}

fn p(values: &[f64], pct: f64) -> f64 {
    percentile(&sorted(values.to_vec()), pct)
}

/// The per-layer metrics every serve workload takes from its replies.
fn insert_reply_metrics(m: &mut Metrics, replies: &[Reply], latency_ms: &[f64]) {
    let col = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(f).collect::<Vec<f64>>();
    m.insert("serve.job_p90_ms", p(latency_ms, 90.0));
    m.insert(
        "serve.queue_wait_p50_ms",
        median(&col(&|r| r.queue_wait_ns)) / 1e6,
    );
    m.insert("serve.run_p50_ms", median(&col(&|r| r.run_ns)) / 1e6);
    m.insert("serve.gather_p50_us", median(&col(&|r| r.gather_ns)) / 1e3);
    let n = replies.len() as f64;
    m.insert(
        "serve.batch_size_mean",
        col(&|r| r.batch_size).iter().sum::<f64>() / n,
    );
    m.insert(
        "serve.cache_hit_share",
        replies.iter().filter(|r| r.cache_hit).count() as f64 / n,
    );
}

fn note_sample(out: &mut Outcome, what: &str, n: usize) {
    let supported = highest_supported_percentile(n).map_or("none".to_owned(), |p| format!("p{p}"));
    out.notes.push(format!(
        "{what}: {n} samples, highest percentile with 10 samples beyond it: {supported}"
    ));
}

fn small_open(args: &RunArgs, tracer: &mut Tracer) -> io::Result<Outcome> {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 64,
        queue_capacity: 256,
        ..ServeConfig::default()
    };
    let warm_up =
        |client: &mut Client| burst(client, &SmallMix::warm_up(args.seed, SMALL_WARMUP_JOBS));
    with_warm_service(&cfg, warm_up, |client, setup_s| {
        let mut out = Outcome::default();
        let traced = tracer.enabled();
        tracer.set_enabled(false);
        let share = if traced { 0.25 } else { 1.0 };
        // The end-to-end numbers come from the base rate alone, held for
        // the whole run; the ladder around it is the traced run's.
        let base_rate = [RatePhase {
            rate: BASE_RATE,
            seconds: args.seconds * share,
        }];
        let arrivals = SmallMix::new(args.seed, 1).schedule(&base_rate);
        let plain = open_loop(client, &arrivals, 1, tracer, None)?;
        let cpu_nsps = |run: &OpenLoop, arrivals: &[Arrival], main: usize| {
            let specs = arrivals.iter().filter(|a| a.phase == main).map(|a| &a.spec);
            (run.cpu[main + 1] - run.cpu[main]) as f64 / particle_steps(specs)
        };
        let check = |run: &OpenLoop, arrivals: &[Arrival], main: usize, out: &mut Outcome| {
            out.attempted += arrivals.len() as u64;
            out.failed += run
                .replies
                .iter()
                .filter(|r| !completed(r, &arrivals[r.tag].spec))
                .count() as u64;
            let late = median(&run.late_ms[main]);
            out.attempted += 1;
            if late > MAX_LATE_P50_MS {
                out.failed += 1;
                out.notes.push(format!(
                    "OPEN LOOP INVALID: the sender's median request went out {late:.2} ms late (limit {MAX_LATE_P50_MS} ms)"
                ));
            }
        };
        check(&plain, &arrivals, 0, &mut out);
        let mut verify_from = arrivals;
        if !traced {
            out.metrics.insert("setup_s", median(setup_s));
            out.metrics
                .insert("op_p50_ms", median(&plain.latency_ms[0]));
            out.metrics
                .insert("cpu_nsps", cpu_nsps(&plain, &verify_from, 0));
            note_sample(
                &mut out,
                "job latency at the base rate",
                plain.latency_ms[0].len(),
            );
            out.notes.push(format!(
                "p90 {:.3} ms, sender late p99 {:.3} ms",
                p(&plain.latency_ms[0], 90.0),
                p(&plain.late_ms[0], 99.0)
            ));
        } else {
            tracer.set_enabled(true);
            let arrivals = SmallMix::new(args.seed, 2).schedule(&ladder(args.seconds * 0.75));
            let run = open_loop(client, &arrivals, LADDER.len(), tracer, None)?;
            check(&run, &arrivals, MAIN_PHASE, &mut out);
            let m = &mut out.metrics;
            *m = layers::replay(args, tracer);
            let main: Vec<Reply> = run
                .replies
                .iter()
                .filter(|r| arrivals[r.tag].phase == MAIN_PHASE)
                .cloned()
                .collect();
            insert_reply_metrics(m, &main, &run.latency_ms[MAIN_PHASE]);
            m.insert("serve.coalesced", run.coalesced - plain.coalesced);
            m.insert("serve.p90_ms_at_half_rate", p(&run.latency_ms[0], 90.0));
            m.insert("serve.p90_ms_at_double_rate", p(&run.latency_ms[2], 90.0));
            m.insert("serve.p99_ms_at_rate", p(&run.latency_ms[MAIN_PHASE], 99.0));
            m.insert("serve.gen_late_p99_ms", p(&run.late_ms[MAIN_PHASE], 99.0));
            // Highest ladder rate whose p90 meets the limit with no
            // backlog left growing when the phase stopped sending.
            let ok = |i: usize| {
                p(&run.latency_ms[i], 90.0) <= JOB_SLO_MS
                    && run.depth[i] <= (0.05 * run.latency_ms[i].len() as f64).max(8.0)
            };
            let best = (0..LADDER.len())
                .filter(|&i| ok(i))
                .map(|i| BASE_RATE * LADDER[i].0);
            m.insert("serve.max_rate_ok", best.fold(0.0, f64::max));
            // CPU the service spends per particle-step beyond the kernels
            // themselves, priced by the replayed layer costs.
            let traced_cpu = cpu_nsps(&run, &arrivals, MAIN_PHASE);
            let executed = main
                .iter()
                .filter(|r| !r.cache_hit)
                .map(|r| &arrivals[r.tag].spec);
            let kernel_ns: f64 = executed
                .map(|s| {
                    let push = match s.layout {
                        pic_particles::Layout::Soa => m["core.kernel_nsps"],
                        pic_particles::Layout::Aos => m["core.scalar_nsps"],
                    };
                    let field = match s.scenario {
                        pic_perfmodel::Scenario::Analytical => m["fields.sample_nspp"],
                        pic_perfmodel::Scenario::Precalculated => 0.0,
                    };
                    (push + field) * (s.particles * s.steps) as f64
                })
                .sum();
            let main_specs = arrivals
                .iter()
                .filter(|a| a.phase == MAIN_PHASE)
                .map(|a| &a.spec);
            m.insert(
                "serve.overhead_nsps",
                traced_cpu - kernel_ns / particle_steps(main_specs),
            );
            let plain_cpu = cpu_nsps(&plain, &verify_from, 0);
            m.insert("trace.overhead_share", (traced_cpu - plain_cpu) / plain_cpu);
            verify_from = arrivals;
        }
        // Output check, after the timed phase: every hundredth job again,
        // one at a time, this time returning its particles.
        for (tag, arrival) in verify_from.iter().enumerate().step_by(VERIFY_EVERY) {
            let spec = JobSpec {
                return_particles: true,
                ..arrival.spec.clone()
            };
            let (_, reply) = client.call(tag, &spec, true)?;
            out.attempted += 1;
            if !completed(&reply, &spec)
                || reply.particles.as_deref() != Some(&reference_dump(&spec))
            {
                out.failed += 1;
                out.notes.push(format!(
                    "OUTPUT CHECK FAILED: dump of job seed {}",
                    spec.seed
                ));
            }
        }
        Ok(out)
    })
}

fn shard_closed(args: &RunArgs, tracer: &mut Tracer) -> io::Result<Outcome> {
    let cfg = ServeConfig {
        workers: 2,
        shards: layers::JOB_SHARDS,
        shard_threshold: 50_000,
        pinned: true,
        checkpoint_interval: 10,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let n = args
        .scaled(layers::JOB_PARTICLES)
        .max(cfg.shard_threshold + 1);
    let warm_up = |client: &mut Client| -> io::Result<()> {
        client
            .call(0, &shard_job(args.seed, 0, 0, n), false)
            .map(|_| ())
    };
    with_warm_service(&cfg, warm_up, |client, setup_s| {
        let mut out = Outcome::default();
        let traced = tracer.enabled();
        tracer.set_enabled(false);
        let mut verified: Vec<(JobSpec, Reply)> = Vec::new();
        // One client, next job only after the previous one's reply.
        let mut closed_loop =
            |stream: u64, seconds: f64, tracer: &mut Tracer, out: &mut Outcome| {
                let (mut latency_ms, mut replies) = (Vec::new(), Vec::new());
                let (cpu_start, start) = (cpu_ns(), Instant::now());
                while start.elapsed().as_secs_f64() < seconds {
                    let tag = replies.len();
                    let spec = shard_job(args.seed, stream, tag, n);
                    let keep = verified.len() < SHARD_VERIFIED;
                    let (sent, reply) = client.call(tag, &spec, keep)?;
                    latency_ms.push(ms(reply.received.saturating_duration_since(sent)));
                    if tracer.enabled() {
                        record_job(tracer, tracer.ns_of(sent), &reply);
                    }
                    out.attempted += 1;
                    out.failed += u64::from(!completed(&reply, &spec));
                    if keep {
                        verified.push((spec, reply.clone()));
                    }
                    replies.push(reply);
                }
                let work = (replies.len() * n * JOB_STEPS) as f64;
                io::Result::Ok((latency_ms, replies, (cpu_ns() - cpu_start) as f64 / work))
            };
        let share = if traced { 0.25 } else { 1.0 };
        let (latency_ms, _, cpu_nsps) = closed_loop(1, args.seconds * share, tracer, &mut out)?;
        if !traced {
            out.metrics.insert("setup_s", median(setup_s));
            out.metrics.insert("op_p50_ms", median(&latency_ms));
            out.metrics.insert("cpu_nsps", cpu_nsps);
            note_sample(&mut out, "job latency", latency_ms.len());
            out.notes
                .push(format!("p90 {:.3} ms", p(&latency_ms, 90.0)));
        } else {
            tracer.set_enabled(true);
            let (latency_ms, replies, traced_cpu) =
                closed_loop(2, args.seconds * 0.75, tracer, &mut out)?;
            let m = &mut out.metrics;
            *m = layers::replay(args, tracer);
            insert_reply_metrics(m, &replies, &latency_ms);
            let phases_ms = layers::job_phases_ms(m, n);
            m.insert(
                "serve.unattributed_share",
                1.0 - phases_ms / median(&latency_ms),
            );
            m.insert("serve.overhead_nsps", traced_cpu - m["core.kernel_nsps"]);
            m.insert("trace.overhead_share", (traced_cpu - cpu_nsps) / cpu_nsps);
        }
        // Output check, after the timed phase.
        out.attempted += verified.len() as u64;
        for (spec, reply) in &verified {
            if reply.particles.as_deref() != Some(&reference_dump(spec)) {
                out.failed += 1;
                out.notes.push(format!(
                    "OUTPUT CHECK FAILED: dump of job seed {}",
                    spec.seed
                ));
            }
        }
        Ok(out)
    })
}

/// Runs one serve workload.
pub fn run(workload: Workload, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    // Thread budget: the generator (one sender, one reader, one
    // connection) must fit the machine, or it measures itself.
    assert!(
        GENERATOR_THREADS <= nproc(),
        "the load generator needs {GENERATOR_THREADS} hardware threads, this machine has {}",
        nproc()
    );
    let traced = tracer.enabled();
    let run = match workload {
        Workload::ServeSmallOpen => small_open(args, tracer),
        _ => shard_closed(args, tracer),
    };
    let mut out = run.unwrap_or_else(|err| Outcome {
        attempted: 1,
        failed: 1,
        notes: vec![format!("WIRE FAILURE: {err}")],
        ..Outcome::default()
    });
    if !traced {
        out.metrics.insert("peak_rss_mib", peak_rss_mib());
    }
    out
}
