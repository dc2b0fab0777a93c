//! The two sweep workloads: the paper's benchmark loop, one thread and
//! all threads, on the SoA/f32 fast path.
//!
//! An *operation* is one pusher step over the whole ensemble — the unit
//! `run_mdipole_steps` reports back through `on_step`. Each step is timed
//! on its own and the workload reports the median, so one pre-empted
//! step cannot move the result the way it moves total ÷ work.

use crate::check::{first_mismatch, reference_store, SWEEP_CHECK_PARTICLES};
use crate::layers;
use crate::procfs::{cpu_ns, nproc, peak_rss_mib};
use crate::spec::{more_setups, Outcome, RunArgs, Workload};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use pic_bench::{build_ensemble, run_mdipole_steps, KernelVariant, MdipoleScenario};
use pic_particles::{ParticleAccess, SoaEnsemble};
use pic_perfmodel::Scenario;
use pic_runtime::{Schedule, SweepReport, Topology};

/// Untimed steps that end a set-up (first-touch faults, thread start).
const WARMUP_STEPS: usize = 2;

struct Ensemble {
    store: SoaEnsemble<f32>,
    ctx: MdipoleScenario<f32>,
    time: f32,
    steps_done: usize,
}

/// Per-step wall ns and sweep reports of one timed phase.
#[derive(Default)]
struct Phase {
    step_ns: Vec<f64>,
    reports: Vec<SweepReport>,
}

fn set_up(
    scenario: Scenario,
    particles: usize,
    seed: u64,
    tracer: &mut Tracer,
    op: u64,
) -> Ensemble {
    let (store, _) = tracer.scope("particles.init", None, op, || {
        build_ensemble::<f32, SoaEnsemble<f32>>(particles, seed)
    });
    let (ctx, _) = tracer.scope("fields.prepare", None, op, || {
        MdipoleScenario::prepare(scenario, &store)
    });
    let mut ens = Ensemble {
        store,
        ctx,
        time: 0.0,
        steps_done: 0,
    };
    steps(
        &mut ens,
        nproc(),
        Budget::Steps(WARMUP_STEPS),
        &mut Tracer::new(false),
    );
    ens
}

enum Budget {
    Steps(usize),
    Seconds(f64),
}

/// Runs steps at `threads` threads until the budget is used up, timing
/// each through `on_step`.
fn steps(ens: &mut Ensemble, threads: usize, budget: Budget, tracer: &mut Tracer) -> Phase {
    let mut phase = Phase::default();
    let (max_steps, max_ns) = match budget {
        Budget::Steps(n) => (n, u64::MAX),
        Budget::Seconds(s) => (usize::MAX, (s * 1e9) as u64),
    };
    let start = tracer.now_ns();
    let mut last = start;
    let name = if threads == 1 {
        "runtime.step_1t"
    } else {
        "runtime.step"
    };
    let run = run_mdipole_steps(
        &mut ens.store,
        &ens.ctx,
        max_steps,
        &mut ens.time,
        &Topology::single(threads),
        Schedule::dynamic(),
        KernelVariant::SoaFast,
        None,
        &mut |step, report| {
            let now = tracer.now_ns();
            phase.step_ns.push((now - last) as f64);
            if tracer.enabled() {
                tracer.record(name, last, now, None, step as u64);
                phase.reports.push(report.clone());
            }
            last = now;
            now - start < max_ns
        },
    );
    ens.steps_done += run.steps_done;
    phase
}

/// The timed phase: `seconds` of steps, in slices that alternate between
/// one thread (the plain baseline) and all of them, so that both see the
/// same stretch of this shared machine's wandering speed. Returns the
/// two phases and the CPU ns per particle-step over all of it.
fn timed(ens: &mut Ensemble, seconds: f64, tracer: &mut Tracer) -> (Phase, Phase, f64) {
    const SLICES: f64 = 8.0;
    let (mut one, mut all) = (Phase::default(), Phase::default());
    let (cpu_start, start) = (cpu_ns(), tracer.now_ns());
    while ((tracer.now_ns() - start) as f64) < seconds * 1e9 {
        for (phase, threads) in [(&mut one, 1), (&mut all, nproc())] {
            let slice = steps(
                ens,
                threads,
                Budget::Seconds(seconds / (2.0 * SLICES)),
                tracer,
            );
            phase.step_ns.extend(slice.step_ns);
            phase.reports.extend(slice.reports);
        }
    }
    let work = (one.step_ns.len() + all.step_ns.len()) * ens.store.len();
    let cpu_nsps = (cpu_ns() - cpu_start) as f64 / work as f64;
    (one, all, cpu_nsps)
}

/// Runs one sweep workload.
pub fn run(workload: Workload, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let (scenario, full) = match workload {
        Workload::SweepPrecalc => (Scenario::Precalculated, 10_000_000),
        _ => (Scenario::Analytical, 1_000_000),
    };
    let n = args.scaled(full);
    let threads = nproc();
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut ens = None;
    while more_setups(&setup_s, 0) {
        drop(ens.take());
        let start = tracer.now_ns();
        ens = Some(set_up(scenario, n, args.seed, tracer, setup_s.len() as u64));
        setup_s.push((tracer.now_ns() - start) as f64 / 1e9);
    }
    let mut ens = ens.expect("at least one set-up");

    // A traced run spends a quarter untraced first, to price the tracing.
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    let share = if traced { 0.25 } else { 1.0 };
    let (one, all, cpu_nsps) = timed(&mut ens, args.seconds * share, tracer);
    out.attempted = (one.step_ns.len() + all.step_ns.len()) as u64;

    if !traced {
        out.metrics.insert("setup_s", median(&setup_s));
        out.metrics.insert("op_p50_ms", median(&all.step_ns) / 1e6);
        out.metrics.insert("cpu_nsps", cpu_nsps);
        out.notes.push(format!(
            "{} steps on 1 thread, {} on {threads}; nsps {:.3} (1 thread {:.3}), step p90 {:.3} ms",
            one.step_ns.len(),
            all.step_ns.len(),
            median(&all.step_ns) / n as f64,
            median(&one.step_ns) / n as f64,
            percentile(&sorted(all.step_ns.clone()), 90.0) / 1e6,
        ));
    } else {
        tracer.set_enabled(true);
        let (one, all, traced_cpu) = timed(&mut ens, args.seconds * 0.75, tracer);
        out.attempted += (one.step_ns.len() + all.step_ns.len()) as u64;
        out.metrics = layers::replay(args, tracer);
        layers::insert_runtime(
            &mut out.metrics,
            &one.step_ns,
            &all.step_ns,
            &all.reports,
            n,
        );
        let best = one.step_ns.iter().copied().fold(f64::INFINITY, f64::min);
        out.metrics.insert("core.nsps_best", best / n as f64);
        out.metrics
            .insert("trace.overhead_share", (traced_cpu - cpu_nsps) / cpu_nsps);
    }

    // Output check, after the timed phase: the head of the final store
    // against a scalar one-thread run of the same seed and step count.
    let reference: SoaEnsemble<f32> = reference_store(
        scenario,
        SWEEP_CHECK_PARTICLES.min(n),
        args.seed,
        ens.steps_done,
    );
    out.attempted += 1;
    if let Some(i) = first_mismatch(&ens.store, &reference) {
        out.failed += 1;
        out.notes.push(format!(
            "OUTPUT CHECK FAILED: particle {i} differs from the scalar reference after {} steps",
            ens.steps_done
        ));
    }
    if !traced {
        out.metrics.insert("peak_rss_mib", peak_rss_mib());
    }
    out
}
