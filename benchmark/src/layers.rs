//! Layer replay: each layer's public functions called in isolation, at
//! the sizes the serve workloads use, outside any server.
//!
//! The traced run of every workload ends with this replay, so each layer
//! has a number that does not depend on how the workload composes the
//! layers. Times are medians over `REPS` calls; counts are exact.

use crate::jobs::JOB_STEPS;
use crate::spec::{Metrics, RunArgs};
use crate::stats::median;
use crate::trace::Tracer;
use pic_bench::{
    bench_grid, build_ensemble, build_ensemble_range, dipole_wave, run_device_steps,
    run_mdipole_steps, KernelVariant, MdipoleScenario,
};
use pic_boris::{BorisPusher, FieldSource, PrecalculatedSource, Pusher};
use pic_device::{Device, DeviceExecutor};
use pic_fields::{BatchSampler, EbSlices};
use pic_math::Real;
use pic_particles::io::write_ensemble;
use pic_particles::sort::{apply_perm, invert_perm, morton_perm};
use pic_particles::{
    AosEnsemble, ColumnSegment, Layout, ParticleAccess, ParticleKernel, ParticleView, SoaEnsemble,
};
use pic_perfmodel::{KernelCost, Precision, Scenario};
use pic_runtime::{parallel_sweep, ExecTarget, Schedule, Topology};
use pic_serve::proto::{outcome_line, parse_request};
use pic_serve::{JobReport, JobSpec, Outcome};
use pic_telemetry::BenchRecord;
use std::hint::black_box;

/// Particles of the job the replay takes apart (the `serve_shard_closed`
/// job), and the shards it is split into.
pub const JOB_PARTICLES: usize = 125_000;
/// Shards of that job.
pub const JOB_SHARDS: usize = 2;
/// Particles of the isolated kernel runs: with their pre-sampled fields
/// 3.6 MiB in SoA/f32 — cache-resident (L3), though more than one core's
/// 2 MiB L2.
const KERNEL_PARTICLES: usize = 65_536;
/// Positions per isolated field-sampling call.
const SAMPLE_BLOCK: usize = 8_192;
const REPS: usize = 7;

/// Reads every particle and rewrites its γ unchanged: the cost of
/// walking a store through the layout's views, with no physics.
struct Touch<R>(R);

impl<R: Real> ParticleKernel<R> for Touch<R> {
    fn apply<V: ParticleView<R>>(&mut self, _index: usize, view: &mut V) {
        self.0 += view.position().x + view.momentum().x;
        view.set_gamma(black_box(view.gamma()));
    }
}

/// Median wall ns of `REPS` calls of `f`, each recorded as a span.
fn timed(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let ns: Vec<f64> = (0..REPS)
        .map(|rep| tracer.scope(name, None, rep as u64, &mut f).1 as f64)
        .collect();
    median(&ns)
}

/// Per-step wall ns and sweep reports of `steps` steps of `variant` over
/// `store` (pre-sampled fields) on `topology`.
fn step_times<R: Real, A: ParticleAccess<R>>(
    tracer: &mut Tracer,
    name: &'static str,
    store: &mut A,
    topology: &Topology,
    variant: KernelVariant,
    steps: usize,
) -> (Vec<f64>, Vec<pic_runtime::SweepReport>) {
    let ctx = MdipoleScenario::prepare(Scenario::Precalculated, store);
    let mut time = R::ZERO;
    let (mut out, mut reports) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    let mut last = tracer.now_ns();
    run_mdipole_steps(
        store,
        &ctx,
        steps,
        &mut time,
        topology,
        Schedule::dynamic(),
        variant,
        None,
        &mut |step, report| {
            let now = tracer.now_ns();
            tracer.record(name, last, now, None, step as u64);
            out.push((now - last) as f64);
            reports.push(report.clone());
            last = now;
            true
        },
    );
    (out, reports)
}

/// Runs the replay. `seed` seeds every ensemble built here.
pub fn replay(args: &RunArgs, tracer: &mut Tracer) -> Metrics {
    let mut m = Metrics::new();
    let seed = args.seed;
    let n = args.scaled(JOB_PARTICLES);
    let shard_len = n / JOB_SHARDS;
    let shard_offset = n - shard_len;
    let per = |ns: f64, count: usize| ns / count as f64;

    // particles: seeded fill, the last shard's O(K·N) stream replay,
    // Morton pre-sort and restore, text dump, column segments.
    let mut full = SoaEnsemble::<f32>::default();
    let t = timed(tracer, "particles.init", || full = build_ensemble(n, seed));
    m.insert("particles.init_nspp", per(t, n));
    let mut shard = SoaEnsemble::<f32>::default();
    let t = timed(tracer, "particles.init_range", || {
        shard = build_ensemble_range(n, seed, shard_offset, shard_len)
    });
    m.insert("particles.init_range_nspp", per(t, shard_len));
    let grid = bench_grid();
    let t = timed(tracer, "particles.morton_sort", || {
        let perm = morton_perm(&shard, &grid);
        apply_perm(&mut shard, &perm);
        let inverse = invert_perm(&perm);
        apply_perm(&mut shard, black_box(&inverse));
    });
    m.insert("particles.morton_sort_nspp", per(t, shard_len));
    let mut dump = Vec::new();
    let t = timed(tracer, "particles.dump_write", || {
        dump.clear();
        write_ensemble(&full, &mut dump).expect("writing to a Vec cannot fail");
    });
    m.insert("particles.dump_write_nspp", per(t, n));
    let mut merged = ColumnSegment::default();
    let t = timed(tracer, "particles.segment_build", || {
        let segment = ColumnSegment::from_store(&shard, 0, shard_len);
        merged = ColumnSegment::with_capacity(shard_len);
        merged.append(&segment);
    });
    m.insert("particles.segment_build_nspp", per(t, shard_len));
    m.insert(
        "particles.segment_bytes_pp",
        per(merged.to_bytes().len() as f64, shard_len),
    );

    // fields: the Precalculated sampling pass, the analytical m-dipole
    // block sampler, and the precalculated block copy.
    let mut ctx = MdipoleScenario::prepare(Scenario::Analytical, &shard);
    let t = timed(tracer, "fields.prepare", || {
        ctx = MdipoleScenario::prepare(Scenario::Precalculated, &shard)
    });
    m.insert("fields.prepare_nspp", per(t, shard_len));
    let block = SAMPLE_BLOCK.min(shard_len);
    let (xs, ys, zs) = (
        &shard.xs()[..block],
        &shard.ys()[..block],
        &shard.zs()[..block],
    );
    let mut lanes: [Vec<f32>; 6] = std::array::from_fn(|_| vec![0.0; block]);
    let wave = dipole_wave::<f32>();
    let t = timed(tracer, "fields.sample", || {
        let [ex, ey, ez, bx, by, bz] = &mut lanes;
        let mut out = EbSlices {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        };
        wave.sample_into(black_box(xs), ys, zs, 1.0e-16, &mut out);
    });
    m.insert("fields.sample_nspp", per(t, block));
    if let MdipoleScenario::Precalculated(pre) = &ctx {
        let source = PrecalculatedSource::new(pre);
        let t = timed(tracer, "fields.block_copy", || {
            let [ex, ey, ez, bx, by, bz] = &mut lanes;
            let mut out = EbSlices {
                ex,
                ey,
                ez,
                bx,
                by,
                bz,
            };
            source.field_block(0, black_box(xs), ys, zs, 0.0, &mut out);
        });
        m.insert("fields.block_copy_nspp", per(t, block));
    }
    black_box(&lanes);

    // core + runtime: the fast kernel and the scalar reference over
    // cache-resident pre-sampled fields, one thread and all of them.
    let k = args.scaled(KERNEL_PARTICLES);
    let one = Topology::single(1);
    let all = Topology::single(crate::procfs::nproc());
    let mut soa: SoaEnsemble<f32> = build_ensemble(k, seed);
    let steps = 4 * REPS;
    let (fast, _) = step_times(
        tracer,
        "core.kernel",
        &mut soa,
        &one,
        KernelVariant::SoaFast,
        steps,
    );
    m.insert("core.kernel_nsps", per(median(&fast), k));
    m.insert(
        "core.nsps_best",
        per(fast.iter().copied().fold(f64::INFINITY, f64::min), k),
    );
    let mut aos: AosEnsemble<f64> = build_ensemble(k, seed);
    let (scalar, _) = step_times(
        tracer,
        "core.scalar",
        &mut aos,
        &one,
        KernelVariant::Scalar,
        steps,
    );
    m.insert("core.scalar_nsps", per(median(&scalar), k));
    let (par, reports) = step_times(
        tracer,
        "runtime.step",
        &mut soa,
        &all,
        KernelVariant::SoaFast,
        steps,
    );
    insert_runtime(&mut m, &fast, &par, &reports, k);
    let tally = Pusher::<f32>::tally(&BorisPusher);
    m.insert("core.flops_pp", tally.flop_equivalents());
    let cost = KernelCost::boris(Scenario::Precalculated, Layout::Soa, Precision::F32);
    m.insert("core.bytes_pp", cost.bytes_total());
    let mut touch_store: SoaEnsemble<f32> = build_ensemble(k, seed);
    let t = timed(tracer, "particles.traverse", || {
        parallel_sweep(&mut touch_store, &one, Schedule::StaticChunks, |_| {
            Touch(0.0f32)
        });
    });
    m.insert("particles.traverse_nsps", per(t, k));

    // device: staging through the USM ledger and back (wall), and the
    // modeled kernel time of the Iris Xe Max lane (computed, exact).
    let t = timed(tracer, "device.stage", || {
        let mut exec = DeviceExecutor::new(Device::iris_xe_max());
        let staged = exec.stage_ensemble(&soa);
        staged.write_back(&mut soa);
    });
    m.insert("device.stage_nspp", per(t, k));
    let device_ctx = MdipoleScenario::prepare(Scenario::Analytical, &soa);
    let mut time = 0.0f32;
    let run = run_device_steps(
        &mut soa,
        &device_ctx,
        REPS,
        &mut time,
        Layout::Soa,
        ExecTarget::IrisXeMax,
        None,
        &mut |_, _| true,
    );
    m.insert("device.modeled_nsps", run.total_ns() / (k * REPS) as f64);

    // telemetry + serve protocol: one record and one small job through
    // the JSON codecs, and the completion line that carries a full dump.
    let record = BenchRecord {
        label: "benchmark-replay".to_owned(),
        iteration_ns: vec![1.5e6; 10],
        outcome: "completed".to_owned(),
        ..BenchRecord::default()
    };
    let t = timed(tracer, "telemetry.record_json", || {
        for _ in 0..100 {
            black_box(BenchRecord::from_json(&black_box(&record).to_json()).is_ok());
        }
    });
    m.insert("telemetry.record_json_ns", t / 100.0);
    let spec = JobSpec {
        particles: 4_000,
        steps: JOB_STEPS,
        ..JobSpec::default()
    };
    let request = crate::wire::submit_line(0, &spec);
    let mut report = JobReport {
        nsps: 41.5,
        run_ns: 3_300_000,
        batch_size: 3,
        steps_done: JOB_STEPS,
        ..JobReport::default()
    };
    let small = Outcome::Completed(report.clone());
    let t = timed(tracer, "serve.proto_roundtrip", || {
        for _ in 0..100 {
            black_box(parse_request(black_box(&request)).is_ok());
            black_box(outcome_line(7, Some("0"), &small));
        }
    });
    m.insert("serve.proto_roundtrip_us", t / 100.0 / 1e3);
    report.particles = Some(String::from_utf8(dump).expect("dumps are ASCII"));
    let big = Outcome::Completed(report);
    let t = timed(tracer, "serve.render", || {
        black_box(outcome_line(7, Some("0"), &big));
    });
    m.insert("serve.render_ms", t / 1e6);
    m
}

/// The `runtime.*` metrics from per-step times of a one-thread and an
/// all-threads run over `particles` particles.
pub fn insert_runtime(
    m: &mut Metrics,
    one_thread_ns: &[f64],
    all_threads_ns: &[f64],
    reports: &[pic_runtime::SweepReport],
    particles: usize,
) {
    let nsps_1t = median(one_thread_ns) / particles as f64;
    let nsps = median(all_threads_ns) / particles as f64;
    m.insert("runtime.nsps_1t", nsps_1t);
    m.insert("runtime.nsps", nsps);
    m.insert(
        "runtime.par_eff",
        nsps_1t / (crate::procfs::nproc() as f64 * nsps),
    );
    let imbalance: Vec<f64> = reports.iter().map(|r| r.time_imbalance()).collect();
    m.insert("runtime.time_imbalance", median(&imbalance));
    let chunks: Vec<f64> = reports.iter().map(|r| r.total_chunks() as f64).collect();
    m.insert("runtime.chunks_per_step", median(&chunks));
}

/// Wall ms the replayed phases of one `serve_shard_closed` job add up to
/// along its critical path (one shard's build, sort, prepare, steps,
/// mid-job checkpoint and segment; then the parent's render) — what
/// `serve.unattributed_share` holds the measured job latency against.
pub fn job_phases_ms(m: &Metrics, particles: usize) -> f64 {
    let shard = (particles / JOB_SHARDS) as f64;
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let per_shard_particle = get("particles.init_range_nspp")
        + get("particles.morton_sort_nspp")
        + get("fields.prepare_nspp")
        + get("core.kernel_nsps") * JOB_STEPS as f64
        + get("particles.dump_write_nspp")
        + get("particles.segment_build_nspp");
    let render_ns = get("particles.dump_write_nspp") * particles as f64;
    (per_shard_particle * shard + render_ns) / 1e6 + get("serve.render_ms")
}
