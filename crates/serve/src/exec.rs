//! Job execution: a worker executes one job over one store, in the
//! job's original particle order.
//!
//! Both benchmark scenarios give a particle nothing to share with its
//! neighbours — the Precalculated field array is indexed by particle,
//! the Analytical field is evaluated at the particle's own position, and
//! the Boris step is particle-independent — so there is nothing to gain
//! from running jobs together or from reordering a job's particles
//! (EXPERIMENTS.md E14 has the measurements). [`run_job`] therefore does
//! one thing: claim the job, seed its ensemble, prepare its fields,
//! splice its checkpoint if it is resuming, integrate its segments
//! through [`pic_sim::run_mdipole_steps`], capture one segment.
//! Cancellation and timeouts are observed at step boundaries via the
//! runner's `on_step` hook; a step, once started, sweeps every particle
//! in one `apply_chunk` per thread, the path the sweep workloads of
//! `benchmark/` measure.
//!
//! **One store, segments at the edges.** The Precalculated field context
//! is computed from the seeded t=0 store before anything else touches
//! it; particle state then enters and leaves the store only as a
//! [`ColumnSegment`]: a resume splices the checkpoint segment over the
//! seeded particles, a checkpoint or a completion captures one.
//!
//! **Checkpoint/resume.** With `checkpoint_interval > 0` the job is
//! integrated in segments of steps; between them the store is captured
//! into the scheduler's [`CheckpointStore`]. A job whose worker died
//! resumes here from that capture: the simulation clock is
//! [`pic_sim::time_after`] the checkpoint's step, the runners' own
//! accumulation, and the field context was prepared from the
//! seeded ensemble as in the original run, so the per-particle field
//! samples match it exactly. Both together make a resumed trajectory
//! bitwise-identical to an uninterrupted one
//! (`tests/fault_injection.rs` proves it across seeded kill schedules).
//!
//! [`CheckpointStore`]: crate::checkpoint::CheckpointStore
//!
//! **Device jobs.** A spec whose `device` names a modeled GPU runs each
//! segment through [`pic_sim::run_device_steps`] instead of the host
//! sweep — the same kernel over staged columns, so trajectories (and
//! therefore checkpoints, resumes, and cached columns) stay bitwise
//! identical to a host run; only the reported NSPS differs, coming from
//! the accumulated modeled kernel time rather than wall clock.

use crate::cache::CacheKey;
use crate::job::{JobReport, Outcome};
use crate::scheduler::Shared;
use crate::shard::{render_rows, shard_kill_key};
use crate::state::JobState;
use crate::stats::Counter;
use pic_math::Real;
use pic_particles::io::RowEnd;
use pic_particles::{AosEnsemble, ColumnSegment, Layout, ParticleStore, SoaEnsemble};
use pic_perfmodel::Precision;
use pic_runtime::sync::lock;
use pic_runtime::{imbalance_of, ExecTarget, Schedule};
use pic_sim::{
    append_ensemble_range, merge_thread_stats, run_device_steps, run_mdipole_steps, time_after,
    KernelVariant, MdipoleScenario,
};
use pic_telemetry::ThreadStat;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Executes `job` to terminality: it has a published outcome (or sits
/// requeued for a resume) when this returns. Runs on a worker thread; a
/// panic here is caught by the worker, which requeues the job for a
/// checkpoint resume.
pub(crate) fn run_job(shared: &Shared, job: &Arc<JobState>) {
    match (job.spec.layout, job.spec.precision) {
        (Layout::Aos, Precision::F32) => run_typed::<f32, AosEnsemble<f32>>(shared, job),
        (Layout::Aos, Precision::F64) => run_typed::<f64, AosEnsemble<f64>>(shared, job),
        (Layout::Soa, Precision::F32) => run_typed::<f32, SoaEnsemble<f32>>(shared, job),
        (Layout::Soa, Precision::F64) => run_typed::<f64, SoaEnsemble<f64>>(shared, job),
    }
}

fn run_typed<R: Real, S: ParticleStore<R>>(shared: &Shared, job: &Arc<JobState>) {
    // Claim-time cache check: the key may have been filled after this
    // job was admitted (an identical job completed while it was queued).
    // A job whose budget ran out in the queue is not served: it goes on
    // to the claim and times out, as an uncached one does. Shard sub-jobs
    // skip it — their spec's key aliases a genuine small job's, and the
    // gather needs their real execution.
    if shared.cfg.cache_capacity > 0
        && job.shard.is_none()
        && !job.timed_out_at(shared.clock.now_ns())
    {
        let hit = lock(&shared.cache).lookup(CacheKey::of(&job.spec));
        if let Some(result) = hit {
            if shared.finish(job, Outcome::Completed(result.to_report(&job.spec))) {
                shared.counters.bump(Counter::CacheHits);
            }
            return;
        }
    }
    if !job.claim() {
        return; // cancelled (or otherwise finished) while queued
    }
    let claimed_ns = shared.clock.now_ns();
    if job.cancel_pending() {
        shared.finish(job, Outcome::Cancelled);
        return;
    }
    if job.timed_out_at(claimed_ns) {
        shared.finish(job, Outcome::TimedOut);
        return;
    }
    // A resuming job starts at its checkpoint's step.
    let snapshot = shared.checkpoints.snapshot(job.id);
    if snapshot
        .as_ref()
        .is_some_and(|snap| snap.segment.len() != job.spec.particles)
    {
        // Ill-fitting snapshot (never expected — it was captured
        // in-memory). Drop it and retry the job from step 0, or fail it
        // explicitly.
        shared.checkpoints.remove(job.id);
        shared.requeue_or_reject(job);
        return;
    }
    let start_step = snapshot.as_ref().map_or(0, |snap| snap.step);
    // A shard sub-job draws its plan range of the *parent's* ensemble, so
    // concatenating the shards reproduces the monolithic ensemble
    // bitwise.
    let (n_total, offset) = match &job.shard {
        Some(ctx) => (ctx.parent_particles, ctx.offset),
        None => (job.spec.particles, 0),
    };
    // The set-up runs on the job's own topology, as its sweeps do: on a
    // one-thread topology (the default) it stays on this worker.
    let topology = &shared.cfg.topology;
    let mut store = S::default();
    append_ensemble_range(
        &mut store,
        n_total,
        job.spec.seed,
        offset,
        job.spec.particles,
        topology,
    );
    // Field preparation (the Precalculated sampling pass) reads the
    // seeded t=0 state, so it comes before the checkpoint splice.
    let ctx = MdipoleScenario::<R>::prepare_on(job.spec.scenario, &store, topology);
    if let Some(snap) = &snapshot {
        snap.segment.splice_into(&mut store, 0);
        // ordering: Relaxed — diagnostic, read after terminality.
        job.resume_step.store(start_step as u64, Ordering::Relaxed);
    }
    // Validation guarantees the device name parses; Host is a safe
    // fallback for a spec that somehow bypassed it.
    let target = ExecTarget::parse(&job.spec.device).unwrap_or_default();
    // A shard sub-job consults the kill plan under its shard kill key,
    // so a point armed via `arm_shard` takes down exactly one shard's
    // worker.
    let kill_key = match &job.shard {
        Some(ctx) => shard_kill_key(job.spec.seed, ctx.shard_id),
        None => job.spec.seed,
    };
    let mut time = time_after::<R>(start_step);
    let total = job.spec.steps;
    let interval = shared.cfg.checkpoint_interval;
    let mut abs = start_step;
    let mut thread_stats: Vec<ThreadStat> = Vec::new();
    let mut device_ns = 0.0f64;
    let mut ended = false;
    let start_ns = shared.clock.now_ns();
    while abs < total {
        let seg = match interval {
            0 => total - abs,
            n => (total - abs).min(n),
        };
        let seg_base = abs;
        let mut boundary = |step: usize| {
            let outcome = if job.cancel_pending() {
                Some(Outcome::Cancelled)
            } else if job.timed_out_at(shared.clock.now_ns()) {
                Some(Outcome::TimedOut)
            } else {
                None
            };
            if let Some(outcome) = outcome {
                shared.finish(job, outcome);
                ended = true;
                return false;
            }
            // Deterministic fault injection: a kill-point armed for the
            // absolute step boundary just completed takes this worker
            // down; the scheduler requeues the job for resume.
            if let Some(plan) = &shared.cfg.kill_plan {
                if plan.fire(kill_key, seg_base + step + 1) {
                    panic!("kill-point: job {} at step {}", job.id, seg_base + step + 1);
                }
            }
            true
        };
        // Served jobs always take the fast path: zero-gather on SoA
        // stores; on AoS stores the same block arithmetic over lanes
        // gathered through the particle views (`run_gathered`), with
        // bitwise-identical trajectories. Device jobs run the same kernel
        // through the device backend's staged columns — same
        // trajectories, modeled timing.
        let (steps_done, interrupted) = if target.is_host() {
            let run = run_mdipole_steps(
                &mut store,
                &ctx,
                seg,
                &mut time,
                topology,
                Schedule::dynamic(),
                KernelVariant::SoaFast,
                None,
                &mut |step, _report| boundary(step),
            );
            merge_thread_stats(&mut thread_stats, run.thread_stats);
            (run.steps_done, run.interrupted)
        } else {
            let run = run_device_steps(
                &mut store,
                &ctx,
                seg,
                &mut time,
                job.spec.layout,
                target,
                None,
                &mut |step, _event| boundary(step),
            );
            device_ns += run.total_ns();
            (run.steps_done, run.interrupted)
        };
        abs += steps_done;
        if ended {
            return;
        }
        if interrupted || steps_done < seg {
            // The sweep stalled without a terminal reason (unreachable
            // through the runner's contract); never strand the job.
            shared.requeue_or_reject(job);
            return;
        }
        // Segment boundary: snapshot the job so a later worker death
        // resumes from here instead of step 0.
        if interval > 0 && abs < total {
            let segment = ColumnSegment::from_store(&store, 0, store.len());
            shared.checkpoints.put(job.id, abs, segment);
        }
    }
    let run_ns = shared.clock.now_ns().saturating_sub(start_ns);
    let executed = abs.saturating_sub(start_step);
    let denom = (store.len() as u64 * executed.max(1) as u64).max(1);
    // Host jobs report wall time per particle-step; device jobs report
    // the accumulated modeled kernel time (the Table 3 quantity).
    let nsps = if target.is_host() {
        run_ns as f64 / denom as f64
    } else {
        device_ns / denom as f64
    };
    let report = JobReport {
        nsps,
        queue_wait_ns: claimed_ns.saturating_sub(job.submitted_ns),
        setup_ns: start_ns.saturating_sub(claimed_ns),
        run_ns,
        batch_size: 1,
        steps_done: abs,
        imbalance: imbalance_of(thread_stats.iter().map(|t| t.particles)),
        time_imbalance: imbalance_of(thread_stats.iter().map(|t| t.busy_ns)),
        // ordering: Relaxed — diagnostics, published with the outcome
        // below.
        resumes: u64::from(job.resumes.load(Ordering::Relaxed)),
        resumed_from_step: job.resume_step.load(Ordering::Relaxed),
        ..JobReport::default()
    };
    let capture = || Arc::new(ColumnSegment::from_store(&store, 0, store.len()));
    match &job.shard {
        // A shard hands its slice to the gather, which completes the
        // parent; the shard never populates the cache — its spec's key
        // aliases a genuine small job's (same seed, fewer particles). If
        // the requester asked, the shard renders its own rows here, on
        // its own worker and beside its siblings, and shard 0 leads with
        // the header: the gather then joins nothing.
        Some(ctx) => {
            let columns = capture();
            let (dump, render_ns) = if job.spec.return_particles {
                let render_start = shared.clock.now_ns();
                let pieces = render_rows(&[&columns], ctx.shard_id == 0, RowEnd::Escaped);
                let render_ns = shared.clock.now_ns().saturating_sub(render_start);
                (pieces, render_ns)
            } else {
                (Vec::new(), 0)
            };
            let report = JobReport {
                shards: ctx.shards,
                columns: Some(columns),
                dump,
                render_ns,
                ..report
            };
            shared.finish(job, Outcome::Completed(report));
        }
        None => {
            let columns = shared.dump_wanted(&job.spec).then(capture);
            shared.complete(job, report, columns.into_iter().collect());
        }
    }
}
