//! Batch execution: one combined sweep per batch of compatible jobs.
//!
//! The scheduler guarantees every batch is homogeneous (same scenario,
//! layout, precision, step count), so all its jobs' ensembles can be
//! concatenated into one store and pushed by one
//! [`pic_bench::run_mdipole_steps`] call — the per-sweep thread-pool and
//! dispatch overhead is paid once per batch instead of once per job,
//! which is the whole point of coalescing. Cancellation and timeouts are
//! observed at step boundaries via the runner's `on_step` hook (and at
//! chunk boundaries through the shared [`CancelToken`]); a job that
//! drops out mid-batch finishes `Cancelled`/`TimedOut` while the
//! survivors keep running.
//!
//! **One store, segments at the edges.** A batch's jobs are seeded
//! straight into the one store that runs them. Everything computed from
//! the t=0 state — the pinned Morton order and the Precalculated field
//! context — is computed from that store before anything else touches
//! it; particle state then enters and leaves the store only as a
//! [`ColumnSegment`], always in the job's original particle order: a
//! resume splices the checkpoint segment over the seeded particles, a
//! checkpoint or a completion captures one.
//!
//! **Checkpoint/resume.** With `checkpoint_interval > 0` the batch is
//! integrated in segments of steps; between them every live job's span
//! is captured into the scheduler's [`CheckpointStore`]. A job whose
//! worker died resumes here from that capture: the simulation clock is
//! reconstructed by the same repeated `t += dt` accumulation the
//! uninterrupted run used, and the field context was prepared from the
//! seeded ensemble as in the original run, so the per-particle field
//! samples match it exactly. Both together make a resumed trajectory
//! bitwise-identical to an uninterrupted one
//! (`tests/fault_injection.rs` proves it across seeded kill schedules).
//!
//! [`CheckpointStore`]: crate::checkpoint::CheckpointStore
//!
//! **Device jobs.** A spec whose `device` names a modeled GPU runs each
//! segment through [`pic_bench::run_device_steps`] instead of the host
//! sweep — the same kernel over staged columns, so trajectories (and
//! therefore checkpoints, resumes, and cache dumps) stay bitwise
//! identical to a host run; only the reported NSPS differs, coming from
//! the accumulated modeled kernel time rather than wall clock.

use crate::cache::CacheKey;
use crate::dispatch::Batch;
use crate::job::{JobReport, Outcome};
use crate::scheduler::Shared;
use crate::shard::{merge_segments, shard_kill_key};
use crate::state::JobState;
use crate::stats::Counter;
use pic_bench::{
    append_ensemble_range, bench_dt, merge_thread_stats, run_device_steps, run_mdipole_steps,
    KernelVariant, MdipoleScenario,
};
use pic_math::Real;
use pic_particles::sort::{apply_perm, invert_perm, morton_perm};
use pic_particles::{AosEnsemble, ColumnSegment, Layout, ParticleStore, SoaEnsemble};
use pic_perfmodel::Precision;
use pic_runtime::sync::lock;
use pic_runtime::{imbalance_of, CancelToken, ExecTarget};
use pic_telemetry::ThreadStat;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Executes one batch to terminality: every still-live job of `batch`
/// has a published outcome (or sits requeued for a resume) when this
/// returns. Runs on a worker thread; a panic here is caught by the
/// worker, which requeues the batch's jobs for checkpoint resume.
pub(crate) fn run_batch(shared: &Shared, batch: &Batch) {
    let now = shared.clock.now_ns();
    let mut claimed: Vec<Arc<JobState>> = Vec::with_capacity(batch.jobs.len());
    for job in &batch.jobs {
        // Claim-time cache check: the key may have been filled after
        // this job was admitted (it lost the admission race against an
        // identical job, or was requeued past a completed duplicate).
        // Shard sub-jobs skip it — their spec's key aliases a genuine
        // small job's, and the gather needs their real execution.
        if shared.cfg.cache_capacity > 0 && job.shard.is_none() {
            let hit = lock(&shared.cache).lookup(CacheKey::of(&job.spec));
            if let Some(result) = hit {
                if shared.finish(job, Outcome::Completed(result.to_report(&job.spec))) {
                    shared.counters.bump(Counter::CacheHits);
                }
                continue;
            }
        }
        if !job.claim() {
            continue; // cancelled (or otherwise finished) while queued
        }
        if let Some(seed) = shared.cfg.fault_inject_seed {
            if job.spec.seed == seed {
                panic!("fault injection: job {} seed {seed}", job.id);
            }
        }
        if job.cancel_pending() {
            shared.finish(job, Outcome::Cancelled);
            continue;
        }
        if job.timed_out_at(now) {
            shared.finish(job, Outcome::TimedOut);
            continue;
        }
        claimed.push(job.clone());
    }
    if claimed.is_empty() {
        return;
    }
    // Resumed jobs must start at their own checkpoint step, so the
    // batch splits into same-start-step groups (almost always one).
    // BTreeMap keeps the group order deterministic.
    let mut groups: BTreeMap<usize, Vec<Arc<JobState>>> = BTreeMap::new();
    for job in claimed {
        let start = shared.checkpoints.step_of(job.id);
        groups.entry(start).or_default().push(job);
    }
    for (start_step, jobs) in groups {
        // The scheduler only batches compatible jobs; the first job's
        // physics configuration speaks for the whole group.
        let spec = &jobs[0].spec;
        match (spec.layout, spec.precision) {
            (Layout::Aos, Precision::F32) => {
                run_typed::<f32, AosEnsemble<f32>>(shared, &jobs, start_step)
            }
            (Layout::Aos, Precision::F64) => {
                run_typed::<f64, AosEnsemble<f64>>(shared, &jobs, start_step)
            }
            (Layout::Soa, Precision::F32) => {
                run_typed::<f32, SoaEnsemble<f32>>(shared, &jobs, start_step)
            }
            (Layout::Soa, Precision::F64) => {
                run_typed::<f64, SoaEnsemble<f64>>(shared, &jobs, start_step)
            }
        }
    }
}

fn run_typed<R: Real, S: ParticleStore<R>>(
    shared: &Shared,
    group: &[Arc<JobState>],
    start_step: usize,
) {
    // Seed every job's t=0 ensemble into the combined store and remember
    // its span; a resuming job also brings the checkpoint segment that
    // will replace its span once the t=0 state has been read.
    let mut runnable: Vec<Arc<JobState>> = Vec::with_capacity(group.len());
    let mut store = S::default();
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(group.len());
    let mut resumed: Vec<(usize, Arc<ColumnSegment>)> = Vec::new();
    for job in group {
        if start_step > 0 {
            let snapshot = shared
                .checkpoints
                .snapshot(job.id)
                .filter(|snap| snap.segment.len() == job.spec.particles);
            let Some(snapshot) = snapshot else {
                // Missing or ill-fitting snapshot (never expected — it
                // was captured in-memory). Drop it and retry the job
                // from step 0, or fail it explicitly.
                shared.checkpoints.remove(job.id);
                shared.requeue_or_reject(job);
                continue;
            };
            resumed.push((store.len(), snapshot.segment));
            // ordering: Relaxed — diagnostic, read after terminality.
            job.resume_step.store(start_step as u64, Ordering::Relaxed);
        }
        // A shard sub-job seeds the *parent's* RNG stream and keeps its
        // plan range, so concatenating the shards reproduces the
        // monolithic ensemble bitwise.
        let (n_total, offset) = match &job.shard {
            Some(ctx) => (ctx.parent_particles, ctx.offset),
            None => (job.spec.particles, 0),
        };
        spans.push((store.len(), job.spec.particles));
        append_ensemble_range(
            &mut store,
            n_total,
            job.spec.seed,
            offset,
            job.spec.particles,
        );
        runnable.push(job.clone());
    }
    if runnable.is_empty() {
        return;
    }
    let jobs = &runnable[..];
    // Pinned shard execution: pre-sort the shard's sub-range into
    // Morton order so neighbouring particles touch neighbouring field
    // cells (shard sub-jobs always ride alone, so the whole combined
    // store is this one span). The permutation is computed from the
    // t=0 ensemble — deterministic across resumes — and segments cross
    // the store's edge through it: in through `perm`, out through its
    // inverse, so checkpoints, dumps and gather payloads are all in
    // original order. The Boris kernel is particle-independent, so
    // execution order cannot change any particle's arithmetic: results
    // stay bitwise identical to an unpinned run.
    let pinned_shard = shared.cfg.pinned && jobs.len() == 1 && jobs[0].shard.is_some();
    let shard_id = jobs[0].shard.as_ref().map_or(0, |c| c.shard_id);
    let perm: Option<Vec<usize>> =
        (pinned_shard && store.len() > 1).then(|| morton_perm(&store, &pic_bench::bench_grid()));
    if let Some(perm) = &perm {
        apply_perm(&mut store, perm);
    }
    let restore: Option<Vec<usize>> = perm.as_deref().map(invert_perm);
    // Field preparation (the Precalculated sampling pass) stays outside
    // the timed region, mirroring the bench harness.
    let ctx = MdipoleScenario::<R>::prepare(jobs[0].spec.scenario, &store);
    for (offset, segment) in &resumed {
        segment.splice_into(&mut store, *offset, perm.as_deref());
    }
    // Validation guarantees the device name parses; Host is a safe
    // fallback for a spec that somehow bypassed it.
    let target = ExecTarget::parse(&jobs[0].spec.device).unwrap_or_default();
    let token = CancelToken::new();
    let mut alive: Vec<bool> = vec![true; jobs.len()];
    let start_ns = shared.clock.now_ns();
    // Reconstruct the simulation clock by repeated accumulation — the
    // exact op sequence the runner itself uses (`*time += dt` per step);
    // one multiplication would differ in the last ulp and break the
    // bitwise resume guarantee.
    let dt = R::from_f64(bench_dt());
    let mut time = R::ZERO;
    for _ in 0..start_step {
        time += dt;
    }
    let total = jobs[0].spec.steps;
    let interval = shared.cfg.checkpoint_interval;
    let mut abs = start_step;
    let mut thread_stats: Vec<ThreadStat> = Vec::new();
    let mut device_ns = 0.0f64;
    let mut halted = false;
    while abs < total && !halted {
        let seg = match interval {
            0 => total - abs,
            n => (total - abs).min(n),
        };
        let seg_base = abs;
        let mut boundary = |step: usize| {
            let now = shared.clock.now_ns();
            let mut any_alive = false;
            for (k, job) in jobs.iter().enumerate() {
                if !alive[k] {
                    continue;
                }
                if job.cancel_pending() {
                    shared.finish(job, Outcome::Cancelled);
                    alive[k] = false;
                } else if job.timed_out_at(now) {
                    shared.finish(job, Outcome::TimedOut);
                    alive[k] = false;
                } else {
                    any_alive = true;
                }
            }
            if !any_alive {
                token.cancel();
                return false;
            }
            // Deterministic fault injection: a kill-point armed for the
            // absolute step boundary just completed takes this worker
            // down; the scheduler requeues the victims for resume.
            if let Some(plan) = &shared.cfg.kill_plan {
                for (k, job) in jobs.iter().enumerate() {
                    // A shard sub-job consults the plan under its shard
                    // kill key, so a point armed via `arm_shard` takes
                    // down exactly one shard's worker.
                    let key = match &job.shard {
                        Some(ctx) => shard_kill_key(job.spec.seed, ctx.shard_id),
                        None => job.spec.seed,
                    };
                    if alive[k] && plan.fire(key, seg_base + step + 1) {
                        panic!("kill-point: job {} at step {}", job.id, seg_base + step + 1);
                    }
                }
            }
            true
        };
        // Service batches always take the fast path: zero-gather on SoA
        // stores, scalar arithmetic (bitwise-identical trajectories) on
        // AoS. Device jobs run the same kernel through the device
        // backend's staged columns — same trajectories, modeled timing.
        let (steps_done, interrupted) = if target.is_host() {
            // A pinned shard sweeps with its own per-shard tuned grain
            // (re-resolved each segment so observations feed forward),
            // falling back to the service-wide schedule until its
            // affinity slot has settled.
            let schedule = if pinned_shard {
                shared
                    .affinity
                    .schedule_for(shard_id)
                    .unwrap_or(shared.cfg.schedule)
            } else {
                shared.cfg.schedule
            };
            let run = run_mdipole_steps(
                &mut store,
                &ctx,
                seg,
                &mut time,
                &shared.cfg.topology,
                schedule,
                KernelVariant::SoaFast,
                Some(&token),
                &mut |step, report| {
                    if pinned_shard {
                        shared.affinity.observe(shard_id, report);
                    }
                    boundary(step)
                },
            );
            merge_thread_stats(&mut thread_stats, run.thread_stats);
            (run.steps_done, run.interrupted)
        } else {
            let run = run_device_steps(
                &mut store,
                &ctx,
                seg,
                &mut time,
                jobs[0].spec.layout,
                target,
                Some(&token),
                &mut |step, _event| boundary(step),
            );
            device_ns += run.total_ns();
            (run.steps_done, run.interrupted)
        };
        abs += steps_done;
        if interrupted || steps_done < seg {
            halted = true;
        }
        // Segment boundary: snapshot every live job so a later worker
        // death resumes from here instead of step 0.
        if !halted && interval > 0 && abs < total {
            for (k, job) in jobs.iter().enumerate() {
                if !alive[k] {
                    continue;
                }
                let (offset, len) = spans[k];
                let segment = ColumnSegment::capture(&store, offset, len, restore.as_deref());
                shared.checkpoints.put(job.id, abs, segment);
            }
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
    let imbalance = imbalance_of(thread_stats.iter().map(|t| t.particles));
    let time_imbalance = imbalance_of(thread_stats.iter().map(|t| t.busy_ns));
    for (k, job) in jobs.iter().enumerate() {
        if !alive[k] {
            continue;
        }
        if abs < total {
            // The sweep stalled without a terminal reason (unreachable
            // through the runner's contract); never strand the job.
            shared.requeue_or_reject(job);
            continue;
        }
        let (offset, len) = spans[k];
        let capture = || ColumnSegment::capture(&store, offset, len, restore.as_deref());
        let report = JobReport {
            nsps,
            queue_wait_ns: start_ns.saturating_sub(job.submitted_ns),
            run_ns,
            batch_size: jobs.len(),
            steps_done: abs,
            imbalance,
            time_imbalance,
            // ordering: Relaxed — diagnostics, published with the
            // outcome below.
            resumes: u64::from(job.resumes.load(Ordering::Relaxed)),
            resumed_from_step: job.resume_step.load(Ordering::Relaxed),
            ..JobReport::default()
        };
        match &job.shard {
            // A shard hands its slice to the gather, which renders the
            // merged dump once and completes the parent; the shard
            // itself never renders or populates the cache — its spec's
            // key aliases a genuine small job's (same seed, fewer
            // particles).
            Some(ctx) => {
                let report = JobReport {
                    shards: ctx.shards,
                    columns: Some(Arc::new(capture())),
                    ..report
                };
                shared.finish(job, Outcome::Completed(report));
            }
            None => {
                let dump = shared
                    .dump_wanted(&job.spec)
                    .then(|| merge_segments(&[&capture()]))
                    .flatten();
                shared.complete(job, report, dump);
            }
        }
    }
}
