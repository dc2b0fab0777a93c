//! The admission-controlled, batching job scheduler.
//!
//! Three priority lanes (PR 3's lock-free `SegQueue`) feed a dispatcher
//! thread that stages jobs, orders them by (priority, deadline), and
//! coalesces small compatible jobs into batches — one combined
//! `parallel_sweep` per batch, so per-job overhead amortises the way the
//! paper's per-iteration overhead analysis predicts. Worker threads
//! drain the batch queue; a panicking batch takes its worker down, the
//! dispatcher respawns a clean one, and the batch's jobs terminate
//! `Rejected{worker-panic}` instead of vanishing.
//!
//! **Exactly-once terminality.** A job's `phase` atomic moves
//! `QUEUED → RUNNING → DONE` (or straight to `DONE`); every transition
//! to `DONE` happens through one compare-exchange, so no job can be
//! double-completed, double-executed, or lost — the saturation test and
//! the telemetry reconciliation in `tests/soak.rs` check this end to
//! end, and `crates/check/tests/interleave_serve.rs` model-checks the
//! admission/drain protocol below exhaustively.
//!
//! **Admission/drain protocol.** `submit` claims a depth slot *first*
//! (`depth.fetch_add`), then re-checks `draining`: if set, it returns
//! the slot and rejects. The dispatcher and workers exit only when
//! `draining && depth == 0`. Under sequential consistency either the
//! producer observes `draining`, or the consumers observe its
//! `depth > 0` — a submission can never slip past a drained exit.
//!
//! **Cache/coalesce/resume protocol.** Admission consults the
//! deterministic result cache first: a hit completes the job on the
//! spot (`queue_wait_ns = 0`, no depth slot). A miss whose [`CacheKey`]
//! is already in flight registers as a *follower* of the running
//! primary — it holds a depth slot and is cancellable, but never enters
//! a lane; when the primary completes it fills the cache and its
//! followers are served from it (`coalesced`). A primary that dies
//! (panic, kill-point) is requeued up to `max_resumes` times and
//! resumes from its last [`CheckpointStore`] snapshot; if it fails
//! terminally, the oldest live follower is promoted into a lane so the
//! key always makes progress. The protocol is model-checked in
//! `crates/check/tests/interleave_cache.rs` and fault-injected
//! end-to-end in `crates/serve/tests/fault_injection.rs`.

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::checkpoint::{CheckpointStore, KillPlan};
use crate::clock::Clock;
use crate::exec;
use crate::job::{JobReport, JobSpec, Outcome, RejectReason};
use crate::shard::{merge_segments, Gather, ShardCtx, ShardPlan};
use pic_particles::ColumnSegment;
use pic_runtime::sync::WorkQueue;
use pic_runtime::{AffinityMap, ExecTarget, Schedule, SweepReport, Topology};
use pic_telemetry::{BenchRecord, SCHEMA_VERSION};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long an idle dispatcher/worker sleeps between queue polls.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// Job phase: admitted, waiting in a lane or a batch.
pub(crate) const QUEUED: u8 = 0;
/// Job phase: claimed by a worker, executing.
pub(crate) const RUNNING: u8 = 1;
/// Job phase: terminal; the outcome is published.
pub(crate) const DONE: u8 = 2;

/// Callback fired exactly once with a job's terminal outcome.
pub type Notifier = Box<dyn FnOnce(u64, &Outcome) + Send>;

/// Locks a mutex, treating poisoning as benign: every critical section
/// below leaves the data consistent even if a panic interrupts it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Service sizing and execution configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing batches. `0` = admission-only (used by
    /// tests to exercise queue behavior deterministically).
    pub workers: usize,
    /// Bound of the admission queue: jobs admitted but not yet terminal.
    /// Submissions beyond it are shed with `Rejected{queue-full}`.
    pub queue_capacity: usize,
    /// Per-job particle-count limit.
    pub max_particles: usize,
    /// Per-job step-count limit.
    pub max_steps: usize,
    /// Jobs at or below this particle count may be coalesced.
    pub coalesce_max_particles: usize,
    /// Combined particle budget of one coalesced batch.
    pub batch_particle_budget: usize,
    /// Thread topology of each batch sweep.
    pub topology: Topology,
    /// Schedule of each batch sweep.
    pub schedule: Schedule,
    /// Test hook: a job whose seed matches panics inside its worker,
    /// exercising panic isolation and respawn. `None` in production.
    pub fault_inject_seed: Option<u64>,
    /// Completed results kept in the deterministic cache (LRU-evicted).
    /// `0` disables caching, follower coalescing and claim-time hits.
    pub cache_capacity: usize,
    /// Steps between particle-store checkpoints inside a running batch.
    /// `0` disables checkpointing: a killed job restarts from step 0.
    pub checkpoint_interval: usize,
    /// Times a worker-death victim is requeued before it terminates
    /// `Rejected{worker-panic}` like a poison job should.
    pub max_resumes: u32,
    /// Test hook: deterministic kill-points fired at step boundaries
    /// (see [`KillPlan`]). `None` in production.
    pub kill_plan: Option<KillPlan>,
    /// Particle count above which an admitted job is domain-decomposed
    /// into shard sub-jobs that run through the normal lanes and are
    /// scatter-gathered back into one completion. `0` disables sharding.
    pub shard_threshold: usize,
    /// Shards an over-threshold job splits into. `0` = auto (one shard
    /// per worker); always clamped to the job's particle count.
    pub shards: usize,
    /// Pin shard sub-jobs to execution units: shard `k` always
    /// dispatches to worker `k mod workers` (with a per-shard grain
    /// tuner that persists across executions of the decomposition), and
    /// a sharded device job is merged as a K-queue pipeline whose
    /// staging overlaps the compute chain. `false` keeps the unpinned
    /// behavior: any worker takes any shard, one device queue.
    pub pinned: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_particles: 1_000_000,
            max_steps: 10_000,
            coalesce_max_particles: 5_000,
            batch_particle_budget: 20_000,
            topology: Topology::single(1),
            schedule: Schedule::dynamic(),
            fault_inject_seed: None,
            cache_capacity: 128,
            checkpoint_interval: 0,
            max_resumes: 3,
            kill_plan: None,
            shard_threshold: 0,
            shards: 0,
            pinned: false,
        }
    }
}

/// One admitted job's shared state.
pub(crate) struct JobState {
    /// Server-assigned id (1-based, dense).
    pub id: u64,
    /// The request.
    pub spec: JobSpec,
    /// Admission time, service-clock ns.
    pub submitted_ns: u64,
    /// `QUEUED` / `RUNNING` / `DONE`.
    pub phase: AtomicU8,
    /// Set by `cancel_job`; observed at claim time and step boundaries.
    pub cancel_requested: AtomicBool,
    /// Times a worker claimed this job. Must never exceed
    /// `1 + resumes`.
    pub executions: AtomicU32,
    /// Times the job was requeued after a worker death.
    pub resumes: AtomicU32,
    /// Checkpoint step the latest execution resumed from (0 = started
    /// from the initial ensemble).
    pub resume_step: AtomicU64,
    /// `Some` when this job is a shard sub-job of a decomposed parent:
    /// its place in the plan and the gather it reports into.
    pub shard: Option<ShardCtx>,
    /// Shard sub-jobs of this job, set before they enter the lanes and
    /// cleared when the gather completes (breaking the parent↔child
    /// `Arc` cycle). Empty for monolithic jobs.
    pub children: Mutex<Vec<Arc<JobState>>>,
    outcome: Mutex<Option<Outcome>>,
    done: Condvar,
    notifier: Mutex<Option<Notifier>>,
}

impl JobState {
    /// A job in `phase` with no outcome yet and all counters at zero.
    pub fn new(
        id: u64,
        spec: JobSpec,
        submitted_ns: u64,
        phase: u8,
        shard: Option<ShardCtx>,
        notifier: Option<Notifier>,
    ) -> JobState {
        JobState {
            id,
            spec,
            submitted_ns,
            phase: AtomicU8::new(phase),
            cancel_requested: AtomicBool::new(false),
            executions: AtomicU32::new(0),
            resumes: AtomicU32::new(0),
            resume_step: AtomicU64::new(0),
            shard,
            children: Mutex::new(Vec::new()),
            outcome: Mutex::new(None),
            done: Condvar::new(),
            notifier: Mutex::new(notifier),
        }
    }

    /// Claims the job for execution: `QUEUED → RUNNING`, exactly once.
    pub fn claim(&self) -> bool {
        // ordering: SeqCst — the claim must be totally ordered against
        // cancel_job's QUEUED→DONE attempt so exactly one side wins.
        if self
            .phase
            .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            // ordering: Relaxed — diagnostic counter; read only after
            // the job is terminal (publication via phase/outcome).
            self.executions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// True once the outcome is published.
    pub fn is_terminal(&self) -> bool {
        // ordering: SeqCst — paired with the finish transition.
        self.phase.load(Ordering::SeqCst) == DONE
    }

    /// True when the job's wall-clock budget is exhausted at `now_ns`.
    pub fn timed_out_at(&self, now_ns: u64) -> bool {
        match self.spec.timeout_ms {
            Some(budget_ms) => now_ns.saturating_sub(self.submitted_ns) >= budget_ms * 1_000_000,
            None => false,
        }
    }

    /// True when cancellation was requested (the job may already have
    /// terminated for another reason).
    pub fn cancel_pending(&self) -> bool {
        // ordering: Relaxed — advisory monotonic flag; a stale read
        // only delays the cancel by one chunk/step boundary.
        self.cancel_requested.load(Ordering::Relaxed)
    }

    /// Telemetry shard coordinates: `(shards, shard_id)` with shard_id
    /// 0 for the merged parent and 1-based for sub-jobs; `None` for an
    /// ordinary monolithic job.
    pub fn shard_meta(&self) -> Option<(u64, u64)> {
        if let Some(ctx) = &self.shard {
            return Some((ctx.shards as u64, ctx.shard_id as u64 + 1));
        }
        let children = lock(&self.children).len();
        (children > 0).then_some((children as u64, 0))
    }
}

/// A group of claimed-together jobs executed as one combined sweep.
pub(crate) struct Batch {
    /// Jobs in dispatch order. Invariant: mutually `batch_compatible`.
    pub jobs: Vec<Arc<JobState>>,
}

/// State shared by the server handle, dispatcher and workers.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub label: String,
    pub clock: Clock,
    /// Priority lanes, index = `Priority::lane()`.
    pub lanes: [WorkQueue<Arc<JobState>>; 3],
    /// Formed batches awaiting a worker.
    pub batches: WorkQueue<Batch>,
    /// Per-worker pinned batch queues (index = worker slot). Used only
    /// under `cfg.pinned`: shard batches are routed to their affinity
    /// slot's queue, everything else rides the shared `batches` queue.
    pub pinned_batches: Vec<WorkQueue<Batch>>,
    /// Shard→worker bindings with per-shard grain tuners, populated at
    /// dispatch time under `cfg.pinned`.
    pub affinity: AffinityMap,
    /// Jobs admitted but not yet terminal (the bounded-queue depth).
    pub depth: AtomicUsize,
    /// Set once by `shutdown`; never cleared.
    pub draining: AtomicBool,
    /// The deterministic result cache (None-equivalent at capacity 0).
    pub cache: Mutex<ResultCache>,
    /// In-flight cache keys: the running primary plus the followers
    /// waiting to be served from its result.
    inflight: Mutex<HashMap<u64, Inflight>>,
    /// Per-job resume snapshots, written at segment boundaries.
    pub checkpoints: CheckpointStore,
    /// Ids handed out (== submissions attempted, including rejects).
    next_id: AtomicU64,
    index: Mutex<HashMap<u64, Arc<JobState>>>,
    records: Mutex<Vec<BenchRecord>>,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    timed_out: AtomicU64,
    /// Jobs served from the result cache (at submit or claim time).
    pub cache_hits: AtomicU64,
    /// Followers served from their primary's freshly cached result.
    pub coalesced: AtomicU64,
    /// Requeues after a worker death (checkpoint resumes).
    pub resumed: AtomicU64,
    /// Jobs observed with more executions than `1 + resumes` allows
    /// (must stay 0).
    pub exec_overruns: AtomicU64,
    /// Over-threshold jobs fanned out into shard sub-jobs.
    pub sharded: AtomicU64,
}

/// One in-flight cache key: the job currently responsible for producing
/// the result, and the identical submissions waiting on it.
struct Inflight {
    primary: u64,
    followers: Vec<Arc<JobState>>,
}

impl Shared {
    /// Publishes `outcome` as the job's terminal state — exactly once.
    /// Returns false if another party already finished the job.
    pub fn finish(&self, job: &Arc<JobState>, outcome: Outcome) -> bool {
        // ordering: SeqCst — the unique non-DONE→DONE transition; total
        // order guarantees exactly one winner among worker, canceller
        // and drain paths.
        let mut cur = job.phase.load(Ordering::SeqCst);
        loop {
            if cur == DONE {
                return false;
            }
            // ordering: SeqCst — see above.
            match job
                .phase
                .compare_exchange(cur, DONE, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.publish(job, outcome);
        true
    }

    /// Finishes the job only if it is still in `expected` phase.
    pub fn finish_if(&self, job: &Arc<JobState>, expected: u8, outcome: Outcome) -> bool {
        // ordering: SeqCst — same uniqueness argument as `finish`.
        let won = job
            .phase
            .compare_exchange(expected, DONE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if won {
            self.publish(job, outcome);
        }
        won
    }

    /// What the one winner of the `DONE` transition does: publishes the
    /// outcome, emits the record, releases the depth slot, resolves the
    /// cache/resume bookkeeping and fires the notifier.
    fn publish(&self, job: &Arc<JobState>, outcome: Outcome) {
        // ordering: Relaxed — diagnostic; phase is already DONE. Each
        // resume legitimately re-claims the job once, so the invariant
        // is `executions <= 1 + resumes`.
        if job.executions.load(Ordering::Relaxed) > 1 + job.resumes.load(Ordering::Relaxed) {
            // ordering: Relaxed — diagnostic counter.
            self.exec_overruns.fetch_add(1, Ordering::Relaxed);
        }
        *lock(&job.outcome) = Some(outcome.clone());
        job.done.notify_all();
        lock(&self.index).remove(&job.id);
        self.emit_record(
            job.id,
            &job.spec,
            &outcome,
            job.submitted_ns,
            job.shard_meta(),
        );
        self.bump(&outcome);
        let notifier = lock(&job.notifier).take();
        // ordering: SeqCst — the depth slot is released only after the
        // outcome is published, so `draining && depth == 0` at an exit
        // point implies every admitted job already has its outcome.
        self.depth.fetch_sub(1, Ordering::SeqCst);
        self.after_finish(job, &outcome);
        if let Some(notify) = notifier {
            notify(job.id, &outcome);
        }
    }

    /// Post-terminality bookkeeping for the cache/resume protocol:
    /// drops the job's checkpoint and resolves its in-flight cache
    /// entry. A completed primary's followers are served from the
    /// result it just cached; a failed primary's oldest live follower
    /// is promoted into a lane so the key keeps making progress.
    fn after_finish(&self, job: &Arc<JobState>, outcome: &Outcome) {
        self.checkpoints.remove(job.id);
        // Shard sub-jobs stay out of the cache/inflight protocol
        // entirely: their spec (same seed, the shard's particle count)
        // would alias the [`CacheKey`] of a genuine small job, so they
        // must neither resolve nor populate that key. Only the parent's
        // merged result is cached, under the parent's unchanged key.
        if job.shard.is_some() {
            return;
        }
        if self.cfg.cache_capacity == 0 {
            return;
        }
        let key = CacheKey::of(&job.spec);
        let mut to_serve: Vec<Arc<JobState>> = Vec::new();
        let mut to_promote: Option<Arc<JobState>> = None;
        {
            let mut inflight = lock(&self.inflight);
            let Some(mut entry) = inflight.remove(&key.hash()) else {
                return;
            };
            if entry.primary != job.id {
                // A follower terminated on its own (cancelled while
                // waiting): just forget it, the entry stays.
                entry.followers.retain(|f| f.id != job.id);
                inflight.insert(key.hash(), entry);
                return;
            }
            match outcome {
                Outcome::Completed(_) => to_serve = entry.followers,
                _ => {
                    entry.followers.retain(|f| !f.is_terminal());
                    if !entry.followers.is_empty() {
                        let next = entry.followers.remove(0);
                        to_promote = Some(next.clone());
                        inflight.insert(
                            key.hash(),
                            Inflight {
                                primary: next.id,
                                followers: entry.followers,
                            },
                        );
                    }
                }
            }
        }
        // Outside the inflight lock: `finish` recurses into
        // `after_finish`, which must be able to retake it.
        for follower in to_serve {
            self.serve_follower(&follower, key);
        }
        if let Some(promoted) = to_promote {
            self.lanes[promoted.spec.priority.lane()].push(promoted);
        }
    }

    /// Terminates a follower from its completed primary's cached
    /// result (or, in the never-expected case that the result did not
    /// reach the cache, requeues it into a lane to run itself).
    fn serve_follower(&self, follower: &Arc<JobState>, key: CacheKey) {
        if follower.is_terminal() {
            return;
        }
        if follower.timed_out_at(self.clock.now_ns()) {
            self.finish(follower, Outcome::TimedOut);
            return;
        }
        let hit = lock(&self.cache).lookup(key);
        match hit {
            Some(result) => {
                let outcome = Outcome::Completed(result.to_report(&follower.spec));
                if self.finish(follower, outcome) {
                    // ordering: Relaxed — monotonic stats counter.
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => self.lanes[follower.spec.priority.lane()].push(follower.clone()),
        }
    }

    /// Requeues a worker-death victim for a checkpoint resume. Returns
    /// false when the job is already terminal or its resume budget is
    /// exhausted — the caller then rejects it as a poison job.
    pub fn try_requeue(&self, job: &Arc<JobState>) -> bool {
        if job.is_terminal() {
            return false;
        }
        // ordering: Relaxed — the budget is only advanced by the one
        // thread handling this job's death (the panicking worker's
        // cleanup); publication rides on the lane queue.
        if job.resumes.load(Ordering::Relaxed) >= self.cfg.max_resumes {
            return false;
        }
        // ordering: SeqCst — the inverse of `claim`; must be totally
        // ordered against concurrent cancel/finish DONE transitions so
        // a terminal job is never requeued.
        match job
            .phase
            .compare_exchange(RUNNING, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                // ordering: Relaxed — diagnostic counters (see above).
                job.resumes.fetch_add(1, Ordering::Relaxed);
                // ordering: Relaxed — monotonic stats counter.
                self.resumed.fetch_add(1, Ordering::Relaxed);
            }
            // Never claimed (a batch mate of the victim): requeue it
            // without charging its resume budget.
            Err(QUEUED) => {}
            Err(_) => return false,
        }
        self.lanes[job.spec.priority.lane()].push(job.clone());
        true
    }

    fn bump(&self, outcome: &Outcome) {
        let counter = match outcome {
            Outcome::Completed(_) => &self.completed,
            Outcome::Rejected(_) => &self.rejected,
            Outcome::Cancelled => &self.cancelled,
            Outcome::TimedOut => &self.timed_out,
        };
        // ordering: Relaxed — monotonic stats counters, read for
        // snapshots only.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends the job's telemetry record. Every submission — admitted
    /// or shed — produces exactly one record, so a record count always
    /// reconciles with a submission count (shard sub-jobs take ids from
    /// the same counter, so the invariant covers them too). `shard` is
    /// the record's `(shards, shard_id)` coordinates, `None` for
    /// monolithic jobs.
    pub fn emit_record(
        &self,
        id: u64,
        spec: &JobSpec,
        outcome: &Outcome,
        submitted_ns: u64,
        shard: Option<(u64, u64)>,
    ) {
        let report = match outcome {
            Outcome::Completed(r) => Some(r),
            _ => None,
        };
        let queue_wait_ns = report.map_or_else(
            || self.clock.now_ns().saturating_sub(submitted_ns) as f64,
            |r| r.queue_wait_ns as f64,
        );
        let nsps = report.map_or(0.0, |r| r.nsps);
        let rec = BenchRecord {
            schema: SCHEMA_VERSION,
            label: format!("{}/job{}", self.label, id),
            layout: spec.layout.name().to_string(),
            scenario: spec.scenario.name().to_string(),
            precision: spec.precision.name().to_string(),
            schedule: self.cfg.schedule.paper_name().to_string(),
            threads: self.cfg.topology.total_threads() as u64,
            domains: self.cfg.topology.domains() as u64,
            particles: spec.particles as u64,
            steps_per_iteration: spec.steps as u64,
            iterations: 1,
            iteration_ns: report.map_or_else(Vec::new, |r| vec![r.run_ns as f64]),
            warmup_nsps: nsps,
            steady_nsps: nsps,
            mean_nsps: nsps,
            imbalance: report.map_or(0.0, |r| r.imbalance),
            time_imbalance: report.map_or(0.0, |r| r.time_imbalance),
            thread_stats: Vec::new(),
            flops_per_particle: 0.0,
            bytes_per_particle: 0.0,
            model_nsps: 0.0,
            model_ratio: 0.0,
            queue_wait_ns,
            batch_size: report.map_or(0, |r| r.batch_size as u64),
            outcome: outcome.name().to_string(),
            // Batches run through the SoA fast path (exec.rs); the
            // service does no locality sorting, so order is whatever the
            // sphere fill produced (unmeasured here).
            kernel_variant: pic_bench::KernelVariant::SoaFast.name().to_string(),
            order_fraction: 0.0,
            cache_hit: report.is_some_and(|r| r.cache_hit),
            resumes: report.map_or(0, |r| r.resumes),
            resumed_from_step: report.map_or(0, |r| r.resumed_from_step),
            shards: shard.map_or(0, |(k, _)| k),
            shard_id: shard.map_or(0, |(_, i)| i),
            // Host jobs keep the legacy empty dimension; device jobs
            // carry their modeled target so the records stay distinct.
            device: if spec.device == "host" {
                String::new()
            } else {
                spec.device.clone()
            },
            pinned: self.cfg.pinned && shard.is_some(),
            gather_ns: report.map_or(0.0, |r| r.gather_ns as f64),
        };
        lock(&self.records).push(rec);
    }

    fn stats_snapshot(&self) -> ServeStats {
        ServeStats {
            // ordering: Relaxed — snapshot of monotonic counters.
            submitted: self.next_id.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            // ordering: Relaxed — snapshot of monotonic counters.
            cancelled: self.cancelled.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            // ordering: SeqCst — consistent with admission/finish.
            depth: self.depth.load(Ordering::SeqCst),
            // ordering: Relaxed — snapshot of monotonic counters.
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            exec_overruns: self.exec_overruns.load(Ordering::Relaxed),
            // ordering: Relaxed — snapshot of monotonic counters.
            sharded: self.sharded.load(Ordering::Relaxed),
        }
    }

    /// Merges the outcomes of every shard sub-job into the parent's one
    /// terminal outcome. Runs exactly once per sharded job — the last
    /// shard to report through [`Gather::report`] calls it.
    ///
    /// A shard that failed fails the whole job with the first
    /// non-completed outcome in shard order (deterministic). Otherwise
    /// the merged dump is the header plus the shards' bodies in plan
    /// order — bitwise what the monolithic run would have produced —
    /// and the merged measurements reconcile against the per-shard
    /// records: `run_ns`/`steps_done` are the critical path (max),
    /// `resumes` the sum, imbalance the particle-weighted mean.
    pub(crate) fn finish_sharded(&self, gather: &Gather, outcomes: Vec<Outcome>) {
        let parent = &gather.parent;
        if let Some(bad) = outcomes
            .iter()
            .find(|o| !matches!(o, Outcome::Completed(_)))
        {
            self.finish(parent, bad.clone());
            lock(&parent.children).clear();
            return;
        }
        let reports: Vec<&JobReport> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect();
        // Columnar gather: shards return typed column segments, rendered
        // here in plan order to the io text format exactly once.
        let gather_start = self.clock.now_ns();
        let segments: Vec<&ColumnSegment> = reports
            .iter()
            .filter_map(|r| r.columns.as_deref())
            .collect();
        let dump = self
            .dump_wanted(&parent.spec)
            .then(|| merge_segments(&segments))
            .flatten();
        let gather_ns = self.clock.now_ns().saturating_sub(gather_start);
        let mut run_ns = reports.iter().map(|r| r.run_ns).max().unwrap_or(0);
        // Pinned device sharding: one queue per shard lets shard k+1's
        // column staging overlap shard k's kernel, so the merged wall
        // time is the modeled pipeline makespan over the shards' kernel
        // times (per-shard nsps × work recovers the roofline number the
        // device lane reported), not the critical-path max alone.
        if self.cfg.pinned {
            let target = ExecTarget::parse(&parent.spec.device).unwrap_or_default();
            if !target.is_host() {
                let shards: Vec<(usize, f64)> = gather
                    .ranges
                    .iter()
                    .zip(&reports)
                    .map(|(&(_, len), r)| (len, r.nsps * len as f64 * r.steps_done as f64))
                    .collect();
                if let Some(pipe) = pic_bench::shard_pipeline(
                    target,
                    parent.spec.scenario,
                    parent.spec.precision,
                    &shards,
                ) {
                    run_ns = (pipe.makespan() * 1e9).round() as u64;
                }
            }
        }
        let steps_done = reports.iter().map(|r| r.steps_done).max().unwrap_or(0);
        let queue_wait_ns = reports.iter().map(|r| r.queue_wait_ns).min().unwrap_or(0);
        let weigh = |field: fn(&JobReport) -> f64| -> f64 {
            let per_shard: Vec<(usize, f64)> = reports
                .iter()
                .zip(&gather.ranges)
                .map(|(r, &(_, len))| (len, field(r)))
                .collect();
            SweepReport::merge_shard_imbalance(&per_shard)
        };
        let imbalance = weigh(|r| r.imbalance);
        let time_imbalance = weigh(|r| r.time_imbalance);
        let work = parent.spec.particles as f64 * steps_done as f64;
        let nsps = if work > 0.0 {
            run_ns as f64 / work
        } else {
            0.0
        };
        let report = JobReport {
            nsps,
            queue_wait_ns,
            run_ns,
            batch_size: 1,
            steps_done,
            imbalance,
            time_imbalance,
            resumes: reports.iter().map(|r| r.resumes).sum(),
            resumed_from_step: reports
                .iter()
                .map(|r| r.resumed_from_step)
                .max()
                .unwrap_or(0),
            shards: reports.len(),
            gather_ns,
            ..JobReport::default()
        };
        self.complete(parent, report, dump);
        lock(&parent.children).clear();
    }

    /// True when the requester or the result cache will read the text
    /// dump of a job with `spec`; nobody else does, so it is rendered
    /// only then.
    pub(crate) fn dump_wanted(&self, spec: &JobSpec) -> bool {
        spec.return_particles || self.cfg.cache_capacity > 0
    }

    /// The one exit of a completed run, monolithic or merged: memoizes
    /// the result, hands the dump to a requester that asked for it, and
    /// finishes the job.
    pub(crate) fn complete(
        &self,
        job: &Arc<JobState>,
        mut report: JobReport,
        dump: Option<String>,
    ) {
        // Fill the cache before finishing: `after_finish` serves the
        // job's coalesced followers straight from this entry.
        if self.cfg.cache_capacity > 0 {
            if let Some(text) = &dump {
                lock(&self.cache).insert(
                    CacheKey::of(&job.spec),
                    CachedResult {
                        nsps: report.nsps,
                        run_ns: report.run_ns,
                        batch_size: report.batch_size,
                        steps_done: report.steps_done,
                        imbalance: report.imbalance,
                        time_imbalance: report.time_imbalance,
                        particles: Some(text.clone()),
                        shards: report.shards,
                    },
                );
            }
        }
        report.particles = dump.filter(|_| job.spec.return_particles);
        self.finish(job, Outcome::Completed(report));
    }
}

/// Fans an admitted over-threshold job out into shard sub-jobs: one
/// child per [`ShardPlan`] range, each with its own depth slot, index
/// entry and a gather-reporting notifier, pushed through the parent's
/// priority lane. The parent never enters a lane — the last shard's
/// report completes it via [`Shared::finish_sharded`].
fn fan_out(shared: &Arc<Shared>, parent: &Arc<JobState>, shards: usize) {
    let plan = ShardPlan::new(parent.spec.particles, shards);
    let gather = Arc::new(Gather::new(parent.clone(), plan.ranges().to_vec()));
    let mut children: Vec<Arc<JobState>> = Vec::with_capacity(plan.shards());
    for (shard_id, &(offset, len)) in plan.ranges().iter().enumerate() {
        // ordering: Relaxed — id allocation only needs uniqueness.
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut spec = parent.spec.clone();
        spec.particles = len;
        // The gather needs every shard's final state regardless of what
        // the requester asked for.
        spec.return_particles = true;
        let report_into = shared.clone();
        let g = gather.clone();
        let notifier: Notifier = Box::new(move |_, outcome| {
            if let Some(all) = g.report(shard_id, outcome) {
                report_into.finish_sharded(&g, all);
            }
        });
        let ctx = ShardCtx {
            shard_id,
            shards: plan.shards(),
            offset,
            parent_particles: parent.spec.particles,
        };
        let child = Arc::new(JobState::new(
            id,
            spec,
            parent.submitted_ns,
            QUEUED,
            Some(ctx),
            Some(notifier),
        ));
        // Internal derived work claims its depth slot unconditionally —
        // the parent already passed admission control, and the drain
        // protocol must see every child.
        // ordering: SeqCst — same slot accounting as `submit`.
        shared.depth.fetch_add(1, Ordering::SeqCst);
        lock(&shared.index).insert(id, child.clone());
        children.push(child);
    }
    // Publish the children on the parent *before* any shard can run:
    // a fast child's finish path reads `shard_meta` off the parent.
    *lock(&parent.children) = children.clone();
    // ordering: Relaxed — monotonic stats counter.
    shared.sharded.fetch_add(1, Ordering::Relaxed);
    let lane = parent.spec.priority.lane();
    for child in children {
        shared.lanes[lane].push(child);
    }
}

/// Shards an admitted spec splits into: 1 (monolithic) unless sharding
/// is enabled and the job is over the threshold.
fn shard_count(cfg: &ServeConfig, spec: &JobSpec) -> usize {
    if cfg.shard_threshold == 0 || spec.particles <= cfg.shard_threshold {
        return 1;
    }
    let k = if cfg.shards == 0 {
        cfg.workers.max(1)
    } else {
        cfg.shards
    };
    k.clamp(1, spec.particles)
}

/// Counter snapshot of the service.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct ServeStats {
    /// Submissions attempted (including shed ones).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs shed at admission or failed by worker panic.
    pub rejected: u64,
    /// Jobs cancelled by request.
    pub cancelled: u64,
    /// Jobs that exceeded their wall-clock budget.
    pub timed_out: u64,
    /// Jobs admitted but not yet terminal.
    pub depth: usize,
    /// Jobs served from the deterministic result cache.
    pub cache_hits: u64,
    /// Duplicate submissions served from their primary's fresh result.
    pub coalesced: u64,
    /// Checkpoint resumes after worker deaths.
    pub resumed: u64,
    /// Jobs observed executing more often than their resume budget
    /// allows (invariant: 0).
    pub exec_overruns: u64,
    /// Over-threshold jobs fanned out into shard sub-jobs.
    pub sharded: u64,
}

/// Everything `shutdown` hands back after the drain.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Final counters.
    pub stats: ServeStats,
    /// One telemetry record per submission, in finish order.
    pub records: Vec<BenchRecord>,
}

/// Result of a cancellation request.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum CancelResult {
    /// The job was still queued; it is now terminally `Cancelled`.
    Done,
    /// The job is running; it will stop at the next chunk boundary.
    Requested,
    /// The job already reached a terminal outcome.
    AlreadyTerminal,
    /// No such job (never admitted, or already terminal and forgotten).
    Unknown,
}

impl CancelResult {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            CancelResult::Done => "done",
            CancelResult::Requested => "requested",
            CancelResult::AlreadyTerminal => "already-terminal",
            CancelResult::Unknown => "unknown",
        }
    }
}

/// Handle to a submitted job.
pub struct JobTicket {
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("id", &self.state.id)
            .field("outcome", &self.outcome())
            .finish()
    }
}

impl JobTicket {
    /// Server-assigned job id.
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The outcome, if the job already terminated.
    pub fn outcome(&self) -> Option<Outcome> {
        lock(&self.state.outcome).clone()
    }

    /// Blocks until the job terminates.
    pub fn wait(&self) -> Outcome {
        let mut guard = lock(&self.state.outcome);
        loop {
            if let Some(outcome) = guard.clone() {
                return outcome;
            }
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The running service: admission, scheduling, execution, drain.
pub struct Server {
    shared: Arc<Shared>,
    dispatcher: JoinHandle<()>,
}

impl Server {
    /// Starts the dispatcher and worker pool.
    pub fn start(cfg: ServeConfig, label: &str) -> Server {
        let cache = ResultCache::new(cfg.cache_capacity);
        let worker_slots = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            label: label.to_string(),
            clock: Clock::new(),
            lanes: [WorkQueue::new(), WorkQueue::new(), WorkQueue::new()],
            batches: WorkQueue::new(),
            pinned_batches: (0..worker_slots).map(|_| WorkQueue::new()).collect(),
            affinity: AffinityMap::new(worker_slots),
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashMap::new()),
            checkpoints: CheckpointStore::new(),
            next_id: AtomicU64::new(0),
            index: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            exec_overruns: AtomicU64::new(0),
            sharded: AtomicU64::new(0),
        });
        let dispatcher = {
            let shared = shared.clone();
            thread::spawn(move || dispatcher_loop(shared))
        };
        Server { shared, dispatcher }
    }

    /// Submits a job. `Ok` means admitted: the ticket (and the notifier,
    /// if given) will see exactly one terminal outcome. `Err` is an
    /// explicit refusal — the job never entered the queue, and a
    /// telemetry record of the shed was still emitted.
    pub fn submit(
        &self,
        spec: JobSpec,
        notifier: Option<Notifier>,
    ) -> Result<JobTicket, RejectReason> {
        let shared = &self.shared;
        // ordering: Relaxed — id allocation only needs uniqueness.
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let submitted_ns = shared.clock.now_ns();
        if let Err(why) = spec.validate(shared.cfg.max_particles, shared.cfg.max_steps) {
            return Err(self.shed(id, spec, RejectReason::Invalid(why), submitted_ns));
        }
        // Result cache first: a hit terminates on the spot — no depth
        // slot, no queue, `queue_wait_ns = 0`. A draining server skips
        // the cache so shutdown semantics stay uniform.
        //
        // ordering: SeqCst — consistent with the drain flag's store.
        let key = CacheKey::of(&spec);
        if shared.cfg.cache_capacity > 0 && !shared.draining.load(Ordering::SeqCst) {
            let hit = lock(&shared.cache).lookup(key);
            if let Some(result) = hit {
                return Ok(self.complete_cached(id, spec, submitted_ns, notifier, result));
            }
        }
        // ordering: SeqCst — the admission/drain protocol: claim the
        // depth slot first, then re-check draining. Either this thread
        // sees `draining` and backs out, or the drain exit sees
        // `depth > 0` and keeps consuming. Model-checked in
        // crates/check/tests/interleave_serve.rs.
        let prev = shared.depth.fetch_add(1, Ordering::SeqCst);
        // ordering: SeqCst — see above.
        if shared.draining.load(Ordering::SeqCst) {
            // ordering: SeqCst — return the slot taken above.
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(self.shed(id, spec, RejectReason::ShuttingDown, submitted_ns));
        }
        if prev >= shared.cfg.queue_capacity {
            // ordering: SeqCst — return the slot taken above.
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            return Err(self.shed(id, spec, RejectReason::QueueFull, submitted_ns));
        }
        let lane = spec.priority.lane();
        let job = Arc::new(JobState::new(
            id,
            spec,
            submitted_ns,
            QUEUED,
            None,
            notifier,
        ));
        // Coalesce duplicates: if this key is already in flight, the
        // job becomes a follower — admitted (depth slot, cancellable via
        // the index) but kept out of the lanes; the primary's completion
        // serves it. Otherwise it is the key's new primary.
        let mut follower = false;
        if shared.cfg.cache_capacity > 0 {
            let mut inflight = lock(&shared.inflight);
            match inflight.get_mut(&key.hash()) {
                Some(entry) => {
                    entry.followers.push(job.clone());
                    follower = true;
                }
                None => {
                    inflight.insert(
                        key.hash(),
                        Inflight {
                            primary: id,
                            followers: Vec::new(),
                        },
                    );
                }
            }
        }
        lock(&shared.index).insert(id, job.clone());
        if !follower {
            let k = shard_count(&shared.cfg, &job.spec);
            if k >= 2 {
                fan_out(shared, &job, k);
            } else {
                shared.lanes[lane].push(job.clone());
            }
        }
        Ok(JobTicket { state: job })
    }

    /// Terminates a cache-hit submission immediately: the job is born
    /// `DONE` with the memoized report, never holds a depth slot, and
    /// still produces its telemetry record (one record per submission).
    fn complete_cached(
        &self,
        id: u64,
        spec: JobSpec,
        submitted_ns: u64,
        notifier: Option<Notifier>,
        result: CachedResult,
    ) -> JobTicket {
        let shared = &self.shared;
        let outcome = Outcome::Completed(result.to_report(&spec));
        let job = Arc::new(JobState::new(id, spec, submitted_ns, DONE, None, None));
        *lock(&job.outcome) = Some(outcome.clone());
        shared.emit_record(id, &job.spec, &outcome, submitted_ns, None);
        shared.bump(&outcome);
        // ordering: Relaxed — monotonic stats counter.
        shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(notify) = notifier {
            notify(id, &outcome);
        }
        JobTicket { state: job }
    }

    fn shed(
        &self,
        id: u64,
        spec: JobSpec,
        reason: RejectReason,
        submitted_ns: u64,
    ) -> RejectReason {
        let outcome = Outcome::Rejected(reason.clone());
        self.shared
            .emit_record(id, &spec, &outcome, submitted_ns, None);
        self.shared.bump(&outcome);
        reason
    }

    /// Requests cancellation of job `id`.
    pub fn cancel_job(&self, id: u64) -> CancelResult {
        let job = lock(&self.shared.index).get(&id).cloned();
        let Some(job) = job else {
            return CancelResult::Unknown;
        };
        // ordering: Relaxed — advisory flag, observed at claim time and
        // step boundaries; the QUEUED→DONE race below is what decides.
        job.cancel_requested.store(true, Ordering::Relaxed);
        // A sharded parent terminates only through its gather: cancel
        // propagates to every child (queued ones terminate on the spot,
        // running ones stop at the next step boundary), and the first
        // `Cancelled` child outcome cancels the merged parent.
        let children: Vec<Arc<JobState>> = lock(&job.children).clone();
        if !children.is_empty() {
            for child in &children {
                // ordering: Relaxed — see above.
                child.cancel_requested.store(true, Ordering::Relaxed);
                self.shared.finish_if(child, QUEUED, Outcome::Cancelled);
            }
            if job.is_terminal() {
                return CancelResult::AlreadyTerminal;
            }
            return CancelResult::Requested;
        }
        if self.shared.finish_if(&job, QUEUED, Outcome::Cancelled) {
            return CancelResult::Done;
        }
        if job.is_terminal() {
            return CancelResult::AlreadyTerminal;
        }
        CancelResult::Requested
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats_snapshot()
    }

    /// Drains every in-flight job, stops all threads, and returns the
    /// final stats plus the per-job telemetry records.
    pub fn shutdown(self) -> ShutdownReport {
        // ordering: SeqCst — the drain flag's store must be totally
        // ordered against admission's depth claim (see `submit`).
        self.shared.draining.store(true, Ordering::SeqCst);
        // The dispatcher exits only at depth == 0 and joins its workers
        // first; a panicked dispatcher still leaves consistent stats.
        let _ = self.dispatcher.join();
        ShutdownReport {
            stats: self.shared.stats_snapshot(),
            records: std::mem::take(&mut *lock(&self.shared.records)),
        }
    }
}

/// Orders staged jobs by (lane, deadline, id) and groups adjacent
/// compatible small jobs under the particle budget. Pure, for direct
/// unit testing — end-to-end batch sizes depend on dispatch timing.
pub(crate) fn form_batches(
    mut staged: Vec<Arc<JobState>>,
    coalesce_max: usize,
    budget: usize,
) -> Vec<Batch> {
    staged.sort_by_key(|j| {
        (
            j.spec.priority.lane(),
            j.spec.deadline_ms.unwrap_or(u64::MAX),
            j.id,
        )
    });
    let mut out: Vec<(Batch, usize)> = Vec::new();
    for job in staged {
        let n = job.spec.particles;
        // Shard sub-jobs always ride alone: a kill-point aimed at one
        // shard must take down only that shard's worker, and the
        // invariance tests rely on per-shard batches being independent.
        if n <= coalesce_max && job.shard.is_none() {
            if let Some((batch, total)) = out.last_mut() {
                let fits = *total + n <= budget
                    && batch.jobs.iter().all(|b| {
                        b.shard.is_none()
                            && b.spec.particles <= coalesce_max
                            && b.spec.batch_compatible(&job.spec)
                    });
                if fits {
                    batch.jobs.push(job);
                    *total += n;
                    continue;
                }
            }
        }
        out.push((Batch { jobs: vec![job] }, n));
    }
    out.into_iter().map(|(batch, _)| batch).collect()
}

/// Resolves the worker slot a batch is pinned to, or `None` when the
/// batch rides the shared queue. Only shard sub-job batches pin (they
/// always ride alone — see `form_batches`); the binding is established
/// once per shard in the [`AffinityMap`] so resumes and respawns land
/// on the same slot, keeping the shard's tuner state warm.
fn pinned_slot(shared: &Shared, batch: &Batch) -> Option<usize> {
    if !shared.cfg.pinned || shared.pinned_batches.is_empty() {
        return None;
    }
    let job = batch.jobs.first()?;
    let ctx = job.shard.as_ref()?;
    let slot = shared.affinity.bind(
        ctx.shard_id,
        job.spec.particles,
        shared.cfg.topology.total_threads(),
    );
    Some(slot % shared.pinned_batches.len())
}

fn dispatcher_loop(shared: Arc<Shared>) {
    let mut workers: Vec<(usize, JoinHandle<()>)> = (0..shared.cfg.workers)
        .map(|slot| (slot, spawn_worker(shared.clone(), slot)))
        .collect();
    loop {
        respawn_dead(&mut workers, &shared);
        let mut staged: Vec<Arc<JobState>> = Vec::new();
        for lane in &shared.lanes {
            while let Some(job) = lane.pop() {
                staged.push(job);
            }
        }
        // Jobs cancelled while still in a lane are already terminal.
        staged.retain(|job| !job.is_terminal());
        // ordering: SeqCst — see the drain-exit check below.
        if shared.draining.load(Ordering::SeqCst) && shared.cfg.workers == 0 {
            // Admission-only configuration (tests): no worker can ever
            // execute the backlog, so the drain cancels it explicitly
            // rather than hanging — never silently.
            for job in staged.drain(..) {
                shared.finish(&job, Outcome::Cancelled);
            }
            while let Some(batch) = shared.batches.pop() {
                for job in &batch.jobs {
                    shared.finish(job, Outcome::Cancelled);
                }
            }
            for queue in &shared.pinned_batches {
                while let Some(batch) = queue.pop() {
                    for job in &batch.jobs {
                        shared.finish(job, Outcome::Cancelled);
                    }
                }
            }
        }
        if !staged.is_empty() {
            for batch in form_batches(
                staged,
                shared.cfg.coalesce_max_particles,
                shared.cfg.batch_particle_budget,
            ) {
                match pinned_slot(&shared, &batch) {
                    Some(slot) => shared.pinned_batches[slot].push(batch),
                    None => shared.batches.push(batch),
                }
            }
            continue;
        }
        // ordering: SeqCst — the drain-exit check of the protocol: a
        // zero depth observed after the drain flag means every admitted
        // job is terminal (see `submit` for the pairing argument).
        if shared.draining.load(Ordering::SeqCst) && shared.depth.load(Ordering::SeqCst) == 0 {
            break;
        }
        thread::sleep(IDLE_WAIT);
    }
    for (_, worker) in workers {
        let _ = worker.join();
    }
}

fn respawn_dead(workers: &mut Vec<(usize, JoinHandle<()>)>, shared: &Arc<Shared>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].1.is_finished() {
            let (slot, dead) = workers.swap_remove(i);
            let _ = dead.join();
            // ordering: SeqCst — matches the worker's own exit check; a
            // normally-exited (drained) worker is not replaced.
            let drained =
                shared.draining.load(Ordering::SeqCst) && shared.depth.load(Ordering::SeqCst) == 0;
            if !drained {
                // The replacement inherits the dead worker's slot so
                // shards pinned to it keep their queue and tuner state.
                workers.push((slot, spawn_worker(shared.clone(), slot)));
            }
        } else {
            i += 1;
        }
    }
}

fn spawn_worker(shared: Arc<Shared>, slot: usize) -> JoinHandle<()> {
    thread::spawn(move || worker_loop(shared, slot))
}

fn worker_loop(shared: Arc<Shared>, slot: usize) {
    loop {
        // Own pinned queue first: a shard bound to this slot must never
        // be stolen by another worker, and the shared queue must never
        // starve this slot's pinned work.
        let next = shared
            .pinned_batches
            .get(slot)
            .and_then(|queue| queue.pop())
            .or_else(|| shared.batches.pop());
        match next {
            Some(batch) => {
                let panicked =
                    catch_unwind(AssertUnwindSafe(|| exec::run_batch(&shared, &batch))).is_err();
                if panicked {
                    // Panic isolation: each of the batch's jobs is
                    // requeued for a checkpoint resume; one that has
                    // exhausted its resume budget (a poison job) is
                    // terminated explicitly instead of vanishing. This
                    // thread dies either way, so the dispatcher
                    // replaces it with a clean one.
                    for job in &batch.jobs {
                        if !shared.try_requeue(job) {
                            shared.finish(job, Outcome::Rejected(RejectReason::WorkerPanic));
                        }
                    }
                    return;
                }
            }
            None => {
                // ordering: SeqCst — the drain-exit check; see
                // `dispatcher_loop`.
                if shared.draining.load(Ordering::SeqCst)
                    && shared.depth.load(Ordering::SeqCst) == 0
                {
                    return;
                }
                thread::sleep(IDLE_WAIT);
            }
        }
    }
}

#[cfg(test)]
pub(crate) fn test_job(id: u64, spec: JobSpec) -> Arc<JobState> {
    Arc::new(JobState::new(id, spec, 0, QUEUED, None, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;

    fn spec(particles: usize) -> JobSpec {
        JobSpec {
            particles,
            ..JobSpec::default()
        }
    }

    #[test]
    fn batches_coalesce_compatible_small_jobs_under_budget() {
        let jobs = vec![
            test_job(1, spec(100)),
            test_job(2, spec(200)),
            test_job(3, spec(300)),
        ];
        let batches = form_batches(jobs, 1_000, 10_000);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].jobs.len(), 3);
    }

    #[test]
    fn big_jobs_ride_alone_and_split_small_runs() {
        let jobs = vec![
            test_job(1, spec(100)),
            test_job(2, spec(5_000)),
            test_job(3, spec(100)),
        ];
        let batches = form_batches(jobs, 1_000, 10_000);
        assert_eq!(batches.len(), 3, "the big job splits the run");
        assert_eq!(batches[1].jobs[0].id, 2);
    }

    #[test]
    fn budget_caps_batch_growth() {
        let jobs = (1..=5).map(|i| test_job(i, spec(400))).collect();
        let batches = form_batches(jobs, 1_000, 1_000);
        assert_eq!(batches.len(), 3, "400+400, 400+400, 400");
        assert_eq!(batches[0].jobs.len(), 2);
        assert_eq!(batches[2].jobs.len(), 1);
    }

    #[test]
    fn incompatible_physics_never_shares_a_batch() {
        let mut double = spec(100);
        double.precision = pic_perfmodel::Precision::F64;
        let jobs = vec![test_job(1, spec(100)), test_job(2, double)];
        let batches = form_batches(jobs, 1_000, 10_000);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn dispatch_order_is_priority_then_deadline_then_id() {
        let mut low = spec(100);
        low.priority = Priority::Low;
        let mut urgent = spec(100);
        urgent.priority = Priority::High;
        urgent.deadline_ms = Some(5);
        let mut later = spec(100);
        later.priority = Priority::High;
        later.deadline_ms = Some(50);
        let jobs = vec![test_job(1, low), test_job(2, later), test_job(3, urgent)];
        let batches = form_batches(jobs, 0, 0); // no coalescing
        let order: Vec<u64> = batches.iter().map(|b| b.jobs[0].id).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn claim_is_exactly_once() {
        let job = test_job(1, spec(10));
        assert!(job.claim());
        assert!(!job.claim(), "second claim must fail");
        // ordering: test-only read.
        assert_eq!(job.executions.load(Ordering::Relaxed), 1);
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn submitted_job_completes_with_a_report_and_a_record() {
        let server = Server::start(quick_cfg(), "sched-test");
        let ticket = server
            .submit(spec(200), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        let Outcome::Completed(report) = ticket.wait() else {
            panic!("expected completion, got {:?}", ticket.outcome());
        };
        assert_eq!(report.steps_done, 10);
        assert!(report.nsps > 0.0);
        assert!(report.batch_size >= 1);
        let out = server.shutdown();
        assert_eq!(out.stats.completed, 1);
        assert_eq!(out.stats.depth, 0);
        assert_eq!(out.stats.exec_overruns, 0);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].outcome, "completed");
        assert_eq!(out.records[0].label, "sched-test/job1");
    }

    #[test]
    fn full_queue_sheds_explicitly_and_recovers() {
        // workers: 0 — nothing drains the lanes, so capacity is exact.
        let cfg = ServeConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "shed-test");
        let t1 = server.submit(spec(10), None);
        let t2 = server.submit(spec(10), None);
        assert!(t1.is_ok() && t2.is_ok());
        match server.submit(spec(10), None) {
            Err(RejectReason::QueueFull) => {}
            other => panic!("expected queue-full, got {other:?}"),
        }
        // Free a slot by cancelling a queued job; admission works again.
        let id = t1.as_ref().map(JobTicket::id).unwrap_or_default();
        assert_eq!(server.cancel_job(id), CancelResult::Done);
        assert!(server.submit(spec(10), None).is_ok());
        let out = server.shutdown();
        assert_eq!(out.stats.rejected, 1);
        assert_eq!(out.stats.cancelled, 3, "drain cancels the queued jobs");
        assert_eq!(out.records.len(), 4, "one record per submission");
    }

    #[test]
    fn cancelling_a_queued_job_yields_cancelled_outcome() {
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "cancel-test");
        let ticket = server
            .submit(spec(10), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        assert_eq!(server.cancel_job(ticket.id()), CancelResult::Done);
        assert_eq!(ticket.wait(), Outcome::Cancelled);
        assert_eq!(server.cancel_job(ticket.id()), CancelResult::Unknown);
        assert_eq!(server.cancel_job(999), CancelResult::Unknown);
        server.shutdown();
    }

    #[test]
    fn exhausted_budget_times_the_job_out() {
        let server = Server::start(quick_cfg(), "timeout-test");
        let mut s = spec(100);
        s.timeout_ms = Some(0); // already expired at claim time
        let ticket = server
            .submit(s, None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        assert_eq!(ticket.wait(), Outcome::TimedOut);
        let out = server.shutdown();
        assert_eq!(out.stats.timed_out, 1);
        assert_eq!(out.records[0].outcome, "timed-out");
    }

    #[test]
    fn worker_panic_rejects_the_job_and_the_pool_recovers() {
        let cfg = ServeConfig {
            workers: 1,
            fault_inject_seed: Some(0xdead),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "panic-test");
        let mut bomb = spec(10);
        bomb.seed = 0xdead;
        let t_bomb = server
            .submit(bomb, None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        assert_eq!(
            t_bomb.wait(),
            Outcome::Rejected(RejectReason::WorkerPanic),
            "panic isolation turns the crash into an explicit outcome"
        );
        // The lone worker died with the panic; a respawned one must
        // pick this job up.
        let t_next = server
            .submit(spec(50), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        assert!(
            matches!(t_next.wait(), Outcome::Completed(_)),
            "pool recovered after the panic"
        );
        let out = server.shutdown();
        assert_eq!(out.stats.rejected, 1);
        assert_eq!(out.stats.completed, 1);
    }

    #[test]
    fn draining_server_refuses_new_work() {
        let server = Server::start(quick_cfg(), "drain-test");
        // ordering: test-only — simulate the drain flag directly.
        server.shared.draining.store(true, Ordering::SeqCst);
        match server.submit(spec(10), None) {
            Err(RejectReason::ShuttingDown) => {}
            other => panic!("expected shutting-down, got {other:?}"),
        }
        let out = server.shutdown();
        assert_eq!(out.stats.rejected, 1);
        assert_eq!(out.stats.depth, 0);
    }

    #[test]
    fn repeat_submission_is_served_from_the_cache() {
        let server = Server::start(quick_cfg(), "cache-test");
        let first = server
            .submit(spec(300), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        assert!(matches!(first.wait(), Outcome::Completed(_)));
        // Identical physics: served without a sweep, queue wait zero.
        let again = server
            .submit(spec(300), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        let Outcome::Completed(report) = again.wait() else {
            panic!("expected completion, got {:?}", again.outcome());
        };
        assert!(report.cache_hit, "second submission must hit the cache");
        assert_eq!(report.queue_wait_ns, 0);
        // Different physics: a genuine run.
        let other = server
            .submit(spec(301), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        let Outcome::Completed(report) = other.wait() else {
            panic!("expected completion, got {:?}", other.outcome());
        };
        assert!(!report.cache_hit);
        let out = server.shutdown();
        assert_eq!(out.stats.completed, 3);
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.stats.depth, 0);
        assert_eq!(out.records.len(), 3, "hits emit records too");
        assert!(out.records.iter().any(|r| r.cache_hit));
    }

    #[test]
    fn requeue_respects_the_resume_budget() {
        let cfg = ServeConfig {
            workers: 0,
            max_resumes: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "requeue-test");
        let job = test_job(1, spec(10));
        // A never-claimed batch mate requeues without charging budget.
        assert!(server.shared.try_requeue(&job));
        // ordering: test-only read.
        assert_eq!(job.resumes.load(Ordering::Relaxed), 0);
        // A claimed victim charges one resume per requeue.
        for expected in 1..=2u32 {
            assert!(job.claim());
            assert!(server.shared.try_requeue(&job));
            // ordering: test-only read.
            assert_eq!(job.resumes.load(Ordering::Relaxed), expected);
        }
        assert!(job.claim());
        assert!(
            !server.shared.try_requeue(&job),
            "budget of 2 is exhausted on the third death"
        );
        assert_eq!(server.stats().resumed, 2);
        // The hand-built job never held a depth slot; drain it from the
        // lane so shutdown's accounting stays balanced.
        while server.shared.lanes[1].pop().is_some() {}
        server.shutdown();
    }

    #[test]
    fn timeout_accounting_uses_the_submission_time() {
        let mut s = spec(10);
        s.timeout_ms = Some(2);
        let job = test_job(1, s);
        assert!(!job.timed_out_at(1_999_999));
        assert!(job.timed_out_at(2_000_000));
        assert!(!test_job(2, spec(10)).timed_out_at(u64::MAX), "no budget");
    }
}
