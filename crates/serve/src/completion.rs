//! Completion: what the one winner of a job's `→ Done` transition does,
//! the cache fill of a completed run, and the requeue of a job whose
//! worker died.
//!
//! **Cache/resume protocol.** A seeded run is a pure function of its
//! spec, so the deterministic result cache is a memo, consulted twice:
//! at admission, where a hit completes the job on the spot
//! (`queue_wait_ns = 0`, no depth slot), and when a worker claims a
//! queued job, which catches a duplicate whose twin completed while it
//! waited. A duplicate claimed while its twin still runs just runs, to
//! the same bits; the second fill of the entry is harmless. A job whose
//! worker dies (panic, kill-point) is requeued up to `max_resumes` times
//! and resumes from its last `CheckpointStore` snapshot; this is
//! fault-injected end-to-end in `crates/serve/tests/fault_injection.rs`.

use crate::cache::{CacheKey, CachedResult};
use crate::job::{JobReport, JobSpec, Outcome, RejectReason};
use crate::lifecycle::State;
use crate::scheduler::Shared;
use crate::state::JobState;
use crate::stats::Counter;
use pic_particles::ColumnSegment;
use pic_runtime::sync::lock;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Shared {
    /// Publishes `outcome` as the job's terminal state — exactly once.
    /// Returns false if another party already finished the job.
    pub(crate) fn finish(&self, job: &Arc<JobState>, outcome: Outcome) -> bool {
        let won = job.phase.finish();
        if won {
            self.publish(job, outcome);
        }
        won
    }

    /// Finishes the job only if it is still in `expected` state.
    pub(crate) fn finish_from(
        &self,
        job: &Arc<JobState>,
        expected: State,
        outcome: Outcome,
    ) -> bool {
        let won = job.phase.finish_from(expected);
        if won {
            self.publish(job, outcome);
        }
        won
    }

    /// What the one winner of the `→ Done` transition does, in this
    /// order (DESIGN.md §3.2 gives the reason for each step's
    /// place): outcome stored (shared, not copied) → waiters woken →
    /// index entry dropped → record + counters → depth released →
    /// checkpoint dropped → notifier.
    fn publish(&self, job: &Arc<JobState>, outcome: Outcome) {
        // ordering: Relaxed — diagnostic; the phase is already `Done`.
        // Each resume legitimately re-claims the job once, so the
        // invariant is `executions <= 1 + resumes`.
        if job.executions.load(Ordering::Relaxed) > 1 + job.resumes.load(Ordering::Relaxed) {
            self.counters.bump(Counter::ExecOverruns);
        }
        // The one materialisation of the outcome (and of a dump in it):
        // the job keeps it, every step below borrows it.
        let outcome = Arc::new(outcome);
        job.store_outcome(outcome.clone());
        lock(&self.index).remove(&job.id);
        self.emit_record(
            job.id,
            &job.spec,
            &outcome,
            job.submitted_ns,
            job.shard_meta(),
        );
        let notifier = job.take_notifier();
        // The slot is released only after the outcome is published, so
        // `Admission::drained` at an exit point implies every admitted
        // job already has its outcome.
        self.admission.release();
        if self.admission.drained() {
            // That was the last job of a draining service: the workers
            // waiting for another one can go.
            self.queue.wake_all();
        }
        self.checkpoints.remove(job.id);
        if let Some(notify) = notifier {
            notify(job.id, &outcome);
        }
    }

    /// Requeues a worker-death victim for a checkpoint resume. Returns
    /// false when the job is not running (terminal, or never claimed) or
    /// its resume budget is exhausted — the caller then rejects it as a
    /// poison job.
    pub(crate) fn try_requeue(&self, job: &Arc<JobState>) -> bool {
        if job.is_terminal() {
            return false;
        }
        // ordering: Relaxed — the budget is only advanced by the one
        // thread handling this job's death (the panicking worker's
        // cleanup); publication rides on the queue's mutex.
        if job.resumes.load(Ordering::Relaxed) >= self.cfg.max_resumes {
            return false;
        }
        if !job.phase.requeue() {
            return false;
        }
        // ordering: Relaxed — diagnostic counter (see above).
        job.resumes.fetch_add(1, Ordering::Relaxed);
        self.counters.bump(Counter::Resumed);
        self.enqueue(job.clone());
        true
    }

    /// Requeues a job whose execution cannot proceed (its worker died,
    /// its checkpoint is unreadable, its sweep stalled); one out of
    /// resume budget — a poison job — terminates
    /// `Rejected{worker-panic}` instead of vanishing.
    pub(crate) fn requeue_or_reject(&self, job: &Arc<JobState>) {
        if !self.try_requeue(job) {
            self.finish(job, Outcome::Rejected(RejectReason::WorkerPanic));
        }
    }

    /// True when the requester or the result cache will read the final
    /// columns of a job with `spec`; nobody else does, so a monolithic
    /// run captures them only then.
    pub(crate) fn dump_wanted(&self, spec: &JobSpec) -> bool {
        spec.return_particles || self.cfg.cache_capacity > 0
    }

    /// The one exit of a completed run, monolithic or merged: memoizes
    /// the result with the run's `columns` — a monolithic run's one
    /// segment, a merged parent's shard segments in plan order, moved in
    /// and never copied — and finishes the job. A monolithic run's dump
    /// is rendered here, as one piece, only for a requester that asked;
    /// a merged parent arrives with the pieces its shards rendered.
    pub(crate) fn complete(
        &self,
        job: &Arc<JobState>,
        mut report: JobReport,
        columns: Vec<Arc<ColumnSegment>>,
    ) {
        let result = CachedResult {
            nsps: report.nsps,
            run_ns: report.run_ns,
            steps_done: report.steps_done,
            imbalance: report.imbalance,
            time_imbalance: report.time_imbalance,
            columns,
            shards: report.shards,
        };
        if job.spec.return_particles && report.dump.is_empty() {
            report.dump = result.render();
        }
        // Fill the cache before finishing: once a requester hears
        // `completed`, an identical resubmission, or a duplicate still
        // queued, is a hit.
        if self.cfg.cache_capacity > 0 {
            lock(&self.cache).insert(CacheKey::of(&job.spec), result);
        }
        self.finish(job, Outcome::Completed(report));
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::CacheKey;
    use crate::job::{JobReport, JobSpec, Outcome};
    use crate::scheduler::{ServeConfig, Server, Shared};
    use crate::shard::{fan_out, merge_segments};
    use crate::state::{test_job, test_spec, JobState, JobTicket};
    use pic_particles::ColumnSegment;
    use pic_runtime::sync::lock;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Fans `spec` out into 3 shards over 11 particles (4/4/3) on a
    /// `workers: 0` server and runs them on this thread: the merged
    /// parent, its report and its shards' reports as the service holds
    /// them.
    fn run_sharded_by_hand(shared: &Arc<Shared>, spec: JobSpec) -> (Arc<JobState>, Vec<JobReport>) {
        let parent = test_job(shared.next_id(), spec);
        // The hand-built parent holds the depth slot its `publish` returns.
        shared.admission.admit_derived();
        fan_out(shared, &parent, 3);
        let children = lock(&parent.children).clone();
        for _ in &children {
            let child = shared.queue.pop(&shared.admission).expect("a shard");
            crate::exec::run_job(shared, &child);
        }
        let reports = [&parent].into_iter().chain(&children).map(|job| {
            match job.shared_outcome().as_deref() {
                Some(Outcome::Completed(r)) => r.clone(),
                other => panic!("job {} did not complete: {other:?}", job.id),
            }
        });
        (parent.clone(), reports.collect())
    }

    /// Text exists only where it was asked for, and is never merged. A
    /// sharded parent that did not ask has no shard render anything, and
    /// its cache entry holds the shards' own segments, from which a hit
    /// that asks renders the dump. One that asked carries its shards' own
    /// pieces, one each in plan order, and a caller's copy joins them into
    /// the dump `merge_segments` renders from the same segments.
    #[test]
    fn a_sharded_parent_renders_only_if_asked_and_never_merges() {
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "render-test");
        let shared = &server.shared;
        let quiet = JobSpec {
            steps: 2,
            ..test_spec(11)
        };
        let asks = JobSpec {
            return_particles: true,
            ..quiet.clone()
        };
        for spec in [
            quiet.clone(),
            JobSpec {
                seed: 8,
                ..asks.clone()
            },
        ] {
            let (parent, reports) = run_sharded_by_hand(shared, spec.clone());
            let (merged, shards) = reports.split_first().expect("parent first");
            let segments: Vec<Arc<ColumnSegment>> = shards
                .iter()
                .map(|r| r.columns.clone().expect("columns"))
                .collect();
            let expect = merge_segments(&segments.iter().map(|s| &**s).collect::<Vec<_>>());
            assert!(merged.particles.is_none(), "no joined text in the service");
            if !spec.return_particles {
                assert!(shards.iter().all(|r| r.dump.is_empty() && r.render_ns == 0));
                assert!(merged.dump.is_empty());
                let hit = lock(&shared.cache)
                    .lookup(CacheKey::of(&spec))
                    .expect("cached");
                assert_eq!(hit.columns.len(), 3);
                for (cached, own) in hit.columns.iter().zip(&segments) {
                    assert!(Arc::ptr_eq(cached, own), "the shard's own segment");
                }
                let mut report = hit.to_report(&asks);
                report.join_dump();
                assert_eq!(report.particles, expect, "a hit renders the cached columns");
                continue;
            }
            assert_eq!(merged.dump.len(), 3, "one piece per shard");
            for (piece, shard) in merged.dump.iter().zip(shards) {
                assert_eq!(shard.dump.len(), 1);
                assert!(Arc::ptr_eq(piece, &shard.dump[0]), "the shard's own piece");
            }
            let Some(Outcome::Completed(copy)) = (JobTicket { state: parent }).outcome() else {
                panic!("no outcome");
            };
            assert!(copy.dump.is_empty(), "the caller's copy holds one string");
            assert!(expect.is_some());
            assert_eq!(copy.particles, expect);
        }
        server.shutdown();
    }

    #[test]
    fn requeue_respects_the_resume_budget() {
        let cfg = ServeConfig {
            workers: 0,
            max_resumes: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "requeue-test");
        let job = test_job(1, test_spec(10));
        assert!(
            !server.shared.try_requeue(&job),
            "only a claimed job is requeued"
        );
        // A claimed victim charges one resume per requeue, and is back
        // in the queue for the next worker. (Popped by hand: the
        // hand-built job never held a depth slot, so it must not be
        // left for the drain to cancel.)
        let shared = &server.shared;
        for expected in 1..=2u32 {
            assert!(job.claim());
            assert!(shared.try_requeue(&job));
            // ordering: test-only read.
            assert_eq!(job.resumes.load(Ordering::Relaxed), expected);
            let queued = shared.queue.pop(&shared.admission);
            assert_eq!(queued.map(|j| j.id), Some(job.id));
        }
        assert!(job.claim());
        assert!(
            !server.shared.try_requeue(&job),
            "budget of 2 is exhausted on the third death"
        );
        assert_eq!(server.stats().resumed, 2);
        server.shutdown();
    }
}
