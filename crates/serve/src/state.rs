//! One admitted job's shared state, and the ticket a submitter holds on
//! it.

use crate::job::{JobSpec, Outcome};
use crate::lifecycle::{Phase, State};
use crate::shard::ShardCtx;
use pic_runtime::sync::lock;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Callback fired exactly once with a job's terminal outcome: the
/// service's own, whose dump is its shared `dump` pieces (`particles` is
/// `None`), so a clone of it copies no text.
pub type Notifier = Box<dyn FnOnce(u64, &Outcome) + Send>;

/// One admitted job's shared state.
pub(crate) struct JobState {
    /// Server-assigned id (1-based, dense).
    pub id: u64,
    /// The request.
    pub spec: JobSpec,
    /// Admission time, service-clock ns.
    pub submitted_ns: u64,
    /// Where the job is in its life; every transition is a [`Phase`]
    /// method.
    pub phase: Phase,
    /// Set by `cancel_job`; observed at claim time and step boundaries.
    cancel_requested: AtomicBool,
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
    /// Shard sub-jobs of this job, set before they enter the queue and
    /// cleared when the gather completes (breaking the parent↔child
    /// `Arc` cycle). Empty for monolithic jobs.
    pub children: Mutex<Vec<Arc<JobState>>>,
    /// Shared with whoever `publish` lends it to: the lock covers a
    /// reference count, never a copy of a particle dump.
    outcome: Mutex<Option<Arc<Outcome>>>,
    done: Condvar,
    notifier: Mutex<Option<Notifier>>,
}

impl JobState {
    /// A job born in `state` with no outcome yet and all counters at
    /// zero.
    pub fn new(
        id: u64,
        spec: JobSpec,
        submitted_ns: u64,
        state: State,
        shard: Option<ShardCtx>,
        notifier: Option<Notifier>,
    ) -> JobState {
        JobState {
            id,
            spec,
            submitted_ns,
            phase: Phase::new(state),
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

    /// Claims the job for execution: `Queued → Running`, exactly once.
    pub fn claim(&self) -> bool {
        let claimed = self.phase.claim();
        if claimed {
            // ordering: Relaxed — diagnostic counter; read only after
            // the job is terminal (publication via phase/outcome).
            self.executions.fetch_add(1, Ordering::Relaxed);
        }
        claimed
    }

    /// True once the outcome is published.
    pub fn is_terminal(&self) -> bool {
        self.phase.is_done()
    }

    /// True when the job's wall-clock budget is exhausted at `now_ns`.
    pub fn timed_out_at(&self, now_ns: u64) -> bool {
        match self.spec.timeout_ms {
            Some(budget_ms) => now_ns.saturating_sub(self.submitted_ns) >= budget_ms * 1_000_000,
            None => false,
        }
    }

    /// Asks a running job to stop at its next step boundary.
    pub fn request_cancel(&self) {
        // ordering: Relaxed — advisory flag, observed at claim time and
        // step boundaries; the `Queued → Done` race in `cancel_job` is
        // what decides.
        self.cancel_requested.store(true, Ordering::Relaxed);
    }

    /// True when cancellation was requested (the job may already have
    /// terminated for another reason).
    pub fn cancel_pending(&self) -> bool {
        // ordering: Relaxed — advisory monotonic flag; a stale read
        // only delays the cancel by one step boundary.
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

    /// Stores the terminal outcome and wakes every [`JobTicket::wait`].
    /// Called once, by the winner of the job's `→ Done` transition.
    pub fn store_outcome(&self, outcome: Arc<Outcome>) {
        *lock(&self.outcome) = Some(outcome);
        self.done.notify_all();
    }

    /// The stored terminal outcome, shared: the service's own, with its
    /// dump in pieces.
    pub fn shared_outcome(&self) -> Option<Arc<Outcome>> {
        lock(&self.outcome).clone()
    }

    /// Hands the notifier to the one party that will fire it.
    pub fn take_notifier(&self) -> Option<Notifier> {
        lock(&self.notifier).take()
    }
}

/// Handle to a submitted job.
pub struct JobTicket {
    pub(crate) state: Arc<JobState>,
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

    /// The outcome, if the job already terminated. The copy is the
    /// caller's, made after the job's lock is released; a dump in it is
    /// one `particles` string.
    pub fn outcome(&self) -> Option<Outcome> {
        self.state
            .shared_outcome()
            .map(|shared| caller_copy(&shared))
    }

    /// Blocks until the job terminates; copies like
    /// [`outcome`](Self::outcome).
    pub fn wait(&self) -> Outcome {
        let mut guard = lock(&self.state.outcome);
        let shared = loop {
            if let Some(outcome) = &*guard {
                break outcome.clone();
            }
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(guard);
        caller_copy(&shared)
    }
}

/// A caller's own copy of the service's outcome, its dump joined.
fn caller_copy(shared: &Outcome) -> Outcome {
    let mut outcome = shared.clone();
    if let Outcome::Completed(report) = &mut outcome {
        report.join_dump();
    }
    outcome
}

/// The default spec at `particles` particles.
#[cfg(test)]
pub(crate) fn test_spec(particles: usize) -> JobSpec {
    JobSpec {
        particles,
        ..JobSpec::default()
    }
}

#[cfg(test)]
pub(crate) fn test_job(id: u64, spec: JobSpec) -> Arc<JobState> {
    Arc::new(JobState::new(id, spec, 0, State::Queued, None, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_is_exactly_once() {
        let job = test_job(1, JobSpec::default());
        assert!(job.claim());
        assert!(!job.claim(), "second claim must fail");
        // ordering: test-only read.
        assert_eq!(job.executions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn timeout_accounting_uses_the_submission_time() {
        let budgeted = JobSpec {
            timeout_ms: Some(2),
            ..JobSpec::default()
        };
        let job = test_job(1, budgeted);
        assert!(!job.timed_out_at(1_999_999));
        assert!(job.timed_out_at(2_000_000));
        assert!(
            !test_job(2, JobSpec::default()).timed_out_at(u64::MAX),
            "no budget"
        );
    }
}
