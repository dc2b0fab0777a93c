//! Admission: the way into the service — `submit` (validation, the
//! submit-time cache hit, the depth slot, shard fan-out), the explicit
//! shed, and `cancel`.

use crate::cache::{CacheKey, CachedResult};
use crate::job::{JobSpec, Outcome, RejectReason};
use crate::lifecycle::State;
use crate::scheduler::Server;
use crate::shard::{fan_out, shard_count};
use crate::state::{JobState, JobTicket, Notifier};
use crate::stats::Counter;
use pic_runtime::sync::lock;
use std::sync::Arc;

/// Result of a cancellation request.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum CancelResult {
    /// The job was still queued; it is now terminally `Cancelled`.
    Done,
    /// The job is running; it will stop at the next step boundary.
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

impl Server {
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
        let id = shared.next_id();
        let submitted_ns = shared.clock.now_ns();
        if let Err(why) = spec.validate(shared.cfg.max_particles, shared.cfg.max_steps) {
            return Err(self.shed(id, spec, RejectReason::Invalid(why), submitted_ns));
        }
        // Result cache first: a hit terminates on the spot — no depth
        // slot, no queue, `queue_wait_ns = 0`. A draining server skips
        // the cache so shutdown semantics stay uniform. A miss whose twin
        // is still running is queued like any job: it is a hit at claim
        // if the twin completed meanwhile, else it runs to the same bits.
        if shared.cfg.cache_capacity > 0 && !shared.admission.is_draining() {
            let hit = lock(&shared.cache).lookup(CacheKey::of(&spec));
            if let Some(result) = hit {
                return Ok(self.complete_cached(id, spec, submitted_ns, notifier, result));
            }
        }
        if let Err(reason) = shared.admission.admit(shared.cfg.queue_capacity) {
            return Err(self.shed(id, spec, reason, submitted_ns));
        }
        let job = Arc::new(JobState::new(
            id,
            spec,
            submitted_ns,
            State::Queued,
            None,
            notifier,
        ));
        lock(&shared.index).insert(id, job.clone());
        let k = shard_count(&shared.cfg, &job.spec);
        if k >= 2 {
            fan_out(shared, &job, k);
        } else {
            shared.enqueue(job.clone());
        }
        Ok(JobTicket { state: job })
    }

    /// Terminates a cache-hit submission immediately: the job is born
    /// `Done` with the memoized report, never holds a depth slot, and
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
        let outcome = Arc::new(Outcome::Completed(result.to_report(&spec)));
        let job = Arc::new(JobState::new(
            id,
            spec,
            submitted_ns,
            State::Done,
            None,
            None,
        ));
        job.store_outcome(outcome.clone());
        shared.emit_record(id, &job.spec, &outcome, submitted_ns, None);
        shared.counters.bump(Counter::CacheHits);
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
        reason
    }

    /// Requests cancellation of job `id`.
    pub fn cancel_job(&self, id: u64) -> CancelResult {
        let job = lock(&self.shared.index).get(&id).cloned();
        let Some(job) = job else {
            return CancelResult::Unknown;
        };
        job.request_cancel();
        // A sharded parent terminates only through its gather: cancel
        // propagates to every child (queued ones terminate on the spot,
        // running ones stop at the next step boundary), and the first
        // `Cancelled` child outcome cancels the merged parent.
        let children: Vec<Arc<JobState>> = lock(&job.children).clone();
        if !children.is_empty() {
            for child in &children {
                child.request_cancel();
                self.shared
                    .finish_from(child, State::Queued, Outcome::Cancelled);
            }
            if job.is_terminal() {
                return CancelResult::AlreadyTerminal;
            }
            return CancelResult::Requested;
        }
        if self
            .shared
            .finish_from(&job, State::Queued, Outcome::Cancelled)
        {
            return CancelResult::Done;
        }
        if job.is_terminal() {
            return CancelResult::AlreadyTerminal;
        }
        CancelResult::Requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{quick_cfg, ServeConfig};
    use crate::state::test_spec as spec;

    #[test]
    fn full_queue_sheds_explicitly_and_recovers() {
        // workers: 0 — nothing takes from the queue, so capacity is exact.
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
    fn draining_server_refuses_new_work() {
        let server = Server::start(quick_cfg(), "drain-test");
        // Simulate the drain flag directly.
        server.shared.admission.begin_drain();
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
}
