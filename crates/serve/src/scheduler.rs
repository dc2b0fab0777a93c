//! The admission-controlled job scheduler: its configuration,
//! the state its threads share, and the [`Server`] handle.
//!
//! The protocol lives in the modules around this one, each holding one
//! seam of it:
//!
//! * `lifecycle` — [`Phase`](crate::lifecycle::Phase) (a job's
//!   `Queued → Running → Done` state and its one transition table) and
//!   [`Admission`](crate::lifecycle::Admission) (depth + drain flag):
//!   the two types the interleave suites model-check.
//! * `admission` — `Server::submit` / `cancel_job`: validation, the
//!   submit-time cache hit, the depth slot, the explicit shed.
//! * `completion` — what the one winner of a `→ Done` transition does:
//!   outcome, record, depth release, checkpoint drop; the cache fill of a
//!   completed run; the requeue of a dead worker's job.
//! * `shard` — fan-out of an over-threshold job and the gather that
//!   merges its shards back into one completion.
//! * `queue` — [`JobQueue`]: the one structure an admitted job waits
//!   in, ordered (lane, deadline, id); any free worker takes the first.
//! * `dispatch` — the worker pool with panic isolation, and the
//!   supervisor thread that spawns, replaces and joins it.
//! * `stats` — the counter table and the per-submission telemetry
//!   record.

use crate::cache::ResultCache;
use crate::checkpoint::{CheckpointStore, KillPlan};
use crate::clock::Clock;
use crate::dispatch::supervisor_loop;
use crate::lifecycle::Admission;
use crate::queue::JobQueue;
use crate::state::JobState;
use crate::stats::{Counter, Counters};
use pic_runtime::sync::lock;
use pic_runtime::Topology;
use pic_telemetry::BenchRecord;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

pub use crate::admission::CancelResult;
pub use crate::state::{JobTicket, Notifier};
pub use crate::stats::{ServeStats, ShutdownReport};

/// Service sizing and execution configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads, each executing one job at a time. `0` =
    /// admission-only (used by tests to exercise queue behavior
    /// deterministically).
    pub workers: usize,
    /// Bound of the admission queue: jobs admitted but not yet terminal.
    /// Submissions beyond it are shed with `Rejected{queue-full}`.
    pub queue_capacity: usize,
    /// Per-job particle-count limit.
    pub max_particles: usize,
    /// Per-job step-count limit.
    pub max_steps: usize,
    /// Thread topology of each job's sweep.
    pub topology: Topology,
    /// Completed results kept in the deterministic cache (LRU-evicted).
    /// `0` disables caching: no submit-time and no claim-time hits.
    pub cache_capacity: usize,
    /// Steps between particle-store checkpoints inside a running job.
    /// `0` disables checkpointing: a killed job restarts from step 0.
    pub checkpoint_interval: usize,
    /// Times a worker-death victim is requeued before it terminates
    /// `Rejected{worker-panic}` like a poison job should.
    pub max_resumes: u32,
    /// Test hook: deterministic kill-points fired at step boundaries
    /// (see [`KillPlan`]). `None` in production.
    pub kill_plan: Option<KillPlan>,
    /// Particle count above which an admitted job is domain-decomposed
    /// into shard sub-jobs that run through the normal queue and are
    /// scatter-gathered back into one completion. `0` disables sharding.
    pub shard_threshold: usize,
    /// Shards an over-threshold job splits into. `0` = auto (one shard
    /// per worker); always clamped to the job's particle count.
    pub shards: usize,
    /// No effect: every shard sub-job is taken by whichever worker is
    /// free. Kept only so that `benchmark/`, which sets it, compiles;
    /// deleted with the next change to `benchmark/` (ROADMAP item 5).
    pub pinned: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_particles: 1_000_000,
            max_steps: 10_000,
            topology: Topology::single(1),
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

/// State shared by the server handle, supervisor and workers.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub label: String,
    pub clock: Clock,
    /// Every job that waits for a worker, in dispatch order.
    pub queue: JobQueue,
    /// The bounded queue's depth and the drain flag.
    pub admission: Admission,
    /// The deterministic result cache (None-equivalent at capacity 0).
    pub cache: Mutex<ResultCache>,
    /// Per-job resume snapshots, written at segment boundaries.
    pub checkpoints: CheckpointStore,
    pub counters: Counters,
    /// Admitted, not yet terminal jobs by id (what `cancel` can reach).
    pub index: Mutex<HashMap<u64, Arc<JobState>>>,
    pub records: Mutex<Vec<BenchRecord>>,
}

impl Shared {
    /// Hands out the next job id (1-based, dense; shed submissions and
    /// shard sub-jobs take one too).
    pub fn next_id(&self) -> u64 {
        self.counters.bump(Counter::Submitted) + 1
    }

    /// Queues a job for a worker: the one way into [`JobQueue`].
    pub fn enqueue(&self, job: Arc<JobState>) {
        self.queue.push(job);
    }
}

/// The running service: admission, scheduling, execution, drain.
pub struct Server {
    pub(crate) shared: Arc<Shared>,
    supervisor: JoinHandle<()>,
}

impl Server {
    /// Starts the supervisor, which starts the worker pool.
    pub fn start(cfg: ServeConfig, label: &str) -> Server {
        let cache = ResultCache::new(cfg.cache_capacity);
        let shared = Arc::new(Shared {
            cfg,
            label: label.to_string(),
            clock: Clock::new(),
            queue: JobQueue::new(),
            admission: Admission::default(),
            cache: Mutex::new(cache),
            checkpoints: CheckpointStore::new(),
            counters: Counters::default(),
            index: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
        });
        let supervisor = {
            let shared = shared.clone();
            thread::spawn(move || supervisor_loop(shared))
        };
        Server { shared, supervisor }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats_snapshot()
    }

    /// Drains every in-flight job, stops all threads, and returns the
    /// final stats plus the per-job telemetry records.
    pub fn shutdown(self) -> ShutdownReport {
        self.shared.admission.begin_drain();
        self.shared.queue.wake_all();
        // The supervisor exits only once drained and joins its workers
        // first; a panicked supervisor still leaves consistent stats.
        let _ = self.supervisor.join();
        ShutdownReport {
            stats: self.shared.stats_snapshot(),
            records: std::mem::take(&mut *lock(&self.shared.records)),
        }
    }
}

/// One worker, everything else default.
#[cfg(test)]
pub(crate) fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Outcome};
    use crate::state::test_spec as spec;

    #[test]
    fn submitted_job_completes_with_a_report_and_a_record() {
        let server = Server::start(quick_cfg(), "sched-test");
        let before_ns = server.shared.clock.now_ns();
        let ticket = server
            .submit(spec(200), None)
            .unwrap_or_else(|r| panic!("admission refused: {r:?}"));
        let Outcome::Completed(report) = ticket.wait() else {
            panic!("expected completion, got {:?}", ticket.outcome());
        };
        let wall_ns = server.shared.clock.now_ns() - before_ns;
        assert_eq!(report.steps_done, 10);
        assert!(report.nsps > 0.0);
        assert!(report.batch_size >= 1);
        assert!(
            report.setup_ns > 0,
            "seeding and field preparation take time"
        );
        assert!(
            report.queue_wait_ns + report.setup_ns + report.run_ns <= wall_ns,
            "queue {} + setup {} + run {} exceed the job's wall time {wall_ns}",
            report.queue_wait_ns,
            report.setup_ns,
            report.run_ns
        );
        let out = server.shutdown();
        assert_eq!(out.stats.completed, 1);
        assert_eq!(out.stats.depth, 0);
        assert_eq!(out.stats.exec_overruns, 0);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].outcome, "completed");
        assert_eq!(out.records[0].label, "sched-test/job1");
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

    /// A duplicate whose budget runs out while it waits behind its twin
    /// is not served from the twin's cached result at claim: it times
    /// out, as an uncached job does.
    #[test]
    fn a_queued_duplicate_past_its_timeout_times_out() {
        let server = Server::start(quick_cfg(), "dup-timeout-test");
        let submit = |s| {
            server
                .submit(s, None)
                .unwrap_or_else(|r| panic!("admission refused: {r:?}"))
        };
        // The one worker is busy with the blocker while the producer and
        // its duplicate queue up behind it.
        let blocker = submit(JobSpec {
            steps: 20,
            ..spec(50_000)
        });
        let producer = submit(spec(300));
        let duplicate = submit(JobSpec {
            timeout_ms: Some(1),
            ..spec(300)
        });
        assert!(matches!(blocker.wait(), Outcome::Completed(_)));
        assert!(matches!(producer.wait(), Outcome::Completed(_)));
        assert_eq!(duplicate.wait(), Outcome::TimedOut);
        let out = server.shutdown();
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.timed_out, 1);
    }
}
