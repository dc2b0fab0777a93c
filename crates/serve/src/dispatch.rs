//! The worker pool and its supervisor. Workers block in
//! [`JobQueue::pop`](crate::queue::JobQueue::pop) and run one job per
//! execution, a shard sub-job like any other. A panicking job takes its
//! worker down: the job is requeued for a checkpoint resume or
//! terminates `Rejected{worker-panic}` instead of vanishing, and the
//! supervisor — which spawned the pool and joins it on drain — puts a
//! clean worker in the dead one's slot.

use crate::exec;
use crate::job::Outcome;
use crate::queue::SAFETY_WAIT;
use crate::scheduler::Shared;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

pub(crate) fn supervisor_loop(shared: Arc<Shared>) {
    if shared.cfg.workers == 0 {
        // Admission-only configuration (tests): no worker can ever
        // execute the backlog, so the drain cancels it explicitly
        // rather than hanging — never silently.
        shared.queue.wait_for_drain(&shared.admission);
        while let Some(job) = shared.queue.pop(&shared.admission) {
            shared.finish(&job, Outcome::Cancelled);
        }
        return;
    }
    let (exits, exited) = mpsc::channel();
    let mut workers: Vec<Option<JoinHandle<()>>> = (0..shared.cfg.workers)
        .map(|slot| Some(spawn_worker(&shared, slot, &exits)))
        .collect();
    while workers.iter().any(Option::is_some) {
        // Bounded like every wait in the service, though a notice sent
        // is a notice held: a timeout changes nothing here.
        let Ok(slot) = exited.recv_timeout(SAFETY_WAIT) else {
            continue;
        };
        // The notice is a worker thread's last act, sent once: the
        // handle in its slot is that thread's and the join is immediate.
        if let Some(ended) = workers[slot].take() {
            let _ = ended.join();
        }
        // A worker that exited because the service drained is not
        // replaced; a replacement takes the dead worker's slot.
        if !shared.admission.drained() {
            workers[slot] = Some(spawn_worker(&shared, slot, &exits));
        }
    }
}

/// Tells the supervisor that the worker in `slot` is gone — on return
/// and on unwind alike, so a worker never ends unnoticed.
struct ExitNotice {
    slot: usize,
    exits: Sender<usize>,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        // The supervisor outlives every worker; nothing to do if not.
        let _ = self.exits.send(self.slot);
    }
}

fn spawn_worker(shared: &Arc<Shared>, slot: usize, exits: &Sender<usize>) -> JoinHandle<()> {
    let shared = shared.clone();
    let notice = ExitNotice {
        slot,
        exits: exits.clone(),
    };
    thread::spawn(move || {
        let _notice = notice;
        worker_loop(&shared);
    })
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop(&shared.admission) {
        let panicked = catch_unwind(AssertUnwindSafe(|| exec::run_job(shared, &job))).is_err();
        if panicked {
            // Panic isolation: the job is requeued for a checkpoint
            // resume (or, out of budget, rejected explicitly). This
            // thread dies either way, so the supervisor replaces it
            // with a clean one.
            shared.requeue_or_reject(&job);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::KillPlan;
    use crate::job::{JobSpec, Priority, RejectReason};
    use crate::lifecycle::State;
    use crate::scheduler::{quick_cfg, JobTicket, Notifier, ServeConfig, Server};
    use crate::state::test_spec as spec;
    use pic_runtime::sync::lock;
    use std::sync::Mutex;

    /// One worker held by a long job while six `Low` jobs and then one
    /// `High` job arrive: the `High` one runs next. (The pause before
    /// it is submitted is what let a staging thread move the backlog
    /// out of priority order's reach.)
    #[test]
    fn priority_holds_under_backlog() {
        let server = Server::start(quick_cfg(), "backlog-test");
        let order = Arc::new(Mutex::new(Vec::new()));
        let submit = |particles: usize, steps: usize, priority: Priority, seed: u64| {
            let mut s = spec(particles);
            (s.steps, s.priority, s.seed) = (steps, priority, seed);
            let order = order.clone();
            let record: Notifier = Box::new(move |id, _| lock(&order).push(id));
            server.submit(s, Some(record)).expect("admitted")
        };
        let blocker = submit(200_000, 40, Priority::Normal, 1);
        while blocker.state.phase.state() != State::Running {
            thread::yield_now();
        }
        let lows: Vec<_> = (0..6)
            .map(|i| submit(20_000, 20, Priority::Low, 10 + i))
            .collect();
        thread::sleep(std::time::Duration::from_millis(5));
        let high = submit(500, 5, Priority::High, 20);
        for ticket in lows.iter().chain([&blocker, &high]) {
            assert!(matches!(ticket.wait(), Outcome::Completed(_)));
        }
        server.shutdown();
        let expected: Vec<u64> = [&blocker, &high]
            .into_iter()
            .chain(&lows)
            .map(JobTicket::id)
            .collect();
        assert_eq!(*lock(&order), expected);
    }

    /// Same-physics jobs that wait in the queue together still run
    /// one per execution, each to the result it has when run alone.
    #[test]
    fn a_burst_of_same_physics_jobs_runs_one_job_per_execution() {
        let specs: Vec<_> = (0..8u64)
            .map(|i| {
                let mut s = spec(100);
                s.seed = 500 + i;
                s.return_particles = true;
                s
            })
            .collect();
        // One server, one worker; the jobs one after another, or all
        // submitted before any is waited for.
        let run = |burst: bool| -> Vec<Outcome> {
            let server = Server::start(quick_cfg(), "burst-test");
            let submit = |s: &JobSpec| server.submit(s.clone(), None).expect("admitted");
            let outcomes = if burst {
                let tickets: Vec<_> = specs.iter().map(submit).collect();
                tickets.iter().map(|t| t.wait()).collect()
            } else {
                specs.iter().map(|s| submit(s).wait()).collect()
            };
            server.shutdown();
            outcomes
        };
        let (solo, burst) = (run(false), run(true));
        for (alone, together) in solo.iter().zip(&burst) {
            let (Outcome::Completed(alone), Outcome::Completed(together)) = (alone, together)
            else {
                panic!("did not complete: {alone:?} / {together:?}");
            };
            assert_eq!(together.batch_size, 1);
            assert!(together.particles.is_some());
            assert_eq!(together.particles, alone.particles);
        }
    }

    #[test]
    fn worker_panic_rejects_the_job_and_the_pool_recovers() {
        // The bomb's worker dies after its first step, and a job with
        // no resumes left is rejected like a poison job.
        let plan = KillPlan::new();
        plan.arm(0xdead, 1);
        let cfg = ServeConfig {
            workers: 1,
            max_resumes: 0,
            kill_plan: Some(plan),
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
}
