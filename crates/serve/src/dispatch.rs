//! Dispatch and the worker pool: the dispatcher thread stages jobs out
//! of the priority lanes, orders them by (priority, deadline, id) and
//! hands each one to a worker queue — the shared one, or under
//! `ServeConfig::pinned` the queue of the worker slot its shard is bound
//! to. Worker threads drain the queues, one job per execution; a
//! panicking job takes its worker down, the dispatcher respawns a clean
//! one, and the job is requeued for a checkpoint resume or terminates
//! `Rejected{worker-panic}` instead of vanishing.

use crate::exec;
use crate::job::Outcome;
use crate::scheduler::Shared;
use crate::state::JobState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long an idle dispatcher/worker sleeps between queue polls.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// Puts staged jobs in dispatch order: by (lane, deadline, id).
fn dispatch_order(staged: &mut [Arc<JobState>]) {
    staged.sort_by_key(|j| {
        (
            j.spec.priority.lane(),
            j.spec.deadline_ms.unwrap_or(u64::MAX),
            j.id,
        )
    });
}

/// Resolves the worker slot a job is pinned to, or `None` when it rides
/// the shared queue. Only shard sub-jobs pin; the binding is established
/// once per shard in the `AffinityMap` so resumes and respawns land on
/// the same slot, keeping the shard's tuner state warm.
fn pinned_slot(shared: &Shared, job: &JobState) -> Option<usize> {
    if !shared.cfg.pinned || shared.pinned_ready.is_empty() {
        return None;
    }
    let ctx = job.shard.as_ref()?;
    let slot = shared.affinity.bind(
        ctx.shard_id,
        job.spec.particles,
        shared.cfg.topology.total_threads(),
    );
    Some(slot % shared.pinned_ready.len())
}

pub(crate) fn dispatcher_loop(shared: Arc<Shared>) {
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
        if shared.admission.is_draining() && shared.cfg.workers == 0 {
            // Admission-only configuration (tests): no worker can ever
            // execute the backlog, so the drain cancels it explicitly
            // rather than hanging — never silently. The backlog is what
            // was just staged out of the lanes plus every job still
            // parked in the shared and the pinned queues.
            let parked = std::iter::once(&shared.ready)
                .chain(&shared.pinned_ready)
                .flat_map(|queue| std::iter::from_fn(move || queue.pop()));
            for job in staged.drain(..).chain(parked) {
                shared.finish(&job, Outcome::Cancelled);
            }
        }
        if !staged.is_empty() {
            dispatch_order(&mut staged);
            for job in staged {
                match pinned_slot(&shared, &job) {
                    Some(slot) => shared.pinned_ready[slot].push(job),
                    None => shared.ready.push(job),
                }
            }
            continue;
        }
        if shared.admission.drained() {
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
            // A normally-exited (drained) worker is not replaced. The
            // replacement inherits the dead worker's slot so shards
            // pinned to it keep their queue and tuner state.
            if !shared.admission.drained() {
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
            .pinned_ready
            .get(slot)
            .and_then(|queue| queue.pop())
            .or_else(|| shared.ready.pop());
        match next {
            Some(job) => {
                let panicked =
                    catch_unwind(AssertUnwindSafe(|| exec::run_job(&shared, &job))).is_err();
                if panicked {
                    // Panic isolation: the job is requeued for a
                    // checkpoint resume (or, out of budget, rejected
                    // explicitly). This thread dies either way, so the
                    // dispatcher replaces it with a clean one.
                    shared.requeue_or_reject(&job);
                    return;
                }
            }
            None => {
                if shared.admission.drained() {
                    return;
                }
                thread::sleep(IDLE_WAIT);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Priority, RejectReason};
    use crate::scheduler::{quick_cfg, ServeConfig, Server};
    use crate::state::{test_job, test_spec as spec};

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
        let mut jobs = vec![test_job(1, low), test_job(2, later), test_job(3, urgent)];
        dispatch_order(&mut jobs);
        let order: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    /// Same-physics jobs that reach the dispatcher together still run
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
}
