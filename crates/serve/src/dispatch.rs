//! Dispatch and the worker pool: the dispatcher thread stages jobs out
//! of the priority lanes, orders them by (priority, deadline), coalesces
//! small compatible jobs into batches — one combined `parallel_sweep`
//! per batch, so per-job overhead amortises the way the paper's
//! per-iteration overhead analysis predicts — and routes pinned shard
//! batches to their worker slot. Worker threads drain the batch queues;
//! a panicking batch takes its worker down, the dispatcher respawns a
//! clean one, and the batch's jobs are requeued for a checkpoint resume
//! or terminate `Rejected{worker-panic}` instead of vanishing.

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

/// A group of claimed-together jobs executed as one combined sweep.
pub(crate) struct Batch {
    /// Jobs in dispatch order. Invariant: mutually `batch_compatible`.
    pub jobs: Vec<Arc<JobState>>,
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
/// once per shard in the `AffinityMap` so resumes and respawns land
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
            // was just staged out of the lanes plus every batch still
            // parked in the shared and the pinned queues.
            let parked = std::iter::once(&shared.batches)
                .chain(&shared.pinned_batches)
                .flat_map(|queue| std::iter::from_fn(move || queue.pop()))
                .flat_map(|batch| batch.jobs);
            for job in staged.drain(..).chain(parked) {
                shared.finish(&job, Outcome::Cancelled);
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
                    // requeued for a checkpoint resume (or, out of
                    // budget, rejected explicitly). This thread dies
                    // either way, so the dispatcher replaces it with a
                    // clean one.
                    for job in &batch.jobs {
                        shared.requeue_or_reject(job);
                    }
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
    use crate::job::{Priority, RejectReason};
    use crate::scheduler::{ServeConfig, Server};
    use crate::state::{test_job, test_spec as spec};

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
