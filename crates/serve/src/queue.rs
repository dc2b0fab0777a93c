//! The one place an admitted job waits for a worker.
//!
//! [`JobQueue`] is an ordered map behind a mutex, plus a condvar: every
//! job is keyed `(priority lane, deadline, id)`. `Shared::enqueue` pushes
//! and wakes one worker; a free worker's blocking [`pop`](JobQueue::pop)
//! takes the first job in key order, whatever it is — a shard sub-job
//! like any other. The order is therefore decided when a worker is free,
//! over everything that is waiting at that moment.
//!
//! The mutex is a leaf: nothing is locked, and no job code runs, while
//! it is held (`pic-analyze`'s lock-order pass resolves calls by name,
//! which is why the code under the guard says `pop_first` and `park`
//! rather than `remove` and `wait` — `CheckpointStore::remove` and
//! `JobTicket::wait` lock). Every wait is bounded by [`SAFETY_WAIT`], so a missed
//! wake-up costs that long and nothing more — no exit or hand-off
//! depends on a notification being delivered.

use crate::lifecycle::Admission;
use crate::state::JobState;
use pic_runtime::sync::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Upper bound of every blocking wait in the service's threads.
pub(crate) const SAFETY_WAIT: Duration = Duration::from_millis(50);

/// Dispatch order: lane (0 = high), then earliest deadline, then id.
type Key = (usize, u64, u64);

type Waiting = BTreeMap<Key, Arc<JobState>>;

/// Jobs admitted and not yet handed to a worker, in dispatch order.
pub(crate) struct JobQueue {
    waiting: Mutex<Waiting>,
    wake: Condvar,
}

impl JobQueue {
    pub fn new() -> JobQueue {
        JobQueue {
            waiting: Mutex::new(BTreeMap::new()),
            wake: Condvar::new(),
        }
    }

    /// Queues `job` and wakes a worker.
    pub fn push(&self, job: Arc<JobState>) {
        let key = (
            job.spec.priority.lane(),
            job.spec.deadline_ms.unwrap_or(u64::MAX),
            job.id,
        );
        lock(&self.waiting).insert(key, job);
        self.wake.notify_one();
    }

    /// Blocks until the first job in dispatch order can be returned.
    /// `None` only once the service has [`drained`](Admission::drained)
    /// and holds no job. A job cancelled while it waited is returned like
    /// any other; `JobState::claim` refuses it.
    pub fn pop(&self, admission: &Admission) -> Option<Arc<JobState>> {
        let mut waiting = lock(&self.waiting);
        loop {
            if let Some((_, job)) = waiting.pop_first() {
                return Some(job);
            }
            if admission.drained() {
                return None;
            }
            waiting = self.park(waiting);
        }
    }

    /// Blocks until the drain has begun.
    pub fn wait_for_drain(&self, admission: &Admission) {
        let mut waiting = lock(&self.waiting);
        while !admission.is_draining() {
            waiting = self.park(waiting);
        }
    }

    /// Wakes every waiter to re-check the admission state it waits on.
    /// Called after that state changed (the drain began, the last job
    /// terminated).
    pub fn wake_all(&self) {
        // Through the lock: a waiter that read the old state is then
        // already parked on the condvar, one that takes the lock later
        // reads the new state.
        drop(lock(&self.waiting));
        self.wake.notify_all();
    }

    fn park<'a>(&self, guard: MutexGuard<'a, Waiting>) -> MutexGuard<'a, Waiting> {
        let (guard, _timed_out) = self
            .wake
            .wait_timeout(guard, SAFETY_WAIT)
            .unwrap_or_else(PoisonError::into_inner);
        guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use crate::lifecycle::State;
    use crate::state::{test_job, test_spec as spec};
    use std::sync::mpsc;
    use std::thread;

    fn ids(queue: &JobQueue, admission: &Admission, n: usize) -> Vec<u64> {
        (0..n)
            .filter_map(|_| queue.pop(admission))
            .map(|job| job.id)
            .collect()
    }

    #[test]
    fn pop_order_is_lane_then_deadline_then_id() {
        let mut low = spec(100);
        low.priority = Priority::Low;
        let mut urgent = spec(100);
        urgent.priority = Priority::High;
        urgent.deadline_ms = Some(5);
        let mut later = spec(100);
        later.priority = Priority::High;
        later.deadline_ms = Some(50);
        let (queue, admission) = (JobQueue::new(), Admission::default());
        for (id, spec) in [(1, low), (2, later.clone()), (3, urgent), (4, later)] {
            queue.push(test_job(id, spec));
        }
        assert_eq!(ids(&queue, &admission, 4), vec![3, 2, 4, 1]);
    }

    #[test]
    fn a_cancelled_while_queued_entry_is_refused_by_claim() {
        let (queue, admission) = (JobQueue::new(), Admission::default());
        let (cancelled, live) = (test_job(1, spec(10)), test_job(2, spec(10)));
        queue.push(cancelled.clone());
        queue.push(live);
        assert!(cancelled.phase.finish_from(State::Queued));
        // What a worker does with each entry it pops.
        let claimed: Vec<u64> = (0..2)
            .filter_map(|_| queue.pop(&admission))
            .filter(|job| job.claim())
            .map(|job| job.id)
            .collect();
        assert_eq!(claimed, vec![2]);
    }

    #[test]
    fn pop_returns_none_only_once_drained() {
        let queue = Arc::new(JobQueue::new());
        let admission = Arc::new(Admission::default());
        // One job admitted and still running somewhere: draining, but
        // not drained.
        admission.admit(8).expect("room for one");
        admission.begin_drain();
        let (popped, result) = mpsc::channel();
        let worker = {
            let (queue, admission) = (queue.clone(), admission.clone());
            thread::spawn(move || popped.send(queue.pop(&admission).map(|job| job.id)))
        };
        // Several safety waits go by with the queue empty.
        assert!(result.recv_timeout(3 * SAFETY_WAIT).is_err());
        admission.release();
        queue.wake_all();
        assert_eq!(result.recv().expect("the pop returned"), None);
        worker.join().expect("worker").expect("sent");
    }
}
