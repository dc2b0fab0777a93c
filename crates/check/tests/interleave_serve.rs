//! Exhaustive model checking of the `pic-serve` admission/drain
//! protocol.
//!
//! Build with `RUSTFLAGS="--cfg interleave"`. The models run the
//! shipped `pic_serve::lifecycle::Admission` — the very type
//! `Server::submit`, the completion path, the dispatcher and the
//! workers call, compiled with the checker's instrumented atomics —
//! over a lane that is one instrumented `AtomicUsize` used as a bit set
//! of job ids: `admit` claims a depth slot *before* re-checking the
//! drain flag and the capacity, returning the slot on either refusal;
//! consumers exit only on `drained()`. The checker runs every
//! interleaving, so these are proofs over the explored state space that
//! no admitted job can slip past a drained exit (lost), be executed
//! twice, or leave `depth` nonzero.
//!
//! The models are generic over a three-method `Gate` only so that one
//! `#[should_panic]` test can run the same race over a deliberately
//! broken twin (flag checked *before* the slot is claimed) and prove
//! the suite would catch that regression in the shipped type.
#![cfg(interleave)]

use interleave::sync::atomic::{AtomicUsize, Ordering};
use pic_serve::lifecycle::Admission;
use std::sync::Arc;

/// What the service skeleton needs of an admission gate.
trait Gate: Default + Send + Sync + 'static {
    /// The shipped `Admission` underneath (depth, flag, drain).
    fn inner(&self) -> &Admission;
    /// `Server::submit`'s admission step.
    fn admit(&self, capacity: usize) -> bool;
}

impl Gate for Admission {
    fn inner(&self) -> &Admission {
        self
    }

    fn admit(&self, capacity: usize) -> bool {
        Admission::admit(self, capacity).is_ok()
    }
}

/// The regression the suite must catch: the same shipped pieces in the
/// wrong order — flag and capacity are checked first, the slot is
/// claimed afterwards, so a drain can complete in between.
#[derive(Default)]
struct CheckThenClaim(Admission);

impl Gate for CheckThenClaim {
    fn inner(&self) -> &Admission {
        &self.0
    }

    fn admit(&self, capacity: usize) -> bool {
        if self.0.is_draining() || self.0.depth() >= capacity {
            return false;
        }
        self.0.admit_derived();
        true
    }
}

/// The scheduler's admission skeleton: the gate, one lane, and a record
/// of what ran. Lane and record are bit sets of job ids (`1 << id`), so
/// a push is one `fetch_add`, a worker takes the whole lane with one
/// `swap(0)`, and a job executed twice shows up as a carry into the
/// next bit.
#[derive(Default)]
struct MiniService<G: Gate> {
    gate: G,
    lane: AtomicUsize,
    executed: AtomicUsize,
}

impl<G: Gate> MiniService<G> {
    /// `Server::submit`: admit, then enqueue. Returns whether the job
    /// was admitted.
    fn submit(&self, id: usize, capacity: usize) -> bool {
        if !self.gate.admit(capacity) {
            return false; // Rejected{shutting-down} or {queue-full}
        }
        self.lane.fetch_add(1 << id, Ordering::SeqCst);
        true
    }

    /// `worker_loop`: execute until drained. Each job's slot is
    /// released after its "outcome" (executed record) is published, as
    /// `publish` does.
    fn run_worker(&self) {
        loop {
            let mut taken = self.lane.swap(0, Ordering::SeqCst);
            if taken == 0 {
                if self.gate.inner().drained() {
                    return;
                }
                interleave::thread::yield_now();
            }
            while taken != 0 {
                let job = taken & taken.wrapping_neg();
                taken &= !job;
                self.executed.fetch_add(job, Ordering::SeqCst);
                self.gate.inner().release();
            }
        }
    }

    /// The ids of the executed jobs, ascending.
    fn drain_results(&self) -> Vec<usize> {
        let done = self.executed.load(Ordering::SeqCst);
        (0..usize::BITS as usize)
            .filter(|id| done & (1 << id) != 0)
            .collect()
    }
}

/// The core race: one submission, one worker, one shutdown — all
/// concurrent. Returns the number of interleavings explored.
fn race_admission_against_drain<G: Gate>() -> usize {
    interleave::model_counted(|| {
        let s = Arc::new(MiniService::<G>::default());
        let producer = {
            let s = Arc::clone(&s);
            interleave::thread::spawn(move || s.submit(3, 1))
        };
        let shutdown = {
            let s = Arc::clone(&s);
            interleave::thread::spawn(move || s.gate.inner().begin_drain())
        };
        let worker = {
            let s = Arc::clone(&s);
            interleave::thread::spawn(move || s.run_worker())
        };
        let admitted = producer.join();
        shutdown.join();
        worker.join();
        let done = s.executed.load(Ordering::SeqCst);
        if admitted {
            assert_eq!(done, 1 << 3, "admitted job must execute exactly once");
        } else {
            assert_eq!(done, 0, "refused job must never execute");
        }
        assert_eq!(s.gate.inner().depth(), 0, "drained exit leaks depth");
        assert_eq!(
            s.lane.load(Ordering::SeqCst),
            0,
            "drained exit stranded the slot"
        );
    })
}

/// In every interleaving of the core race the job is either admitted
/// and executed exactly once before the worker's drained exit, or
/// refused outright; never lost, never stranded.
#[test]
fn admission_racing_a_drain_never_strands_or_loses_the_job() {
    let explored = race_admission_against_drain::<Admission>();
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// The same race over the check-then-claim twin must fail: a drain
/// that completes between the twin's flag check and its claim strands
/// the job. If this test stops panicking, the model above has gone
/// blind to the one ordering `Admission::admit` exists to get right.
#[test]
#[should_panic(expected = "admitted job must execute exactly once")]
fn checking_the_flag_before_claiming_the_slot_is_caught() {
    race_admission_against_drain::<CheckThenClaim>();
}

/// Load shedding under concurrency: two producers race for one slot.
/// The depth-first claim serializes them — exactly one wins in every
/// schedule, and the shed one never reaches the lane.
#[test]
fn capacity_one_admits_exactly_one_of_two_racing_producers() {
    interleave::model(|| {
        let s = Arc::new(MiniService::<Admission>::default());
        let producers: Vec<_> = (1..=2)
            .map(|id| {
                let s = Arc::clone(&s);
                interleave::thread::spawn(move || s.submit(id, 1))
            })
            .collect();
        let admitted: Vec<bool> = producers.into_iter().map(|p| p.join()).collect();
        assert_eq!(
            admitted.iter().filter(|a| **a).count(),
            1,
            "exactly one producer may win the single slot"
        );
        s.gate.begin_drain();
        s.run_worker();
        assert_eq!(s.drain_results().len(), 1);
        assert_eq!(s.gate.depth(), 0);
    });
}

/// Drain completeness with a backlog: both admitted jobs survive a
/// shutdown issued while the worker is still running.
#[test]
fn drain_executes_the_whole_admitted_backlog() {
    interleave::model(|| {
        let s = Arc::new(MiniService::<Admission>::default());
        assert!(s.submit(1, 4) && s.submit(2, 4), "uncontended admission");
        let worker = {
            let s = Arc::clone(&s);
            interleave::thread::spawn(move || s.run_worker())
        };
        let shutdown = {
            let s = Arc::clone(&s);
            interleave::thread::spawn(move || s.gate.begin_drain())
        };
        shutdown.join();
        worker.join();
        assert_eq!(s.drain_results(), vec![1, 2], "backlog lost in the drain");
        assert_eq!(s.gate.depth(), 0);
    });
}
