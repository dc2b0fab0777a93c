//! Exhaustive model checking of the `pic-serve` shard gather barrier
//! (`crates/serve/src/shard.rs`: fan-out, notifier, gather).
//!
//! Build with `RUSTFLAGS="--cfg interleave"`. The model reduces one
//! sharded job to its synchronization skeleton, and every shard's state
//! is the shipped `pic_serve::lifecycle::Phase` — the type `JobState`
//! holds, compiled with the checker's instrumented atomics:
//!
//! * a worker `claim`s the shard (`Queued → Running`) and `finish`es
//!   it; a canceller `finish_from(Queued)`s it — the scheduler's
//!   exactly-once finish;
//! * the successful finisher — worker or canceller — reports the shard
//!   into its gather slot exactly once (the notifier fires once,
//!   because `publish` takes it with the transition won);
//! * the reporter that takes `remaining` to zero merges; everyone else
//!   returns without merging;
//! * a crashed worker `requeue`s its shard (`Running → Queued`, the
//!   scheduler's `try_requeue`) *without* reporting — a shard that has
//!   not terminated cannot reach the gather — and a later claim re-runs
//!   it.
//!
//! The checker explores every interleaving, so these are proofs over
//! the modeled state space: every shard reports exactly once, the merge
//! runs exactly once, and a crash/resume can neither double-report nor
//! double-merge.
//!
//! The model is generic over the four transitions it uses only so that
//! one `#[should_panic]` test can run the cancel race over a
//! deliberately broken twin (check the state, *then* store `Done`) and
//! prove the suite would catch that regression in the shipped type.
#![cfg(interleave)]

use interleave::sync::atomic::{AtomicUsize, Ordering};
use pic_serve::lifecycle::{Phase, State};
use std::sync::Arc;

/// The transitions a shard goes through.
trait ShardPhase: Send + Sync + 'static {
    fn queued() -> Self;
    fn claim(&self) -> bool;
    fn requeue(&self) -> bool;
    fn finish(&self) -> bool;
    fn finish_from_queued(&self) -> bool;
    fn is_done(&self) -> bool;
}

impl ShardPhase for Phase {
    fn queued() -> Phase {
        Phase::new(State::Queued)
    }

    fn claim(&self) -> bool {
        Phase::claim(self)
    }

    fn requeue(&self) -> bool {
        Phase::requeue(self)
    }

    fn finish(&self) -> bool {
        Phase::finish(self)
    }

    fn finish_from_queued(&self) -> bool {
        self.finish_from(State::Queued)
    }

    fn is_done(&self) -> bool {
        Phase::is_done(self)
    }
}

/// The regression the suite must catch: every transition checks the
/// state with one operation and stores the new one with another, so two
/// finishers can both pass the check.
struct LoadThenStore(AtomicUsize);

impl LoadThenStore {
    const QUEUED: usize = 0;
    const RUNNING: usize = 1;
    const DONE: usize = 2;

    fn step(&self, from: usize, to: usize) -> bool {
        let ok = self.0.load(Ordering::SeqCst) == from;
        if ok {
            self.0.store(to, Ordering::SeqCst);
        }
        ok
    }
}

impl ShardPhase for LoadThenStore {
    fn queued() -> LoadThenStore {
        LoadThenStore(AtomicUsize::new(Self::QUEUED))
    }

    fn claim(&self) -> bool {
        self.step(Self::QUEUED, Self::RUNNING)
    }

    fn requeue(&self) -> bool {
        self.step(Self::RUNNING, Self::QUEUED)
    }

    fn finish(&self) -> bool {
        self.step(Self::RUNNING, Self::DONE) || self.step(Self::QUEUED, Self::DONE)
    }

    fn finish_from_queued(&self) -> bool {
        self.step(Self::QUEUED, Self::DONE)
    }

    fn is_done(&self) -> bool {
        self.0.load(Ordering::SeqCst) == Self::DONE
    }
}

/// The gather barrier of one sharded job, plus per-shard phases.
struct ShardJob<P: ShardPhase> {
    phases: Vec<P>,
    /// Reports landed per shard (invariant: exactly 1 at quiescence).
    reported: Vec<AtomicUsize>,
    /// Shards still outstanding; the 1 → 0 decrement elects the merger.
    remaining: AtomicUsize,
    /// Merges performed (invariant: exactly 1 at quiescence).
    merges: AtomicUsize,
}

impl<P: ShardPhase> ShardJob<P> {
    fn new(shards: usize) -> ShardJob<P> {
        ShardJob {
            phases: (0..shards).map(|_| P::queued()).collect(),
            reported: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            remaining: AtomicUsize::new(shards),
            merges: AtomicUsize::new(0),
        }
    }

    /// The notifier path: called only by the one winner of a shard's
    /// `→ Done` transition. Reports the slot, and merges if this report
    /// completed the set.
    fn report(&self, shard: usize) {
        self.reported[shard].fetch_add(1, Ordering::SeqCst);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.merges.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A worker executing one shard. `crashes` worker deaths strike
    /// before completion; each requeues the shard without reporting,
    /// and the loop models the next worker's re-claim.
    fn run_shard(&self, shard: usize, crashes: usize) {
        let mut crashes = crashes;
        loop {
            if !self.phases[shard].claim() {
                // Finished by someone else (a canceller) while queued.
                return;
            }
            if crashes > 0 {
                // Worker death mid-run: try_requeue releases the claim;
                // the crashed execution must NOT reach the gather.
                crashes -= 1;
                assert!(self.phases[shard].requeue(), "a running shard requeues");
                continue;
            }
            if self.phases[shard].finish() {
                self.report(shard);
            }
            return;
        }
    }

    /// A canceller racing the worker: the scheduler's
    /// `finish_from(Queued, Cancelled)` — it terminates (and reports)
    /// the shard only if it wins the `Queued → Done` transition.
    fn cancel_shard(&self, shard: usize) {
        if self.phases[shard].finish_from_queued() {
            self.report(shard);
        }
    }

    /// Quiescence invariants: all shards terminal, each reported
    /// exactly once, exactly one merge.
    fn assert_quiescent(&self) {
        for (i, phase) in self.phases.iter().enumerate() {
            assert!(phase.is_done(), "shard {i} terminal");
        }
        for (i, n) in self.reported.iter().enumerate() {
            assert_eq!(
                n.load(Ordering::SeqCst),
                1,
                "shard {i} must report exactly once"
            );
        }
        assert_eq!(self.remaining.load(Ordering::SeqCst), 0);
        assert_eq!(
            self.merges.load(Ordering::SeqCst),
            1,
            "the merge must run exactly once"
        );
    }
}

/// Two shards on two workers, all interleavings: each reports once and
/// exactly one of them — the last reporter — merges.
#[test]
fn every_shard_reports_once_and_one_merge_runs() {
    let explored = interleave::model_counted(|| {
        let job = Arc::new(ShardJob::<Phase>::new(2));
        let other = {
            let job = Arc::clone(&job);
            interleave::thread::spawn(move || job.run_shard(1, 0))
        };
        job.run_shard(0, 0);
        other.join();
        job.assert_quiescent();
    });
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// A shard crashes and resumes while its sibling completes: the crashed
/// execution never reaches the gather, the resumed one reports once,
/// and the merge still runs exactly once — no double-merge, no lost
/// shard.
#[test]
fn crashed_shard_requeues_without_double_merge() {
    let explored = interleave::model_counted(|| {
        let job = Arc::new(ShardJob::<Phase>::new(2));
        let sibling = {
            let job = Arc::clone(&job);
            interleave::thread::spawn(move || job.run_shard(1, 0))
        };
        // Shard 0 dies once mid-run, requeues, and a fresh claim
        // completes it.
        job.run_shard(0, 1);
        sibling.join();
        job.assert_quiescent();
    });
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// The cancel race: a canceller targets shard 1 while its worker runs;
/// shard 0 completes normally on the cancelling thread. Returns the
/// number of interleavings explored.
fn race_cancel_against_worker<P: ShardPhase>() -> usize {
    interleave::model_counted(|| {
        let job = Arc::new(ShardJob::<P>::new(2));
        let worker = {
            let job = Arc::clone(&job);
            interleave::thread::spawn(move || job.run_shard(1, 0))
        };
        job.cancel_shard(1);
        job.run_shard(0, 0);
        worker.join();
        job.assert_quiescent();
    })
}

/// Cancellation racing the worker on the same shard: the phase's one
/// compare-exchange elects exactly one terminal transition — worker
/// completion or cancel — so the gather still sees exactly one report
/// per shard and one merge, in every interleaving.
#[test]
fn cancel_racing_a_worker_yields_one_terminal_transition() {
    let explored = race_cancel_against_worker::<Phase>();
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// The same race over the load-then-store twin must fail: canceller and
/// worker both pass their check and both report. If this test stops
/// panicking, the model above has gone blind to the one property
/// `Phase`'s compare-exchange exists to provide.
#[test]
#[should_panic(expected = "must report exactly once")]
fn finishing_with_a_load_then_a_store_is_caught() {
    race_cancel_against_worker::<LoadThenStore>();
}
