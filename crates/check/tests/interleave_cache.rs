//! Exhaustive model checking of the `pic-serve` result-cache admission
//! protocol (`crates/serve/src/admission.rs`, `completion.rs`,
//! `cache.rs`).
//!
//! Unlike `interleave_serve.rs` and `interleave_shard.rs`, which run the
//! shipped `Phase` / `Admission` types, the `KeySlot` below is not a copy
//! of shipped atomics: the shipped per-key state is a `Mutex`-guarded
//! in-flight map plus the result cache, and the slot is an *abstraction*
//! of it — each atomic step stands for one critical section.
//!
//! Build with `RUSTFLAGS="--cfg interleave"`. The model reduces the
//! per-key protocol — submit-time cache lookup, inflight primary
//! election, follower registration, claim-time re-check, finish-time
//! follower drain, crash requeue — to one three-state slot:
//!
//! * `EMPTY`: no result, no run in flight. The first submitter CASes
//!   `EMPTY → INFLIGHT` and becomes the primary (runs the sweep).
//! * `INFLIGHT`: a primary is running. Duplicates register as
//!   followers, then *re-check* for `FILLED` — the claim-time cache
//!   lookup in `exec::run_job` — so a fill that raced past their
//!   registration still serves them.
//! * `FILLED`: the result is cached. Every later submission is a pure
//!   hit; the primary's finish drains all registered followers.
//!
//! Followers are modeled as a registered/drained counter pair rather
//! than the real follower list (`Inflight`'s `Vec`), per-submission
//! outcomes travel through return values instead of extra shared
//! atomics, and one participant always runs on the checker's root
//! thread — all three choices shrink the schedule tree so the
//! naive-DFS checker can exhaust it. A crashed
//! primary releases the claim (`INFLIGHT → EMPTY`, the scheduler's
//! `try_requeue`) and resubmits — whoever wins the next election
//! produces the result. The checker runs every interleaving, so these
//! are proofs over the explored state space: exactly one sweep per key,
//! every submission served exactly once, no follower stranded.
#![cfg(interleave)]

use interleave::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const EMPTY: usize = 0;
const INFLIGHT: usize = 1;
const FILLED: usize = 2;

/// The protocol state for one cache key.
struct KeySlot {
    state: AtomicUsize,
    /// Duplicates registered while a primary was in flight.
    registered: AtomicUsize,
    /// Followers served from the filled result so far.
    drained: AtomicUsize,
    /// Sweeps that ran to completion (the exactly-once target).
    sweeps: AtomicUsize,
}

/// How one submission was served (its terminal outcome's provenance).
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Served {
    /// Ran the sweep itself and filled the cache.
    Ran,
    /// Submit-time cache hit.
    Hit,
    /// Parked as a follower; served by whichever drain runs after the
    /// fill (counted via `drained`, not by this submitter).
    Parked,
}

impl KeySlot {
    fn new() -> KeySlot {
        KeySlot {
            state: AtomicUsize::new(EMPTY),
            registered: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
            sweeps: AtomicUsize::new(0),
        }
    }

    /// One submission end-to-end. `crash_once` makes this submitter's
    /// first primary claim die mid-run (worker panic) and retry through
    /// the requeue path, exactly once.
    fn submit(&self, crash_once: bool) -> Served {
        let mut crash = crash_once;
        loop {
            if self.state.load(Ordering::SeqCst) == FILLED {
                return Served::Hit;
            }
            if self
                .state
                .compare_exchange(EMPTY, INFLIGHT, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                if crash {
                    // Worker death mid-run: the scheduler requeues the
                    // victim (releases the claim) and a later claim —
                    // possibly a different submitter's — re-runs it.
                    crash = false;
                    self.state.store(EMPTY, Ordering::SeqCst);
                    continue;
                }
                // The sweep completes and fills the cache; finishing
                // drains the registered followers.
                self.sweeps.fetch_add(1, Ordering::SeqCst);
                self.state.store(FILLED, Ordering::SeqCst);
                self.drain_followers();
                return Served::Ran;
            }
            // Someone else holds the key: register as a follower, then
            // re-check — the claim-time cache lookup that closes the
            // race where the primary filled before our registration.
            self.registered.fetch_add(1, Ordering::SeqCst);
            if self.state.load(Ordering::SeqCst) == FILLED {
                self.drain_followers();
            }
            return Served::Parked;
        }
    }

    /// Serves registered-but-undrained followers from the filled
    /// result. Racing drains share the work via CAS; together they
    /// never leave `drained < registered` once the key is filled.
    fn drain_followers(&self) {
        loop {
            let done = self.drained.load(Ordering::SeqCst);
            if done >= self.registered.load(Ordering::SeqCst) {
                return;
            }
            let _ =
                self.drained
                    .compare_exchange(done, done + 1, Ordering::SeqCst, Ordering::SeqCst);
        }
    }

    /// Exactly-once accounting: one sweep, every submission served,
    /// every parked follower drained.
    fn assert_quiescent(&self, outcomes: &[Served]) {
        assert_eq!(
            self.state.load(Ordering::SeqCst),
            FILLED,
            "the key must end filled"
        );
        assert_eq!(
            self.sweeps.load(Ordering::SeqCst),
            1,
            "exactly one sweep per key"
        );
        let ran = outcomes.iter().filter(|s| **s == Served::Ran).count();
        assert_eq!(ran, 1, "exactly one submitter ran the sweep");
        let parked = outcomes.iter().filter(|s| **s == Served::Parked).count();
        assert_eq!(
            self.registered.load(Ordering::SeqCst),
            parked,
            "every parked submission registered exactly once"
        );
        assert_eq!(
            self.drained.load(Ordering::SeqCst),
            parked,
            "no follower left stranded: parked submissions are all served"
        );
    }
}

/// The core duplicate race: two identical submissions, all
/// interleavings. One sweep runs; the loser is served as a drained
/// follower, a claim-time self-drain, or a submit-time hit — never by a
/// second sweep, never not at all.
#[test]
fn concurrent_duplicates_coalesce_onto_one_sweep() {
    let explored = interleave::model_counted(|| {
        let slot = Arc::new(KeySlot::new());
        let b = {
            let slot = Arc::clone(&slot);
            interleave::thread::spawn(move || slot.submit(false))
        };
        let first = slot.submit(false);
        let second = b.join();
        slot.assert_quiescent(&[first, second]);
    });
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// A submission arriving after the fill is a pure hit: no second sweep,
/// no follower registration.
#[test]
fn late_submission_is_a_pure_hit() {
    interleave::model(|| {
        let slot = Arc::new(KeySlot::new());
        let first = slot.submit(false);
        assert_eq!(first, Served::Ran);
        let late = {
            let slot = Arc::clone(&slot);
            interleave::thread::spawn(move || slot.submit(false))
        };
        let second = late.join();
        assert_eq!(second, Served::Hit, "post-fill submissions never park");
        slot.assert_quiescent(&[first, second]);
    });
}

/// Worker death with a racing duplicate: the crashed primary releases
/// its claim and retries; whoever wins the re-election runs the single
/// completed sweep. The result is still produced exactly once and both
/// submissions are served.
#[test]
fn crashed_primary_requeues_and_completes_exactly_once() {
    let explored = interleave::model_counted(|| {
        let slot = Arc::new(KeySlot::new());
        let duplicate = {
            let slot = Arc::clone(&slot);
            interleave::thread::spawn(move || slot.submit(false))
        };
        let crasher = slot.submit(true);
        let second = duplicate.join();
        slot.assert_quiescent(&[crasher, second]);
    });
    assert!(
        explored > 1,
        "expected multiple interleavings, got {explored}"
    );
}

/// The stranding hazard head-on: a follower is already registered under
/// a running primary, and the primary's fill-and-drain races a third
/// late submission. In every interleaving the parked follower is
/// drained by *someone* — the primary's finish or the late submitter's
/// claim-time re-check.
#[test]
fn registered_follower_survives_a_racing_fill() {
    interleave::model(|| {
        let slot = Arc::new(KeySlot::new());
        // Deterministic prefix: this thread is the primary, and one
        // duplicate is already parked as its follower.
        assert!(slot
            .state
            .compare_exchange(EMPTY, INFLIGHT, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok());
        slot.registered.fetch_add(1, Ordering::SeqCst);
        let late = {
            let slot = Arc::clone(&slot);
            interleave::thread::spawn(move || slot.submit(false))
        };
        // The primary finishes: fill, then drain followers.
        slot.sweeps.fetch_add(1, Ordering::SeqCst);
        slot.state.store(FILLED, Ordering::SeqCst);
        slot.drain_followers();
        let outcome = late.join();
        assert_ne!(outcome, Served::Ran, "the fill is never re-run");
        // Primary (ran) + parked follower + the late submission.
        slot.assert_quiescent(&[Served::Ran, Served::Parked, outcome]);
    });
}
