//! The job lifecycle, defined once: [`Phase`] is a job's state and
//! [`Admission`] is the bounded-queue depth plus the drain flag.
//!
//! Both keep their atoms private, so the scheduler cannot spell a
//! transition or an admission step any other way than through the
//! methods here — and `crates/check/tests/interleave_serve.rs` and
//! `interleave_shard.rs` model-check *these* types (built with
//! `--cfg interleave`, which swaps the atomics for the checker's
//! instrumented ones), not a hand-kept copy of them.
//!
//! **Exactly-once terminality.** Every state change of a job goes
//! through [`Phase`]'s one compare-exchange against the one transition
//! table, `Done` has no outgoing row, and so exactly one party — worker,
//! canceller or drain — wins a job's `→ Done` transition and runs the
//! completion effects (`completion.rs`).
//!
//! **Admission/drain protocol.** [`Admission::admit`] claims a depth
//! slot *first*, then re-checks the drain flag, and returns the slot on
//! either refusal; the dispatcher and the workers exit only on
//! [`Admission::drained`]. Under sequential consistency either the
//! producer observes the flag, or the consumers observe its
//! `depth > 0` — a submission can never slip past a drained exit. The
//! winner of a `→ Done` transition calls [`Admission::release`] only
//! after the outcome is published, so a drained exit also implies every
//! admitted job already has its outcome.

// Under `--cfg interleave` the atoms become model-checker decision
// points; the std and instrumented types share one API.
use crate::job::RejectReason;
#[cfg(interleave)]
use interleave::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
#[cfg(not(interleave))]
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

/// Where a job is in its life.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum State {
    /// Admitted, waiting in a lane or a worker queue.
    Queued,
    /// Claimed by a worker, executing.
    Running,
    /// Terminal; the outcome is published.
    Done,
}

impl State {
    fn from_bits(bits: u8) -> State {
        match bits {
            0 => State::Queued,
            1 => State::Running,
            _ => State::Done,
        }
    }
}

/// What can happen to a job.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Event {
    /// A worker takes the job for execution.
    Claim,
    /// The job's worker died; the job goes back to a lane.
    Requeue,
    /// A terminal outcome is published, whatever the job was doing.
    Finish,
    /// A terminal outcome is published only if the job is still in the
    /// given state (cancellation finishes a job only while it queues).
    FinishFrom(State),
}

/// The protocol: state × event → state. A pair without a row is
/// refused, and `Done` has no outgoing row. Where an event has several
/// source states the likeliest comes first — [`Phase::fire`] tries the
/// rows in this order.
const TRANSITIONS: [(State, Event, State); 6] = [
    (State::Queued, Event::Claim, State::Running),
    (State::Running, Event::Requeue, State::Queued),
    (State::Running, Event::Finish, State::Done),
    (State::Queued, Event::Finish, State::Done),
    (State::Queued, Event::FinishFrom(State::Queued), State::Done),
    (
        State::Running,
        Event::FinishFrom(State::Running),
        State::Done,
    ),
];

fn next_state(from: State, event: Event) -> Option<State> {
    TRANSITIONS
        .iter()
        .find(|row| row.0 == from && row.1 == event)
        .map(|row| row.2)
}

/// A job's state atom. Born in any state (a submit-time cache hit is
/// born `Done`); afterwards it moves only along the transition table.
#[derive(Debug)]
pub struct Phase {
    atom: AtomicU8,
}

impl Phase {
    /// A job in `state`.
    pub fn new(state: State) -> Phase {
        Phase {
            atom: AtomicU8::new(state as u8),
        }
    }

    /// Performs `event`: the one compare-exchange behind every
    /// transition. Returns the state the job left, or `None` when the
    /// table has no row for `event` in the job's current state.
    fn fire(&self, event: Event) -> Option<State> {
        // Optimistic start from the event's first source row, so the
        // common case is a single exchange with no load before it; a
        // failed exchange reports the state actually seen, which either
        // has a row of its own or refuses the event.
        let mut from = TRANSITIONS.iter().find(|row| row.1 == event)?.0;
        loop {
            let (old, new) = (from as u8, next_state(from, event)? as u8);
            // ordering: SeqCst — all transitions of one job are totally
            // ordered, so racing parties (worker claim vs cancel, worker
            // finish vs drain cancel, requeue vs cancel) agree on the
            // winner, exactly one of them leaves any given state, and a
            // terminal job is never claimed or requeued.
            match self
                .atom
                .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return Some(from),
                Err(seen) => from = State::from_bits(seen),
            }
        }
    }

    /// `Queued → Running`: true for the one caller that claimed the job.
    pub fn claim(&self) -> bool {
        self.fire(Event::Claim).is_some()
    }

    /// `Running → Queued`: puts a dead worker's job back in line. True
    /// for the one caller that took it out of `Running`; false when the
    /// job is terminal, or was never claimed and so still has its place
    /// in line.
    pub fn requeue(&self) -> bool {
        self.fire(Event::Requeue).is_some()
    }

    /// Any non-`Done` state `→ Done`: true for the one winner.
    pub fn finish(&self) -> bool {
        self.fire(Event::Finish).is_some()
    }

    /// `expected → Done`, only from that state: true for the winner.
    pub fn finish_from(&self, expected: State) -> bool {
        self.fire(Event::FinishFrom(expected)).is_some()
    }

    /// The current state.
    pub fn state(&self) -> State {
        // ordering: SeqCst — paired with the transitions in `fire`.
        State::from_bits(self.atom.load(Ordering::SeqCst))
    }

    /// True once the job is terminal.
    pub fn is_done(&self) -> bool {
        self.state() == State::Done
    }
}

/// The bounded admission queue's bookkeeping: `depth` counts jobs
/// admitted but not yet terminal, `draining` is set once by shutdown
/// and never cleared. `Default` is an empty queue that is not draining.
#[derive(Debug, Default)]
pub struct Admission {
    depth: AtomicUsize,
    draining: AtomicBool,
}

impl Admission {
    /// Claims a slot for a submission from outside, of at most
    /// `capacity`. The slot is taken *before* the drain flag is
    /// re-checked and is returned on either refusal (`ShuttingDown`
    /// takes precedence over `QueueFull`).
    pub fn admit(&self, capacity: usize) -> Result<(), RejectReason> {
        // ordering: SeqCst — the admission/drain pairing: this claim and
        // the flag's store in `begin_drain` are totally ordered, so
        // either the load below sees the flag and backs out, or the
        // `drained` check of every consumer sees `depth > 0` and keeps
        // consuming.
        let before = self.depth.fetch_add(1, Ordering::SeqCst);
        let refusal = if self.is_draining() {
            RejectReason::ShuttingDown
        } else if before >= capacity {
            RejectReason::QueueFull
        } else {
            return Ok(());
        };
        self.release();
        Err(refusal)
    }

    /// Claims a slot for work derived from an admitted job (a shard
    /// sub-job): unconditional — the parent already passed admission
    /// control, and the drain must see every child.
    pub fn admit_derived(&self) {
        // ordering: SeqCst — same slot accounting as `admit`.
        self.depth.fetch_add(1, Ordering::SeqCst);
    }

    /// Returns a slot: called by the winner of a job's `→ Done`
    /// transition after the outcome is published (and by `admit` for a
    /// refused submission).
    pub fn release(&self) {
        // ordering: SeqCst — a consumer that then reads depth 0 in
        // `drained` also sees everything published before the release.
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Starts the drain: from here on `admit` refuses.
    pub fn begin_drain(&self) {
        // ordering: SeqCst — totally ordered against `admit`'s claim.
        self.draining.store(true, Ordering::SeqCst);
    }

    /// True once the drain has begun.
    pub fn is_draining(&self) -> bool {
        // ordering: SeqCst — consistent with the flag's store.
        self.draining.load(Ordering::SeqCst)
    }

    /// Jobs admitted but not yet terminal.
    pub fn depth(&self) -> usize {
        // ordering: SeqCst — consistent with admission and release.
        self.depth.load(Ordering::SeqCst)
    }

    /// The exit condition of the dispatcher and of every worker: the
    /// drain has begun and every admitted job is terminal.
    pub fn drained(&self) -> bool {
        self.is_draining() && self.depth() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{Arc, Barrier};

    const ALL: [State; 3] = [State::Queued, State::Running, State::Done];

    fn all_events() -> Vec<Event> {
        let mut events = vec![Event::Claim, Event::Requeue, Event::Finish];
        events.extend(ALL.map(Event::FinishFrom));
        events
    }

    #[test]
    fn transition_table_is_total_and_done_is_absorbing() {
        for from in ALL {
            for event in all_events() {
                let rows = TRANSITIONS
                    .iter()
                    .filter(|row| row.0 == from && row.1 == event)
                    .count();
                assert!(rows <= 1, "{from:?} × {event:?} has {rows} rows");
                // A pair is either a row — `fire` performs exactly it —
                // or refused, leaving the state untouched.
                let phase = Phase::new(from);
                match next_state(from, event) {
                    Some(to) => {
                        assert_eq!(phase.fire(event), Some(from));
                        assert_eq!(phase.state(), to);
                    }
                    None => {
                        assert_eq!(phase.fire(event), None, "{from:?} × {event:?}");
                        assert_eq!(phase.state(), from);
                    }
                }
            }
        }
        assert!(
            TRANSITIONS.iter().all(|row| row.0 != State::Done),
            "Done has no outgoing row"
        );
        assert!(
            TRANSITIONS.iter().all(|row| row.2 == State::Done
                || !matches!(row.1, Event::Finish | Event::FinishFrom(_))),
            "finishing only ever leads to Done"
        );
    }

    #[test]
    fn each_named_method_is_exactly_its_row() {
        for from in ALL {
            let after = |act: fn(&Phase) -> bool| {
                let phase = Phase::new(from);
                act(&phase).then(|| phase.state())
            };
            assert_eq!(after(Phase::claim), next_state(from, Event::Claim));
            assert_eq!(after(Phase::finish), next_state(from, Event::Finish));
            assert_eq!(after(Phase::requeue), next_state(from, Event::Requeue));
            for expected in ALL {
                let phase = Phase::new(from);
                let won = phase.finish_from(expected);
                assert_eq!(
                    won.then(|| phase.state()),
                    next_state(from, Event::FinishFrom(expected))
                );
            }
        }
    }

    #[test]
    fn racing_threads_elect_one_finisher_and_never_overclaim() {
        const THREADS: u64 = 8;
        const OPS: usize = 20_000;
        let phase = Arc::new(Phase::new(State::Queued));
        let claims = Arc::new(AtomicU32::new(0));
        let charged = Arc::new(AtomicU32::new(0));
        let finishes = Arc::new(AtomicU32::new(0));
        let start = Arc::new(Barrier::new(THREADS as usize));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (phase, start) = (phase.clone(), start.clone());
                let (claims, charged, finishes) =
                    (claims.clone(), charged.clone(), finishes.clone());
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                    start.wait();
                    for i in 0..OPS {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        // Finishing is rare and late, so the claim and
                        // requeue traffic has time to race.
                        let finishing = i > OPS / 2 && rng & 1023 == 0;
                        let op = (rng >> 16) % 4;
                        let counter = if finishing {
                            let won = match op {
                                0 => phase.finish(),
                                1 => phase.finish_from(State::Queued),
                                2 => phase.finish_from(State::Running),
                                _ => phase.finish_from(State::Done),
                            };
                            won.then_some(&finishes)
                        } else if op < 2 {
                            phase.claim().then_some(&claims)
                        } else {
                            phase.requeue().then_some(&charged)
                        };
                        if let Some(counter) = counter {
                            // ordering: Relaxed — test tally, read after
                            // the joins below.
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("stress thread panicked");
        }
        // Whoever is left finishes the job: at most one more winner.
        let late = u32::from(phase.finish());
        // ordering: Relaxed — every writer has been joined.
        let finishes = finishes.load(Ordering::Relaxed) + late;
        let (claims, charged) = (
            claims.load(Ordering::Relaxed),
            charged.load(Ordering::Relaxed),
        );
        assert_eq!(finishes, 1, "exactly one → Done winner");
        assert!(phase.is_done());
        assert!(claims >= 1, "the race never claimed the job");
        assert!(
            claims <= 1 + charged,
            "{claims} claims but only {charged} charged requeues"
        );
    }

    #[test]
    fn admission_takes_the_slot_then_rechecks_the_flag() {
        let gate = Admission::default();
        assert_eq!(gate.admit(1), Ok(()));
        assert_eq!(gate.admit(1), Err(RejectReason::QueueFull));
        assert_eq!(gate.depth(), 1, "a refused submission returns its slot");
        gate.admit_derived();
        assert_eq!(gate.depth(), 2, "derived work ignores the capacity");
        gate.begin_drain();
        assert!(!gate.drained(), "two jobs are still in flight");
        assert_eq!(gate.admit(8), Err(RejectReason::ShuttingDown));
        gate.release();
        gate.release();
        assert!(gate.drained());
    }
}
