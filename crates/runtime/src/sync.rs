//! Synchronization primitives behind the sweep, routed through one
//! place so the model-checked build swaps in instrumented versions.
//!
//! [`WorkQueue`] is the queue that backs the Dynamic / NumaDomains
//! schedules. It aliases `crossbeam::queue::SegQueue`,
//! whose atomics are themselves `cfg(interleave)`-switched: building
//! the workspace with `RUSTFLAGS="--cfg interleave"` turns every queue
//! operation into a model-checker decision point, and the suites in
//! `crates/check` exhaustively verify the push/pop protocol and the
//! per-domain handoff pattern the sweep relies on (fill queues, spawn
//! workers that drain them, join, read reports).

/// The work-distribution queue used by queued schedules — lock-free
/// segmented MPMC; see `crossbeam::queue::SegQueue` for the protocol
/// and its verification story.
pub type WorkQueue<T> = crossbeam::queue::SegQueue<T>;

/// Locks a mutex, riding through poisoning: the one poison-tolerant
/// acquisition of the serving layer (scheduler, checkpoint store, shard
/// gather). Every critical section behind it inserts,
/// removes or replaces whole entries under the lock, so a panic
/// elsewhere never leaves the data torn and the guard is safe to
/// recover.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Propagates a worker-thread panic to the caller instead of minting a
/// new panic at the join site (which would lose the original payload).
/// Used for every scope/join result in this crate, keeping library code
/// free of `unwrap`/`expect` (pic-lint's `unwrap-in-lib` rule).
pub(crate) fn join_or_propagate<T>(result: crossbeam::thread::Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
