//! The two synchronization helpers of the runtime and the job service.

/// Locks a mutex, riding through poisoning: the one poison-tolerant
/// acquisition of the sweep's grain queues and of the serving layer
/// (scheduler, checkpoint store, shard gather). Every critical section
/// behind it takes, inserts, removes or replaces whole entries under
/// the lock, so a panic elsewhere never leaves the data torn and the
/// guard is safe to recover.
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Propagates a worker-thread panic to the caller instead of minting a
/// new panic at the join site (which would lose the original payload).
/// Used for every join result in this crate, keeping library code free
/// of `unwrap`/`expect` (pic-lint's `unwrap-in-lib` rule).
pub(crate) fn join_or_propagate<T>(result: std::thread::Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
