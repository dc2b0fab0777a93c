//! Cooperative cancellation for the parallel sweep.
//!
//! A [`CancelToken`] is a cloneable flag shared between the party that
//! requests a stop (a job scheduler, a deadline watchdog, a Ctrl-C
//! handler) and the step runners that honor it. Runners poll the token
//! *between steps* only — a sweep, once started, covers every particle —
//! so cancellation costs one atomic load per step and the kernel hot
//! path stays untouched, mirroring how the paper's per-iteration
//! overhead analysis keeps bookkeeping out of the push loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, monotonic stop flag: once cancelled, forever cancelled.
///
/// # Example
///
/// ```
/// use pic_runtime::CancelToken;
///
/// let token = CancelToken::new();
/// let worker_view = token.clone();
/// assert!(!worker_view.is_cancelled());
/// token.cancel();
/// assert!(worker_view.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        // ordering: Relaxed — the flag is advisory and monotonic; a
        // worker that reads a stale `false` merely finishes one more
        // chunk, and the spawn/join edges of the sweep publish every
        // effect that matters for the final report.
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — see `cancel`; staleness only delays the
        // stop by at most one chunk.
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled(), "cancel is idempotent");
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }
}
