//! The device layer's single wall-clock read point.
//!
//! Every wall-time measurement in `pic-device` — the host-side timing of
//! functional kernel execution that feeds the modeled-GPU event timeline
//! — goes through [`Stopwatch`]. This is the only module in the crate
//! allowed to name `std::time::Instant` (pic-lint's `INSTANT_ALLOW`
//! carries exactly this file), mirroring the job service's `clock.rs`
//! discipline: one audited clock, no ad-hoc timers scattered through the
//! executor.

use std::time::{Duration, Instant};

/// A started wall clock. Constructed at kernel-launch time, read once
/// when the launch completes.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time elapsed since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let w = Stopwatch::start();
        let a = w.elapsed();
        let b = w.elapsed();
        assert!(b >= a);
    }
}
