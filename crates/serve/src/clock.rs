//! The service's single wall-clock read point.
//!
//! Queue-wait accounting, deadline checks and timeout enforcement all
//! need monotonic wall time, but the workspace confines `Instant` to the
//! measuring layers (`pic-analyze`'s `instant-outside-telemetry` rule) so
//! stray timers cannot skew NSPS numbers. This module is the one
//! allowlisted exception inside `pic-serve`: every other module asks a
//! [`Clock`] for nanoseconds-since-service-start and never touches
//! `std::time` directly.

use std::time::Instant;

/// Monotonic service clock, nanoseconds since construction.
#[derive(Clone, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts a clock at `now = 0`.
    pub fn new() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
