//! Profiling events returned by kernel submissions.

use std::time::Duration;

/// The analogue of a SYCL event with profiling info enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Name of the device that executed the kernel.
    pub device: String,
    /// Measured host wall-clock time of the (functional) execution.
    pub wall: Duration,
    /// Modeled kernel time in nanoseconds, present for simulated-GPU
    /// devices (hardware substitution; see DESIGN.md §2).
    pub modeled_ns: Option<f64>,
    /// Particles processed by this submission.
    pub particles: usize,
    /// `true` when this was the executor's first launch (JIT compilation of
    /// the intermediate representation — paper §5.3).
    pub first_launch: bool,
}

impl Event {
    /// Kernel time in nanoseconds: the modeled time on simulated devices,
    /// the measured wall time on the host.
    pub fn time_ns(&self) -> f64 {
        self.modeled_ns.unwrap_or(self.wall.as_nanos() as f64)
    }

    /// Nanoseconds per particle for this sweep (the per-step NSPS
    /// contribution). Returns 0 for an empty submission.
    pub fn ns_per_particle(&self) -> f64 {
        if self.particles == 0 {
            0.0
        } else {
            self.time_ns() / self.particles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_time_wins_over_wall() {
        let e = Event {
            device: "P630".into(),
            wall: Duration::from_nanos(500),
            modeled_ns: Some(2000.0),
            particles: 100,
            first_launch: false,
        };
        assert_eq!(e.time_ns(), 2000.0);
        assert_eq!(e.ns_per_particle(), 20.0);
    }

    #[test]
    fn host_events_use_wall_time() {
        let e = Event {
            device: "host".into(),
            wall: Duration::from_micros(3),
            modeled_ns: None,
            particles: 1000,
            first_launch: true,
        };
        assert_eq!(e.time_ns(), 3000.0);
        assert_eq!(e.ns_per_particle(), 3.0);
    }

    #[test]
    fn empty_submission() {
        let e = Event {
            device: "host".into(),
            wall: Duration::ZERO,
            modeled_ns: None,
            particles: 0,
            first_launch: false,
        };
        assert_eq!(e.ns_per_particle(), 0.0);
    }
}
