//! Harness scale: how many particles, steps and iterations a measured
//! run takes.
//!
//! The paper measured 10⁷ particles × 10³ steps × 10 iterations (§5.2).
//! The defaults below scale the particle count and step count down so the
//! harness completes on a laptop-class host; `PIC_BENCH_PARTICLES`,
//! `PIC_BENCH_STEPS` and `PIC_BENCH_ITERS` restore any scale up to the
//! paper's 10⁷ × 10³ × 10.

/// Workload sizing for one harness run.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct BenchConfig {
    /// Number of macroparticles (paper: 10⁷).
    pub particles: usize,
    /// Pusher steps per measured iteration (paper: 10³).
    pub steps_per_iteration: usize,
    /// Measured iterations (paper: 10).
    pub iterations: usize,
}

impl BenchConfig {
    /// Default harness scale: 10⁵ particles × 50 steps × 5 iterations.
    pub fn default_scale() -> BenchConfig {
        BenchConfig {
            particles: 100_000,
            steps_per_iteration: 50,
            iterations: 5,
        }
    }

    /// Tiny scale for unit tests.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            particles: 2_000,
            steps_per_iteration: 5,
            iterations: 3,
        }
    }

    /// Reads the scale from `PIC_BENCH_PARTICLES` / `PIC_BENCH_STEPS` /
    /// `PIC_BENCH_ITERS`, falling back to [`default_scale`](Self::default_scale).
    pub fn from_env() -> BenchConfig {
        let read = |key: &str, dflt: usize| -> usize {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(dflt)
        };
        let d = BenchConfig::default_scale();
        BenchConfig {
            particles: read("PIC_BENCH_PARTICLES", d.particles),
            steps_per_iteration: read("PIC_BENCH_STEPS", d.steps_per_iteration),
            iterations: read("PIC_BENCH_ITERS", d.iterations),
        }
    }

    /// Total particle-steps of one measured iteration.
    pub fn work_per_iteration(&self) -> usize {
        self.particles * self.steps_per_iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_scales() {
        let q = BenchConfig::quick();
        assert_eq!(q.work_per_iteration(), 10_000);
    }

    #[test]
    fn env_overrides() {
        std::env::set_var("PIC_BENCH_PARTICLES", "1234");
        let c = BenchConfig::from_env();
        assert_eq!(c.particles, 1234);
        std::env::remove_var("PIC_BENCH_PARTICLES");
        let d = BenchConfig::from_env();
        assert_eq!(d.particles, BenchConfig::default_scale().particles);
    }
}
