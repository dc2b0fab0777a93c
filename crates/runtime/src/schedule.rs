//! Scheduling policies for the particle sweep.

/// How the particle range is distributed over worker threads — the three
/// modes compared in the paper's Table 2.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum Schedule {
    /// One contiguous block per thread, assigned up front — OpenMP's
    /// default static scheduling (the paper's reference implementation).
    StaticChunks,
    /// A shared queue of grains that idle threads pull from — TBB-style
    /// dynamic scheduling, what the DPC++ CPU runtime does (paper §4.3).
    /// `grain` is the number of particles per work item (0 = pick
    /// automatically).
    Dynamic {
        /// Particles per work item; 0 chooses `n / (8·threads)`, clamped
        /// to at least 1 — roughly TBB's auto partitioner granularity.
        grain: usize,
    },
    /// Dynamic scheduling restricted to per-domain arenas, the effect of
    /// `DPCPP_CPU_PLACES=numa_domains` (paper §4.3): the particle range is
    /// partitioned across domains proportionally, and threads only pull
    /// grains from their own domain's queue, so the same particles are
    /// touched by the same socket every step.
    NumaDomains {
        /// Particles per work item; 0 chooses automatically per domain.
        grain: usize,
    },
}

impl Schedule {
    /// Dynamic scheduling with automatic granularity.
    pub fn dynamic() -> Schedule {
        Schedule::Dynamic { grain: 0 }
    }

    /// NUMA-domain scheduling with automatic granularity.
    pub fn numa() -> Schedule {
        Schedule::NumaDomains { grain: 0 }
    }

    /// Resolves a requested grain: explicit values pass through, 0 becomes
    /// the TBB-like default `items/(8·threads)`, at least 1.
    pub fn resolve_grain(grain: usize, items: usize, threads: usize) -> usize {
        if grain > 0 {
            grain
        } else {
            (items / (8 * threads.max(1))).max(1)
        }
    }

    /// Name used in benchmark output, matching the paper's tables.
    pub fn paper_name(&self) -> &'static str {
        match self {
            Schedule::StaticChunks => "OpenMP",
            Schedule::Dynamic { .. } => "DPC++",
            Schedule::NumaDomains { .. } => "DPC++ NUMA",
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names() {
        assert_eq!(Schedule::StaticChunks.paper_name(), "OpenMP");
        assert_eq!(Schedule::dynamic().paper_name(), "DPC++");
        assert_eq!(Schedule::numa().to_string(), "DPC++ NUMA");
    }

    #[test]
    fn grain_resolution() {
        assert_eq!(Schedule::resolve_grain(128, 1_000_000, 48), 128);
        assert_eq!(
            Schedule::resolve_grain(0, 1_000_000, 48),
            1_000_000 / (8 * 48)
        );
        // Tiny inputs never produce a zero grain.
        assert_eq!(Schedule::resolve_grain(0, 3, 48), 1);
        assert_eq!(Schedule::resolve_grain(0, 0, 0), 1);
    }
}
