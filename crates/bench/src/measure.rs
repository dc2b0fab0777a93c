//! Wall-clock NSPS measurement of the real Rust kernels on this host.
//!
//! This is the *measured* half of the harness (the modeled half lives in
//! `pic-perfmodel`): it executes the actual pusher over the actual
//! benchmark ensemble under a chosen schedule, repeating the paper's
//! 10-iteration protocol and reporting the paper's NSPS metric.

use crate::config::BenchConfig;
use pic_math::constants::BENCH_WAVELENGTH;
use pic_math::stats::Summary;
use pic_math::{Real, Vec3};
use pic_particles::sort::CellGrid;
use pic_particles::{AosEnsemble, Layout, ParticleStore, SoaEnsemble};
use pic_perfmodel::Scenario;
use pic_runtime::{imbalance_of, Schedule, Topology};
use pic_sim::{
    build_ensemble, merge_thread_stats, run_mdipole_steps, KernelVariant, MdipoleScenario,
};
use pic_telemetry::ThreadStat;
use std::time::Instant;

/// Result of one measured configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredRun {
    /// Wall time of each measured iteration, nanoseconds.
    pub iteration_ns: Vec<f64>,
    /// Particles × steps per iteration.
    pub work: usize,
    /// Per-thread totals accumulated over every sweep of the run, ordered
    /// by thread id (busy time is 0 when `pic-runtime` is built without
    /// its `telemetry` feature).
    pub thread_stats: Vec<ThreadStat>,
}

impl MeasuredRun {
    /// The paper's metric: mean iteration time / particles / steps.
    pub fn nsps(&self) -> f64 {
        Summary::of(&self.iteration_ns).mean / self.work as f64
    }

    /// NSPS of the first iteration only (JIT/cold-cache probe, §5.3).
    pub fn first_iteration_nsps(&self) -> f64 {
        self.iteration_ns[0] / self.work as f64
    }

    /// NSPS excluding the first iteration.
    pub fn steady_nsps(&self) -> f64 {
        if self.iteration_ns.len() < 2 {
            return self.nsps();
        }
        Summary::of(&self.iteration_ns[1..]).mean / self.work as f64
    }

    /// The full per-iteration NSPS series, in run order.
    pub fn nsps_series(&self) -> Vec<f64> {
        self.iteration_ns
            .iter()
            .map(|&ns| ns / self.work as f64)
            .collect()
    }

    /// Particle-count load imbalance over the whole run
    /// ([`pic_runtime::imbalance_of`]).
    pub fn imbalance(&self) -> f64 {
        imbalance_of(self.thread_stats.iter().map(|t| t.particles))
    }

    /// Busy-time load imbalance over the whole run (0.0 when untimed).
    pub fn time_imbalance(&self) -> f64 {
        imbalance_of(self.thread_stats.iter().map(|t| t.busy_ns))
    }
}

/// Measures NSPS for one (layout, scenario) cell of the benchmark with
/// the real kernels, at precision `R`, under `schedule` on `topology`.
///
/// The Precalculated scenario builds its per-particle field array from the
/// initial positions, once, outside the measured region — mirroring the
/// paper's setup where scenario 1 "excludes all operations from
/// measurements except for particle motion".
pub fn measure_nsps<R: Real>(
    layout: Layout,
    scenario: Scenario,
    cfg: &BenchConfig,
    topology: &Topology,
    schedule: Schedule,
) -> MeasuredRun {
    measure_nsps_variant::<R>(
        layout,
        scenario,
        cfg,
        topology,
        schedule,
        KernelVariant::SoaFast,
    )
}

/// [`measure_nsps`] with an explicit kernel variant — the entry point for
/// blocked-kernel vs scalar-oracle comparisons.
pub fn measure_nsps_variant<R: Real>(
    layout: Layout,
    scenario: Scenario,
    cfg: &BenchConfig,
    topology: &Topology,
    schedule: Schedule,
    variant: KernelVariant,
) -> MeasuredRun {
    match layout {
        Layout::Aos => {
            let mut store: AosEnsemble<R> = build_ensemble(cfg.particles, 42);
            measure_store(&mut store, scenario, cfg, topology, schedule, variant)
        }
        Layout::Soa => {
            let mut store: SoaEnsemble<R> = build_ensemble(cfg.particles, 42);
            measure_store(&mut store, scenario, cfg, topology, schedule, variant)
        }
    }
}

/// A locality-sorting grid: 32³ cells over the bounding cube of the
/// initial 0.6λ sphere. Nothing in the harness sorts; `benchmark/`'s
/// layer replay still times a Morton sort over it (ROADMAP item 4).
pub fn bench_grid() -> CellGrid {
    let r = 0.6 * BENCH_WAVELENGTH;
    CellGrid::new(Vec3::splat(-r), Vec3::splat(r), [32, 32, 32])
}

fn measure_store<R: Real, A: ParticleStore<R>>(
    store: &mut A,
    scenario: Scenario,
    cfg: &BenchConfig,
    topology: &Topology,
    schedule: Schedule,
    variant: KernelVariant,
) -> MeasuredRun {
    // Field context (including the Precalculated sampling pass) is built
    // once, before the first Instant::now().
    let ctx = MdipoleScenario::prepare(scenario, store);
    let mut iteration_ns = Vec::with_capacity(cfg.iterations);
    let mut thread_stats: Vec<ThreadStat> = Vec::new();
    let mut time = R::ZERO;
    for _ in 0..cfg.iterations {
        let start = Instant::now();
        let run = run_mdipole_steps(
            store,
            &ctx,
            cfg.steps_per_iteration,
            &mut time,
            topology,
            schedule,
            variant,
            None,
            &mut |_, _| true,
        );
        iteration_ns.push(start.elapsed().as_nanos() as f64);
        merge_thread_stats(&mut thread_stats, run.thread_stats);
    }
    MeasuredRun {
        iteration_ns,
        work: cfg.work_per_iteration(),
        thread_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_runs_and_reports_positive_nsps() {
        let cfg = BenchConfig::quick();
        let topo = Topology::single(1);
        for layout in [Layout::Aos, Layout::Soa] {
            for scenario in Scenario::all() {
                let run =
                    measure_nsps::<f32>(layout, scenario, &cfg, &topo, Schedule::StaticChunks);
                assert_eq!(run.iteration_ns.len(), cfg.iterations);
                assert!(run.nsps() > 0.0, "{layout} {scenario}");
                assert!(run.steady_nsps() > 0.0);
                assert!(run.first_iteration_nsps() > 0.0);
            }
        }
    }

    #[test]
    fn f64_measurement_also_runs() {
        let cfg = BenchConfig::quick();
        let run = measure_nsps::<f64>(
            Layout::Soa,
            Scenario::Analytical,
            &cfg,
            &Topology::single(2),
            Schedule::dynamic(),
        );
        assert!(run.nsps() > 0.0);
        assert_eq!(run.work, cfg.work_per_iteration());
    }

    #[test]
    fn variants_measure_the_same_physics() {
        // Same config, different kernels: both must do the same work and
        // report positive throughput.
        let cfg = BenchConfig::quick();
        let topo = Topology::single(2);
        for variant in KernelVariant::all() {
            let run = measure_nsps_variant::<f32>(
                Layout::Soa,
                Scenario::Analytical,
                &cfg,
                &topo,
                Schedule::dynamic(),
                variant,
            );
            assert!(run.nsps() > 0.0, "{variant}");
            let pushed: u64 = run.thread_stats.iter().map(|t| t.particles).sum();
            let expect = (cfg.particles * cfg.steps_per_iteration * cfg.iterations) as u64;
            assert_eq!(pushed, expect, "{variant}");
        }
    }
}
