//! Turning a measured run into a persisted [`BenchRecord`].
//!
//! This is where the three telemetry sources meet: the wall-clock
//! iteration series from [`crate::measure`], the per-thread sweep totals
//! from the runtime's registry, and the static kernel tallies/roofline
//! prediction from `pic-boris`/`pic-perfmodel`. The `reproduce
//! --emit-metrics` flag and the regression-gate tests both build records
//! through here so artifacts stay schema-consistent.

use crate::config::BenchConfig;
use crate::measure::MeasuredRun;
use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::{KernelVariant, RecordSubject};
use pic_telemetry::BenchRecord;

/// Assembles the full provenance record for one measured host
/// configuration.
#[allow(clippy::too_many_arguments)]
pub fn bench_record(
    label: &str,
    layout: Layout,
    scenario: Scenario,
    precision: Precision,
    schedule: Schedule,
    variant: KernelVariant,
    topology: &Topology,
    cfg: &BenchConfig,
    run: &MeasuredRun,
) -> BenchRecord {
    let subject = RecordSubject {
        label,
        layout,
        scenario,
        precision,
        schedule,
        variant,
        topology,
        target: ExecTarget::Host,
        particles: cfg.particles,
        steps_per_iteration: cfg.steps_per_iteration,
    };
    BenchRecord {
        iterations: run.iteration_ns.len() as u64,
        iteration_ns: run.iteration_ns.clone(),
        warmup_nsps: run.first_iteration_nsps(),
        mean_nsps: run.nsps(),
        imbalance: run.imbalance(),
        time_imbalance: run.time_imbalance(),
        thread_stats: run.thread_stats.clone(),
        ..subject.record(run.steady_nsps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_nsps;
    use pic_telemetry::SCHEMA_VERSION;

    #[test]
    fn record_carries_full_provenance() {
        let cfg = BenchConfig::quick();
        let topo = Topology::uniform(2, 2);
        let schedule = Schedule::numa();
        let run = measure_nsps::<f32>(Layout::Soa, Scenario::Precalculated, &cfg, &topo, schedule);
        let rec = bench_record(
            "test",
            Layout::Soa,
            Scenario::Precalculated,
            Precision::F32,
            schedule,
            KernelVariant::SoaFast,
            &topo,
            &cfg,
            &run,
        );
        assert_eq!(rec.schema, SCHEMA_VERSION);
        assert_eq!(
            rec.key(),
            format!(
                "SoA|Precalculated Fields|float|DPC++ NUMA|t4|d2|n{}|s{}|ksoa-fast",
                cfg.particles, cfg.steps_per_iteration
            )
        );
        assert_eq!(rec.layout, "SoA");
        assert_eq!(rec.schedule, "DPC++ NUMA");
        assert_eq!(rec.kernel_variant, "soa-fast");
        assert_eq!(rec.threads, 4);
        assert_eq!(rec.domains, 2);
        assert_eq!(rec.iteration_ns.len(), cfg.iterations);
        assert!(rec.steady_nsps > 0.0 && rec.warmup_nsps > 0.0);
        // Sweep accounting: the per-thread totals cover every particle of
        // every step of every iteration.
        let total: u64 = rec.thread_stats.iter().map(|t| t.particles).sum();
        let expect = (cfg.particles * cfg.steps_per_iteration * cfg.iterations) as u64;
        assert_eq!(total, expect);
        assert!(rec.imbalance >= 1.0);
        assert!(rec.time_imbalance >= 1.0);
        assert!(rec.flops_per_particle > 0.0 && rec.bytes_per_particle > 0.0);
        assert!(rec.model_nsps > 0.0 && rec.model_ratio > 0.0);
        // The record survives its own serialization.
        let back = BenchRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }
}
