//! Turning a measured run into a persisted [`BenchRecord`].
//!
//! This is where the three telemetry sources meet: the wall-clock
//! iteration series from [`crate::measure`], the per-thread sweep totals
//! from the runtime's registry, and the static kernel tallies/roofline
//! prediction from `pic-boris`/`pic-perfmodel`. The `reproduce
//! --emit-metrics` flag and the regression-gate tests both build records
//! through here so artifacts stay schema-consistent.

use crate::device_run::gpu_model_of;
use crate::measure::MeasuredRun;
use crate::run::KernelVariant;
use crate::scenario::BenchConfig;
use pic_boris::{BorisPusher, Pusher};
use pic_particles::Layout;
use pic_perfmodel::{CpuModel, KernelCost, Parallelization, Precision, Scenario};
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_telemetry::{BenchRecord, SCHEMA_VERSION};

/// Maps a runtime schedule onto the paper's parallelization row used for
/// the model prediction.
pub fn parallelization_of(schedule: Schedule) -> Parallelization {
    match schedule {
        Schedule::StaticChunks => Parallelization::OpenMp,
        Schedule::Dynamic { .. } => Parallelization::Dpcpp,
        Schedule::NumaDomains { .. } => Parallelization::DpcppNuma,
    }
}

/// What a record is about — the identity half of a [`BenchRecord`].
/// The model half (kernel tallies, roofline prediction) follows from it,
/// so every producer (host harness, device harness, served jobs) starts
/// from [`RecordSubject::record`] and fills in only what it measured.
#[derive(Clone, Copy, Debug)]
pub struct RecordSubject<'a> {
    /// Label of the emitting run.
    pub label: &'a str,
    /// Particle layout.
    pub layout: Layout,
    /// Benchmark scenario.
    pub scenario: Scenario,
    /// Floating-point precision.
    pub precision: Precision,
    /// Sweep schedule (names the record's paper row).
    pub schedule: Schedule,
    /// Pusher kernel variant.
    pub variant: KernelVariant,
    /// Thread topology of the sweep.
    pub topology: &'a Topology,
    /// Execution target; the host leaves the `device` dimension empty.
    pub target: ExecTarget,
    /// Macroparticles in the ensemble.
    pub particles: usize,
    /// Pusher steps per measured iteration.
    pub steps_per_iteration: usize,
}

impl RecordSubject<'_> {
    /// The record of a run that measured `steady_nsps`: identity, model
    /// prediction and `model_ratio` filled in, the bench-harness
    /// defaults for the serving dimensions (never queued, a batch of
    /// one, completed), every other measurement left at its zero for
    /// the caller's struct update.
    ///
    /// A host prediction uses the paper's CPU (2×24-core Xeon 8260L) at
    /// this run's thread count, so `model_ratio` reads as "this host vs
    /// the paper's machine" rather than a same-host residual; a device
    /// prediction is the target's GPU roofline.
    pub fn record(&self, steady_nsps: f64) -> BenchRecord {
        let threads = self.topology.total_threads();
        let model_nsps = match gpu_model_of(self.target) {
            Some(gpu) => gpu.nsps(self.scenario, self.layout, self.precision),
            None => {
                let cpu = CpuModel::endeavour();
                cpu.nsps(
                    self.scenario,
                    self.layout,
                    self.precision,
                    parallelization_of(self.schedule),
                    threads.clamp(1, cpu.spec.sockets * cpu.spec.cores_per_socket),
                )
            }
        };
        BenchRecord {
            schema: SCHEMA_VERSION,
            label: self.label.to_string(),
            layout: self.layout.name().to_string(),
            scenario: self.scenario.name().to_string(),
            precision: self.precision.name().to_string(),
            schedule: self.schedule.paper_name().to_string(),
            threads: threads as u64,
            domains: self.topology.domains() as u64,
            particles: self.particles as u64,
            steps_per_iteration: self.steps_per_iteration as u64,
            steady_nsps,
            flops_per_particle: Pusher::<f64>::tally(&BorisPusher).flop_equivalents(),
            bytes_per_particle: KernelCost::boris(self.scenario, self.layout, self.precision)
                .bytes_total(),
            model_nsps,
            model_ratio: if model_nsps > 0.0 {
                steady_nsps / model_nsps
            } else {
                0.0
            },
            batch_size: 1,
            outcome: "completed".to_string(),
            kernel_variant: self.variant.name().to_string(),
            device: if self.target.is_host() {
                String::new()
            } else {
                self.target.name().to_string()
            },
            ..BenchRecord::default()
        }
    }
}

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
        order_fraction: run.order_fraction,
        ..subject.record(run.steady_nsps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_nsps;

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
        // Morton-sorted start: clearly above the ~0.5 of a random fill.
        assert!(
            (0.0..=1.0).contains(&rec.order_fraction) && rec.order_fraction > 0.6,
            "{}",
            rec.order_fraction
        );
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

    #[test]
    fn schedules_map_to_paper_rows() {
        assert_eq!(
            parallelization_of(Schedule::StaticChunks),
            Parallelization::OpenMp
        );
        assert_eq!(
            parallelization_of(Schedule::dynamic()),
            Parallelization::Dpcpp
        );
        assert_eq!(
            parallelization_of(Schedule::numa()),
            Parallelization::DpcppNuma
        );
    }
}
