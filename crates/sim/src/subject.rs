//! The identity of a run's telemetry record.
//!
//! A [`BenchRecord`] is about one configuration of the runner: layout,
//! scenario, precision, schedule, kernel variant, topology and target.
//! [`RecordSubject`] names that configuration and derives the model half
//! of the record from it, for every producer: the harness's host and
//! device measurements and the job service's per-submission records.

use crate::device_run::gpu_model_of;
use crate::run::KernelVariant;
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

#[cfg(test)]
mod tests {
    use super::*;

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
