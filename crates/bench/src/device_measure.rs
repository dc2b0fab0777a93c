//! The device half of the harness: Table 3 cells measured through
//! [`pic_sim::run_device_steps`].
//!
//! Measurement semantics differ from the host harness in one deliberate
//! way: on a device, one kernel launch *is* one measured iteration (the
//! paper's GPU protocol times individual `parallel_for` submissions), so
//! device records carry `steps_per_iteration = 1` and the first
//! iteration pays exactly the modeled JIT factor (§5.3).

use crate::config::BenchConfig;
use pic_device::Event;
use pic_math::stats::Summary;
use pic_math::Real;
use pic_particles::{AosEnsemble, Layout, ParticleStore, SoaEnsemble};
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::{build_ensemble, run_device_steps, KernelVariant, MdipoleScenario, RecordSubject};
use pic_telemetry::{BenchRecord, ThreadStat};

/// Result of one measured device configuration: one event per iteration
/// (one launch = one iteration on the device protocol).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceMeasuredRun {
    /// The per-launch profiling events, in run order.
    pub events: Vec<Event>,
    /// Particles per launch.
    pub particles: usize,
}

impl DeviceMeasuredRun {
    /// Reported time of each iteration, nanoseconds.
    pub fn iteration_ns(&self) -> Vec<f64> {
        self.events.iter().map(Event::time_ns).collect()
    }

    /// NSPS of the first (JIT) launch.
    pub fn warmup_nsps(&self) -> f64 {
        self.events.first().map_or(0.0, Event::ns_per_particle)
    }

    /// Mean NSPS excluding the first launch — the steady-state number
    /// the Table 3 gate compares.
    pub fn steady_nsps(&self) -> f64 {
        if self.events.len() < 2 {
            return self.mean_nsps();
        }
        Summary::of(&self.iteration_ns()[1..]).mean / self.particles.max(1) as f64
    }

    /// Mean NSPS over all launches.
    pub fn mean_nsps(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        Summary::of(&self.iteration_ns()).mean / self.particles.max(1) as f64
    }
}

/// Measures one (layout, scenario) cell through the device backend at
/// precision `R` on `target`: `cfg.iterations` launches from one cold
/// executor, so the first launch pays the JIT factor and the rest run
/// steady — the device-side analogue of [`crate::measure_nsps`].
pub fn measure_device_nsps<R: Real>(
    layout: Layout,
    scenario: Scenario,
    cfg: &BenchConfig,
    target: ExecTarget,
) -> DeviceMeasuredRun {
    match layout {
        Layout::Aos => {
            let mut store: AosEnsemble<R> = build_ensemble(cfg.particles, 42);
            measure_device_store(&mut store, layout, scenario, cfg, target)
        }
        Layout::Soa => {
            let mut store: SoaEnsemble<R> = build_ensemble(cfg.particles, 42);
            measure_device_store(&mut store, layout, scenario, cfg, target)
        }
    }
}

fn measure_device_store<R: Real, A: ParticleStore<R>>(
    store: &mut A,
    layout: Layout,
    scenario: Scenario,
    cfg: &BenchConfig,
    target: ExecTarget,
) -> DeviceMeasuredRun {
    let ctx = MdipoleScenario::prepare(scenario, store);
    let mut time = R::ZERO;
    let run = run_device_steps(
        store,
        &ctx,
        cfg.iterations,
        &mut time,
        layout,
        target,
        None,
        &mut |_, _| true,
    );
    DeviceMeasuredRun {
        events: run.events,
        particles: cfg.particles,
    }
}

/// Assembles the provenance record for one measured device configuration
/// — the device-backend counterpart of [`crate::bench_record`], carrying
/// the additive `device` dimension (empty for host targets, so host
/// records keep their historical identity key).
pub fn device_record(
    label: &str,
    layout: Layout,
    scenario: Scenario,
    precision: Precision,
    target: ExecTarget,
    cfg: &BenchConfig,
    run: &DeviceMeasuredRun,
) -> BenchRecord {
    let iteration_ns = run.iteration_ns();
    let launches = run.events.len() as u64;
    let total_ns: f64 = iteration_ns.iter().sum();
    // The paper's GPU port is plain DPC++ (no NUMA/OpenMP modes on the
    // device) and its in-order queue serializes launches: the dynamic
    // schedule's paper row on one thread.
    let subject = RecordSubject {
        label,
        layout,
        scenario,
        precision,
        schedule: Schedule::dynamic(),
        variant: KernelVariant::SoaFast,
        topology: &Topology::single(1),
        target,
        particles: cfg.particles,
        steps_per_iteration: 1,
    };
    BenchRecord {
        iterations: launches,
        iteration_ns,
        warmup_nsps: run.warmup_nsps(),
        mean_nsps: run.mean_nsps(),
        thread_stats: vec![ThreadStat {
            thread: 0,
            domain: 0,
            chunks: launches,
            particles: cfg.particles as u64 * launches,
            busy_ns: total_ns as u64,
        }],
        ..subject.record(run.steady_nsps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_perfmodel::GpuModel;

    #[test]
    fn first_launch_pays_exactly_the_jit_factor() {
        let cfg = BenchConfig::quick();
        let run = measure_device_nsps::<f32>(
            Layout::Soa,
            Scenario::Precalculated,
            &cfg,
            ExecTarget::IrisXeMax,
        );
        assert_eq!(run.events.len(), cfg.iterations);
        assert!(run.events[0].first_launch);
        assert!(run.events[1..].iter().all(|e| !e.first_launch));
        let ratio = run.warmup_nsps() / run.steady_nsps();
        assert!((ratio - 1.5).abs() < 1e-9, "JIT ratio {ratio}");
        // On the modeled device the steady NSPS is the roofline number.
        let model =
            GpuModel::iris_xe_max().nsps(Scenario::Precalculated, Layout::Soa, Precision::F32);
        assert!((run.steady_nsps() - model).abs() < 1e-9 * model);
        // And the devices order like Table 3: the P630 is the slower GPU.
        let p630 = measure_device_nsps::<f32>(
            Layout::Soa,
            Scenario::Precalculated,
            &cfg,
            ExecTarget::P630,
        );
        assert!(
            p630.steady_nsps() > run.steady_nsps(),
            "P630 ({}) should be slower than Iris ({})",
            p630.steady_nsps(),
            run.steady_nsps()
        );
    }

    #[test]
    fn modeled_coalescing_gap_separates_the_layouts() {
        let cfg = BenchConfig::quick();
        for target in [ExecTarget::P630, ExecTarget::IrisXeMax] {
            let aos =
                measure_device_nsps::<f32>(Layout::Aos, Scenario::Precalculated, &cfg, target);
            let soa =
                measure_device_nsps::<f32>(Layout::Soa, Scenario::Precalculated, &cfg, target);
            // NSPS is time per particle: the AoS layout must be slower.
            assert!(
                aos.steady_nsps() > 1.3 * soa.steady_nsps(),
                "{target:?}: AoS {} vs SoA {}",
                aos.steady_nsps(),
                soa.steady_nsps()
            );
        }
    }

    #[test]
    fn device_record_carries_the_device_dimension() {
        let cfg = BenchConfig::quick();
        let run =
            measure_device_nsps::<f32>(Layout::Aos, Scenario::Analytical, &cfg, ExecTarget::P630);
        let rec = device_record(
            "dev",
            Layout::Aos,
            Scenario::Analytical,
            Precision::F32,
            ExecTarget::P630,
            &cfg,
            &run,
        );
        assert_eq!(rec.device, "p630");
        assert_eq!(rec.steps_per_iteration, 1);
        assert_eq!(rec.iterations, cfg.iterations as u64);
        assert_eq!(
            rec.key(),
            format!(
                "AoS|Analytical Fields|float|DPC++|t1|d1|n{}|s1|ksoa-fast|Dp630",
                cfg.particles
            )
        );
        // Steady equals the model on a modeled device: ratio is 1.
        assert!((rec.model_ratio - 1.0).abs() < 1e-9, "{}", rec.model_ratio);
        let back = BenchRecord::from_json(&rec.to_json()).expect("round trip");
        assert_eq!(back, rec);
    }
}
