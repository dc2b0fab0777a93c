//! The device-backend m-dipole runner: the same benchmark physics as
//! [`crate::run`], executed through [`pic_device::DeviceExecutor`].
//!
//! The contract is bitwise parity with the host runner: a device run
//! stages the particle columns through USM, launches the *same*
//! `SoaBorisKernel` with the *same* `dt`/`time` sequence, and writes the
//! columns back — so trajectories are identical to
//! [`crate::run_mdipole_steps`] with [`KernelVariant::SoaFast`], while
//! the reported time comes from the GPU roofline model (Table 3
//! reproduction; hardware substitution per DESIGN.md §2).
//!
//! Measurement semantics differ from the host harness in one deliberate
//! way: on a device, one kernel launch *is* one measured iteration (the
//! paper's GPU protocol times individual `parallel_for` submissions), so
//! device records carry `steps_per_iteration = 1` and the first
//! iteration pays exactly the modeled JIT factor (§5.3).

use crate::emit::RecordSubject;
use crate::measure::bench_grid;
use crate::run::{KernelVariant, MdipoleScenario};
use crate::scenario::{bench_dt, build_ensemble, BenchConfig};
use pic_boris::{FieldSource, PrecalculatedSource, SoaBorisKernel};
use pic_device::{Device, DeviceExecutor, Event, StagedEnsemble, SweepProfile};
use pic_math::stats::Summary;
use pic_math::Real;
use pic_particles::sort::{cell_order_fraction, sort_by_morton};
use pic_particles::{
    AosEnsemble, Layout, ParticleAccess, ParticleStore, SoaEnsemble, SpeciesTable,
};
use pic_perfmodel::{GpuModel, Precision, Scenario};
use pic_runtime::{CancelToken, ExecTarget, Schedule, Topology};
use pic_telemetry::{BenchRecord, ThreadStat};

/// The floating-point precision of `R`, for profiles and records.
pub fn precision_of<R: Real>() -> Precision {
    if R::BYTES == 4 {
        Precision::F32
    } else {
        Precision::F64
    }
}

/// The roofline model for a GPU target, `None` for the host.
pub fn gpu_model_of(target: ExecTarget) -> Option<GpuModel> {
    match target {
        ExecTarget::Host => None,
        ExecTarget::P630 => Some(GpuModel::p630()),
        ExecTarget::IrisXeMax => Some(GpuModel::iris_xe_max()),
    }
}

/// What [`run_device_steps`] actually did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceRun {
    /// One profiling event per completed kernel launch (= per step), in
    /// launch order.
    pub events: Vec<Event>,
    /// Steps fully completed (every particle pushed).
    pub steps_done: usize,
    /// True when the run stopped before `steps` — cancelled, or halted
    /// by the `on_step` callback.
    pub interrupted: bool,
}

impl DeviceRun {
    /// Total reported kernel time over every launch, nanoseconds
    /// (modeled on GPU targets, measured wall time on the host).
    pub fn total_ns(&self) -> f64 {
        self.events.iter().map(Event::time_ns).sum()
    }
}

/// Advances `store` by up to `steps` pusher steps of the m-dipole
/// benchmark through the device backend bound to `target`, starting at
/// simulation time `*time` (advanced in place by one `bench_dt` per
/// completed step, exactly like [`crate::run_mdipole_steps`]).
///
/// The store is staged once, every launch runs over the staged columns,
/// and the columns are written back before returning — also on
/// cancelled/halted runs, so the store always holds `steps_done`
/// completed steps. `cancel` is polled at launch boundaries (a device
/// kernel, once submitted, runs to completion — the in-order queue has
/// no mid-launch preemption). `on_step` runs after each completed
/// launch and returns `false` to stop early.
#[allow(clippy::too_many_arguments)]
pub fn run_device_steps<R: Real, A: ParticleAccess<R>>(
    store: &mut A,
    ctx: &MdipoleScenario<R>,
    steps: usize,
    time: &mut R,
    layout: Layout,
    target: ExecTarget,
    cancel: Option<&CancelToken>,
    on_step: &mut dyn FnMut(usize, &Event) -> bool,
) -> DeviceRun {
    let scenario = match ctx {
        MdipoleScenario::Analytical(_) => Scenario::Analytical,
        MdipoleScenario::Precalculated(_) => Scenario::Precalculated,
    };
    let profile = SweepProfile::new(scenario, layout, precision_of::<R>());
    let mut exec = DeviceExecutor::new(Device::from_target(target));
    let mut staged = exec.stage_ensemble(store);
    let run = match ctx {
        MdipoleScenario::Analytical(source) => drive_device(
            &mut exec,
            &mut staged,
            source,
            steps,
            time,
            profile,
            cancel,
            on_step,
        ),
        MdipoleScenario::Precalculated(pre) => {
            // Stage the field block and read the staged columns in place,
            // so the kernel reads what the device holds. The chunk spans
            // the full store from global index 0, keeping the
            // per-particle field indices aligned.
            let staged_fields = exec.stage_fields(pre);
            let source = PrecalculatedSource::over_columns(staged_fields.columns());
            drive_device(
                &mut exec,
                &mut staged,
                &source,
                steps,
                time,
                profile,
                cancel,
                on_step,
            )
        }
    };
    staged.write_back(store);
    run
}

#[allow(clippy::too_many_arguments)]
fn drive_device<R: Real, F: FieldSource<R>>(
    exec: &mut DeviceExecutor,
    staged: &mut StagedEnsemble<R>,
    source: &F,
    steps: usize,
    time: &mut R,
    profile: SweepProfile,
    cancel: Option<&CancelToken>,
    on_step: &mut dyn FnMut(usize, &Event) -> bool,
) -> DeviceRun {
    let table = SpeciesTable::<R>::with_standard_species();
    let dt = R::from_f64(bench_dt());
    let mut events = Vec::with_capacity(steps);
    let mut steps_done = 0;
    for step in 0..steps {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return DeviceRun {
                events,
                steps_done,
                interrupted: true,
            };
        }
        let kernel = SoaBorisKernel::new(source, &table, dt, *time);
        let event = exec.launch_boris(staged, kernel, profile);
        *time += dt;
        steps_done = step + 1;
        let keep_going = on_step(step, &event);
        events.push(event);
        if !keep_going {
            return DeviceRun {
                events,
                steps_done,
                interrupted: steps_done < steps,
            };
        }
    }
    DeviceRun {
        events,
        steps_done,
        interrupted: false,
    }
}

/// Result of one measured device configuration: one event per iteration
/// (one launch = one iteration on the device protocol).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceMeasuredRun {
    /// The per-launch profiling events, in run order.
    pub events: Vec<Event>,
    /// Particles per launch.
    pub particles: usize,
    /// Fraction of adjacent particle pairs in nondecreasing cell order
    /// at the start of the run (after any locality sort).
    pub order_fraction: f64,
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
    let grid = bench_grid();
    // Same locality discipline as the host fast path: Morton-sort before
    // the Precalculated sampling pass so memory order is access order.
    if scenario == Scenario::Precalculated {
        sort_by_morton(store, &grid);
    }
    let order_fraction = cell_order_fraction(store, &grid);
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
        order_fraction,
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
        order_fraction: run.order_fraction,
        ..subject.record(run.steady_nsps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_mdipole_steps;

    fn host_reference<R: Real>(scenario: Scenario, n: usize, steps: usize) -> SoaEnsemble<R> {
        let mut store: SoaEnsemble<R> = build_ensemble(n, 7);
        let ctx = MdipoleScenario::prepare(scenario, &store);
        let mut time = R::ZERO;
        run_mdipole_steps(
            &mut store,
            &ctx,
            steps,
            &mut time,
            &Topology::single(1),
            Schedule::StaticChunks,
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        store
    }

    #[test]
    fn device_run_is_bitwise_identical_to_the_host_runner() {
        for scenario in Scenario::all() {
            for target in [ExecTarget::Host, ExecTarget::P630] {
                let mut store: SoaEnsemble<f32> = build_ensemble(150, 7);
                let ctx = MdipoleScenario::prepare(scenario, &store);
                let mut time = 0.0f32;
                let run = run_device_steps(
                    &mut store,
                    &ctx,
                    4,
                    &mut time,
                    Layout::Soa,
                    target,
                    None,
                    &mut |_, _| true,
                );
                assert_eq!(run.steps_done, 4);
                assert!(!run.interrupted);
                assert_eq!(run.events.len(), 4);
                let reference = host_reference::<f32>(scenario, 150, 4);
                for i in 0..150 {
                    assert_eq!(store.get(i), reference.get(i), "{scenario} {target} p{i}");
                }
            }
        }
    }

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

    #[test]
    fn cancelled_device_run_leaves_completed_steps_in_the_store() {
        let mut store: SoaEnsemble<f64> = build_ensemble(80, 7);
        let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
        let token = CancelToken::new();
        token.cancel();
        let mut time = 0.0f64;
        let run = run_device_steps(
            &mut store,
            &ctx,
            5,
            &mut time,
            Layout::Soa,
            ExecTarget::P630,
            Some(&token),
            &mut |_, _| true,
        );
        assert_eq!(run.steps_done, 0);
        assert!(run.interrupted);
        assert_eq!(time, 0.0);
        let fresh: SoaEnsemble<f64> = build_ensemble(80, 7);
        for i in 0..80 {
            assert_eq!(store.get(i), fresh.get(i), "particle {i} was pushed");
        }
    }

    #[test]
    fn on_step_false_stops_the_device_run_with_state_written_back() {
        let mut store: SoaEnsemble<f32> = build_ensemble(60, 7);
        let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
        let mut time = 0.0f32;
        let run = run_device_steps(
            &mut store,
            &ctx,
            10,
            &mut time,
            Layout::Soa,
            ExecTarget::IrisXeMax,
            None,
            &mut |step, _| step < 2,
        );
        assert_eq!(run.steps_done, 3, "stops after the step that said no");
        assert!(run.interrupted);
        let reference = host_reference::<f32>(Scenario::Analytical, 60, 3);
        for i in 0..60 {
            assert_eq!(store.get(i), reference.get(i), "particle {i}");
        }
    }
}
