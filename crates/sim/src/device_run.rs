//! The device-backend m-dipole runner: the same benchmark physics as
//! [`crate::run`], executed through [`pic_device::DeviceExecutor`].
//!
//! The contract is bitwise parity with the host runner: a device run
//! stages the particle columns through USM, launches the *same*
//! `SoaBorisKernel` with the *same* `dt`/`time` sequence, and writes the
//! columns back — so trajectories are identical to
//! [`crate::run_mdipole_steps`] with [`crate::KernelVariant::SoaFast`],
//! while the reported time comes from the GPU roofline model (Table 3
//! reproduction; hardware substitution per DESIGN.md §2).

use crate::run::MdipoleScenario;
use crate::scenario::bench_dt;
use pic_boris::{FieldSource, PrecalculatedSource, SoaBorisKernel};
use pic_device::{Device, DeviceExecutor, Event, StagedEnsemble, SweepProfile};
use pic_math::Real;
use pic_particles::{Layout, ParticleAccess, SpeciesTable};
use pic_perfmodel::{GpuModel, Precision, Scenario};
use pic_runtime::{CancelToken, ExecTarget};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_mdipole_steps, KernelVariant};
    use crate::scenario::build_ensemble;
    use pic_particles::SoaEnsemble;
    use pic_runtime::{Schedule, Topology};

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
