//! Host-vs-device bitwise parity, exhaustively: every execution target
//! × layout × precision × scenario produces exactly the trajectories of
//! the host SoA fast path.
//!
//! This is the load-bearing guarantee of the hardware-substitution
//! design (DESIGN.md §2): the device backend changes *where* the kernel
//! notionally runs and *how* its time is reported, never *what* it
//! computes — so Table 3 records describe the same physics as Table 2
//! records, and a `device` job's checkpoints and cached dumps interop
//! with host runs bit for bit.

use pic_math::Real;
use pic_particles::{AosEnsemble, Layout, ParticleAccess, ParticleStore, SoaEnsemble};
use pic_perfmodel::Scenario;
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::{
    build_ensemble, run_device_steps, run_mdipole_steps, KernelVariant, MdipoleScenario,
};

const PARTICLES: usize = 120;
const STEPS: usize = 5;
const SEED: u64 = 99;

fn host_reference<R: Real, S: ParticleStore<R>>(scenario: Scenario) -> (S, R) {
    let mut store: S = build_ensemble(PARTICLES, SEED);
    let ctx = MdipoleScenario::prepare(scenario, &store);
    let mut time = R::ZERO;
    run_mdipole_steps(
        &mut store,
        &ctx,
        STEPS,
        &mut time,
        &Topology::single(1),
        Schedule::StaticChunks,
        KernelVariant::SoaFast,
        None,
        &mut |_, _| true,
    );
    (store, time)
}

fn device_run<R: Real, S: ParticleStore<R>>(
    scenario: Scenario,
    layout: Layout,
    target: ExecTarget,
) -> (S, R) {
    let mut store: S = build_ensemble(PARTICLES, SEED);
    let ctx = MdipoleScenario::prepare(scenario, &store);
    let mut time = R::ZERO;
    let run = run_device_steps(
        &mut store,
        &ctx,
        STEPS,
        &mut time,
        layout,
        target,
        None,
        &mut |_, _| true,
    );
    assert_eq!(run.steps_done, STEPS);
    assert!(!run.interrupted);
    (store, time)
}

fn check_matrix<R: Real + std::fmt::Debug>() {
    for scenario in Scenario::all() {
        for target in ExecTarget::all() {
            // SoA store.
            let (reference, ref_time) = host_reference::<R, SoaEnsemble<R>>(scenario);
            let (store, time) = device_run::<R, SoaEnsemble<R>>(scenario, Layout::Soa, target);
            assert_eq!(time, ref_time, "{scenario} {target:?} SoA clock");
            for i in 0..PARTICLES {
                assert_eq!(
                    store.get(i),
                    reference.get(i),
                    "{scenario} {target:?} SoA particle {i}"
                );
            }
            // AoS store: the device stages the same columns, so it must
            // match the host reference too.
            let (reference, _) = host_reference::<R, AosEnsemble<R>>(scenario);
            let (store, _) = device_run::<R, AosEnsemble<R>>(scenario, Layout::Aos, target);
            for i in 0..PARTICLES {
                assert_eq!(
                    store.get(i),
                    reference.get(i),
                    "{scenario} {target:?} AoS particle {i}"
                );
            }
        }
    }
}

#[test]
fn device_parity_holds_across_the_full_matrix_f32() {
    check_matrix::<f32>();
}

#[test]
fn device_parity_holds_across_the_full_matrix_f64() {
    check_matrix::<f64>();
}
