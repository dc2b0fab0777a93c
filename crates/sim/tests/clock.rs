//! One owner of simulation time: `time_after(k)` is, bit for bit, the
//! clock a k-step run of either runner leaves behind — the value a
//! resumed job restarts its clock from.

use pic_math::Real;
use pic_particles::{Layout, SoaEnsemble};
use pic_perfmodel::Scenario;
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::{
    build_ensemble, run_device_steps, run_mdipole_steps, time_after, KernelVariant, MdipoleScenario,
};

fn check<R: Real>() {
    let mut store: SoaEnsemble<R> = build_ensemble(8, 3);
    let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
    for k in 0..=40 {
        let want = time_after::<R>(k).to_f64().to_bits();
        let mut host = R::ZERO;
        run_mdipole_steps(
            &mut store,
            &ctx,
            k,
            &mut host,
            &Topology::single(1),
            Schedule::StaticChunks,
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        assert_eq!(host.to_f64().to_bits(), want, "host, {k} steps");
        let mut device = R::ZERO;
        run_device_steps(
            &mut store,
            &ctx,
            k,
            &mut device,
            Layout::Soa,
            ExecTarget::P630,
            None,
            &mut |_, _| true,
        );
        assert_eq!(device.to_f64().to_bits(), want, "device, {k} steps");
    }
}

#[test]
fn time_after_is_the_runners_clock_f32() {
    check::<f32>();
}

#[test]
fn time_after_is_the_runners_clock_f64() {
    check::<f64>();
}
