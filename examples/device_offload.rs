//! Heterogeneous offload through the device execution backend: the
//! Table 3 cells end to end (paper §4.2, §5.2).
//!
//! ```text
//! cargo run --release --example device_offload
//! ```
//!
//! The m-dipole benchmark is driven through [`pic_device::DeviceExecutor`]
//! on both modeled GPUs, for both particle layouts and both field
//! scenarios, and the modeled NSPS is printed beside the paper's
//! published Table 3 numbers and a real host measurement of the same
//! kernel. A final parity pass proves the offloaded trajectories are
//! bitwise identical to the host fast path — the portability claim the
//! paper demonstrates with DPC++, made checkable.

use pic_bench::{measure_device_nsps, BenchConfig};
use pic_particles::{Layout, ParticleAccess, SoaEnsemble};
use pic_perfmodel::report::PAPER_TABLE3;
use pic_perfmodel::Scenario;
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::{
    build_ensemble, run_device_steps, run_mdipole_steps, KernelVariant, MdipoleScenario,
};

/// Paper Table 3 cell (NSPS, float) for one scenario × layout × device
/// column (1 = P630, 2 = Iris Xe Max).
fn paper_cell(scenario: Scenario, layout: Layout, col: usize) -> f64 {
    PAPER_TABLE3
        .iter()
        .find(|(s, l, _)| *s == scenario && *l == layout)
        .map_or(f64::NAN, |(_, _, v)| v[col])
}

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "Table 3 through the device backend ({} particles, {} launches per cell):",
        cfg.particles, cfg.iterations
    );
    println!();
    println!(
        "{:<22} {:<8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "Scenario", "Pattern", "host", "warmup", "P630", "(paper)", "Iris", "(paper)"
    );

    for scenario in Scenario::all() {
        for layout in [Layout::Aos, Layout::Soa] {
            // Real host measurement of the same kernel, for scale.
            let host = pic_bench::measure_nsps_variant::<f32>(
                layout,
                scenario,
                &cfg,
                &Topology::single(1),
                Schedule::StaticChunks,
                KernelVariant::SoaFast,
            );
            let p630 = measure_device_nsps::<f32>(layout, scenario, &cfg, ExecTarget::P630);
            let iris = measure_device_nsps::<f32>(layout, scenario, &cfg, ExecTarget::IrisXeMax);
            println!(
                "{:<22} {:<8} {:>7.2} {:>7.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                scenario.name(),
                layout.name(),
                host.steady_nsps(),
                p630.warmup_nsps(),
                p630.steady_nsps(),
                paper_cell(scenario, layout, 1),
                iris.steady_nsps(),
                paper_cell(scenario, layout, 2),
            );
        }
        // The coalescing gap is the shape Table 3 demonstrates: AoS
        // (uncoalesced device loads) is the larger NSPS on both GPUs.
        let gap = |t| {
            let aos = measure_device_nsps::<f32>(Layout::Aos, scenario, &cfg, t);
            let soa = measure_device_nsps::<f32>(Layout::Soa, scenario, &cfg, t);
            aos.steady_nsps() / soa.steady_nsps()
        };
        println!(
            "{:<22} AoS/SoA coalescing gap: P630 {:.2}x, Iris {:.2}x",
            "", // aligned under the scenario column
            gap(ExecTarget::P630),
            gap(ExecTarget::IrisXeMax),
        );
    }

    // Physics parity: the offloaded run is bitwise the host fast path.
    println!();
    let n = 10_000;
    let steps = 5;
    let mut host_store: SoaEnsemble<f32> = build_ensemble(n, 7);
    let ctx = MdipoleScenario::prepare(Scenario::Analytical, &host_store);
    let mut t_host = 0.0f32;
    run_mdipole_steps(
        &mut host_store,
        &ctx,
        steps,
        &mut t_host,
        &Topology::single(1),
        Schedule::StaticChunks,
        KernelVariant::SoaFast,
        None,
        &mut |_, _| true,
    );
    for target in [ExecTarget::P630, ExecTarget::IrisXeMax] {
        let mut dev_store: SoaEnsemble<f32> = build_ensemble(n, 7);
        let dev_ctx = MdipoleScenario::prepare(Scenario::Analytical, &dev_store);
        let mut t_dev = 0.0f32;
        run_device_steps(
            &mut dev_store,
            &dev_ctx,
            steps,
            &mut t_dev,
            Layout::Soa,
            target,
            None,
            &mut |_, _| true,
        );
        let identical = (0..n).all(|i| host_store.get(i) == dev_store.get(i));
        println!("{target:?}: results bitwise identical to host: {identical}");
        assert!(identical);
    }
    println!();
    println!(
        "every device ran the same kernel on the same data — the first launch pays the \
         ~1.5x JIT penalty (warmup column), and the AoS/SoA gap reproduces the paper's \
         coalescing story."
    );
}
