//! Regenerates **Table 3**: NSPS of the DPC++ code on Intel GPUs (UHD
//! P630, Iris Xe Max) vs the CPU, AoS and SoA, single precision.
//!
//! The GPU cells come from the GPU roofline/coalescing model (no Intel
//! GPU exists in this environment — DESIGN.md §2); the CPU column is the
//! DPC++ NUMA cell of the CPU model, exactly as the paper compares. A
//! second section demonstrates the `pic-device` executor path: the same
//! kernel is *functionally executed* through `measure_device_nsps` on
//! each simulated device and the modeled event times are reported.

use pic_bench::{measure_device_nsps, print_banner, BenchConfig, Table};
use pic_particles::Layout;
use pic_perfmodel::{CpuModel, GpuModel, Parallelization, Precision, Scenario};
use pic_runtime::ExecTarget;

/// Paper Table 3 values (single source of truth in `pic-perfmodel`).
const PAPER: [(Scenario, Layout, [f64; 3]); 4] = pic_perfmodel::report::PAPER_TABLE3;

fn modeled_section() {
    let cpu = CpuModel::endeavour();
    let p630 = GpuModel::p630();
    let iris = GpuModel::iris_xe_max();
    print_banner(
        "Table 3 — modeled NSPS on GPUs (single precision)",
        "GPU cells: roofline + coalescing model; CPU column: DPC++ NUMA cell of\n\
         the CPU model (as the paper compares). Paper values in parentheses.",
    );
    let mut t = Table::new(["Scenario", "Pattern", "CPU", "P630", "Iris Xe Max"]);
    for (scenario, layout, paper) in PAPER {
        let cpu_v = cpu.table2_cell(scenario, layout, Precision::F32, Parallelization::DpcppNuma);
        t.row([
            scenario.to_string(),
            layout.to_string(),
            pic_bench::fmt_cell(cpu_v, paper[0]),
            pic_bench::fmt_cell(p630.nsps_f32(scenario, layout), paper[1]),
            pic_bench::fmt_cell(iris.nsps_f32(scenario, layout), paper[2]),
        ]);
    }
    println!("{t}");
    println!("Shape checks:");
    for scenario in Scenario::all() {
        let ratio_p = p630.nsps_f32(scenario, Layout::Aos) / p630.nsps_f32(scenario, Layout::Soa);
        let ratio_i = iris.nsps_f32(scenario, Layout::Aos) / iris.nsps_f32(scenario, Layout::Soa);
        println!(
            "  {scenario}: AoS/SoA = {ratio_p:.2}x on P630, {ratio_i:.2}x on Iris \
             (paper: ~2x / ~1.5x)"
        );
    }
}

fn executor_section() {
    print_banner(
        "Table 3 (companion) — same kernel through the pic-device executor",
        "Functional execution of the real Boris kernel on each simulated device;\n\
         events report the modeled device time (steady state, after JIT warm-up).",
    );
    // One warm-up launch (JIT), then a steady-state one.
    let cfg = BenchConfig {
        particles: 20_000,
        steps_per_iteration: 1,
        iterations: 2,
    };
    let mut t = Table::new(["Device", "modeled NSPS (Analytical, SoA)", "launches"]);
    for target in [ExecTarget::P630, ExecTarget::IrisXeMax] {
        let run = measure_device_nsps::<f32>(Layout::Soa, Scenario::Analytical, &cfg, target);
        t.row([
            run.events[1].device.clone(),
            format!("{:.2}", run.steady_nsps()),
            run.events.len().to_string(),
        ]);
    }
    println!("{t}");
}

fn main() {
    modeled_section();
    executor_section();
}
