//! One-shot reproduction driver: prints every *modeled* artifact of the
//! paper (Tables 1–3, Fig. 1 landmarks, the first-iteration profile) in
//! one run, without any measurement — handy for CI and for eyeballing the
//! whole reproduction at once.
//!
//! ```text
//! cargo run --release -p pic-bench --bin reproduce
//! ```
//!
//! With `--emit-metrics` it additionally *measures* the real kernels on
//! this host (every layout × scenario at single precision, under the
//! three paper schedules) and writes the full telemetry to
//! `BENCH_<label>.json` (JSON-lines, one `BenchRecord` per
//! configuration; see EXPERIMENTS.md). `--label <name>` sets the file
//! label (default `host`); workload scale follows `PIC_BENCH_PARTICLES`
//! / `PIC_BENCH_STEPS` / `PIC_BENCH_ITERS`. Feed two such files to the
//! `regress` binary to gate performance changes.
//!
//! `--device <name>` (`p630`, `iris-xe-max`) additionally runs the
//! Table 3 cells through the device execution backend and appends
//! records carrying the `device` dimension — feed the file to the
//! `table3_gate` binary to assert the paper's AoS/SoA coalescing gap
//! and JIT warm-up shape.
//!
//! The measured companions live in the bench targets (`cargo bench`).

use pic_bench::{
    bench_record, device_record, fmt_cell, measure_device_nsps, measure_nsps_variant, print_banner,
    BenchConfig, KernelVariant, Table,
};
use pic_particles::Layout;
use pic_perfmodel::{CpuModel, GpuModel, Parallelization, Precision, Scenario};
use pic_runtime::{ExecTarget, Schedule, Topology};
use std::process::ExitCode;

fn table2() {
    let paper = pic_perfmodel::report::PAPER_TABLE2;
    let m = CpuModel::endeavour();
    print_banner(
        "Table 2 (modeled)",
        "NSPS on 2x Xeon 8260L; paper values in parentheses.",
    );
    let mut t = Table::new([
        "Pattern",
        "Parallelization",
        "P float",
        "P double",
        "A float",
        "A double",
    ]);
    for (layout, par, vals) in paper {
        let c = |s, p, r| fmt_cell(m.table2_cell(s, layout, p, par), r);
        t.row([
            layout.name().to_string(),
            par.name().to_string(),
            c(Scenario::Precalculated, Precision::F32, vals[0]),
            c(Scenario::Precalculated, Precision::F64, vals[1]),
            c(Scenario::Analytical, Precision::F32, vals[2]),
            c(Scenario::Analytical, Precision::F64, vals[3]),
        ]);
    }
    println!("{t}");
}

fn fig1() {
    let m = CpuModel::endeavour();
    print_banner(
        "Fig. 1 (modeled landmarks)",
        "Strong scaling, Precalculated, float.",
    );
    for par in [Parallelization::OpenMp, Parallelization::DpcppNuma] {
        let s = m.speedup_curve(Scenario::Precalculated, Layout::Aos, Precision::F32, par);
        println!(
            "  {par:12}: S(2)={:.2}  S(24)={:.2}  S(48)={:.2}  eff(48)={:.0}%",
            s[1],
            s[23],
            s[47],
            100.0 * s[47] / 48.0
        );
    }
    println!();
}

fn table3() {
    let paper = pic_perfmodel::report::PAPER_TABLE3;
    let cpu = CpuModel::endeavour();
    let p630 = GpuModel::p630();
    let iris = GpuModel::iris_xe_max();
    print_banner(
        "Table 3 (modeled)",
        "GPU NSPS, float; paper values in parentheses.",
    );
    let mut t = Table::new(["Scenario", "Pattern", "CPU", "P630", "Iris Xe Max"]);
    for (scenario, layout, v) in paper {
        t.row([
            scenario.to_string(),
            layout.to_string(),
            fmt_cell(
                cpu.table2_cell(scenario, layout, Precision::F32, Parallelization::DpcppNuma),
                v[0],
            ),
            fmt_cell(p630.nsps_f32(scenario, layout), v[1]),
            fmt_cell(iris.nsps_f32(scenario, layout), v[2]),
        ]);
    }
    println!("{t}");
}

fn warmup() {
    print_banner(
        "§5.3 first-iteration profile (modeled)",
        "JIT + cold memory factor.",
    );
    for gpu in GpuModel::paper_devices() {
        let p = gpu.iteration_profile(Scenario::Precalculated, Layout::Soa, 10);
        println!(
            "  {:12}: it1/steady = {:.2}x, amortized over 10 iterations = {:.1}%",
            gpu.spec.name,
            p[0] / p[9],
            100.0 * (p.iter().sum::<f64>() / 10.0 / p[9] - 1.0)
        );
    }
    println!();
}

/// Measures every layout × scenario cell at single precision under the
/// three paper schedules with the blocked kernel, adds scalar-oracle
/// baseline runs on the SoA cells so the `kernel_variant` field
/// distinguishes implementations, and writes `BENCH_<label>.json`.
fn emit_metrics(label: &str, device: ExecTarget) -> std::io::Result<std::path::PathBuf> {
    let cfg = BenchConfig::from_env();
    let threads = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(8);
    // Split the threads over two pseudo-domains so the NUMA schedule is
    // exercised even on single-socket hosts.
    let topology = if threads >= 2 {
        Topology::uniform(2, threads / 2)
    } else {
        Topology::single(1)
    };
    let schedules = [
        Schedule::StaticChunks,
        Schedule::dynamic(),
        Schedule::numa(),
    ];
    let mut records = Vec::new();
    print_banner(
        "Measured metrics",
        "Real kernels on this host; steady-state NSPS per configuration.",
    );
    let mut measure_one = |layout, scenario, schedule, variant| {
        let run = measure_nsps_variant::<f32>(layout, scenario, &cfg, &topology, schedule, variant);
        let rec = bench_record(
            label,
            layout,
            scenario,
            Precision::F32,
            schedule,
            variant,
            &topology,
            &cfg,
            &run,
        );
        println!(
            "  {:<4} {:<20} {:<10} {:<8} steady {:8.2} ns  warmup {:8.2} ns  imbalance {:.3}  order {:.2}",
            rec.layout,
            rec.scenario,
            rec.schedule,
            rec.kernel_variant,
            rec.steady_nsps,
            rec.warmup_nsps,
            rec.imbalance,
            rec.order_fraction,
        );
        records.push(rec);
    };
    for layout in [Layout::Aos, Layout::Soa] {
        for scenario in Scenario::all() {
            for schedule in schedules {
                measure_one(layout, scenario, schedule, KernelVariant::SoaFast);
            }
        }
    }
    // Baseline for the blocked-kernel comparison: same SoA cells, dynamic
    // schedule, driven by the scalar oracle.
    for scenario in Scenario::all() {
        measure_one(
            Layout::Soa,
            scenario,
            Schedule::dynamic(),
            KernelVariant::Scalar,
        );
    }
    // Device-backend lane: the Table 3 cells for the selected device
    // (both layouts × both scenarios, single precision), each from a
    // cold executor so the first launch pays the JIT factor. These
    // records carry the additive `device` dimension the Table 3 gate
    // consumes.
    if !device.is_host() {
        for layout in [Layout::Aos, Layout::Soa] {
            for scenario in Scenario::all() {
                let run = measure_device_nsps::<f32>(layout, scenario, &cfg, device);
                let rec =
                    device_record(label, layout, scenario, Precision::F32, device, &cfg, &run);
                println!(
                    "  {:<4} {:<20} {:<10} {:<8} steady {:8.2} ns  warmup {:8.2} ns  device {}",
                    rec.layout,
                    rec.scenario,
                    rec.schedule,
                    rec.kernel_variant,
                    rec.steady_nsps,
                    rec.warmup_nsps,
                    rec.device,
                );
                records.push(rec);
            }
        }
    }
    let path = std::path::PathBuf::from(format!("BENCH_{label}.json"));
    pic_telemetry::write_records(&path, &records)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut emit = false;
    let mut label = String::from("host");
    let mut device = ExecTarget::Host;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--emit-metrics" => emit = true,
            "--label" => match it.next() {
                Some(l) => label = l.clone(),
                None => {
                    eprintln!("--label requires a value");
                    return ExitCode::from(2);
                }
            },
            "--device" => match it.next().map(|d| ExecTarget::parse(d)) {
                Some(Some(t)) => device = t,
                Some(None) => {
                    eprintln!(
                        "unknown device (expected one of: {})",
                        ExecTarget::all().map(|t| t.name()).join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--device requires a name");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: reproduce [--emit-metrics] [--label <name>] [--device <name>]");
                return ExitCode::from(2);
            }
        }
    }

    println!("Reproduction of: Volokitin et al., \"High Performance Implementation of");
    println!("Boris Particle Pusher on DPC++. A First Look at oneAPI\", PACT 2021.");
    table2();
    fig1();
    table3();
    warmup();
    let f = pic_perfmodel::fidelity(&pic_perfmodel::default_report());
    println!(
        "Aggregate fidelity over all {} published cells: mean |deviation| = {:.1}%, worst = {:.1}%.",
        f.cells,
        100.0 * f.mean_abs_deviation,
        100.0 * f.worst_abs_deviation
    );
    println!("Measured companions: cargo bench -p pic-bench (see EXPERIMENTS.md).");

    if emit {
        match emit_metrics(&label, device) {
            Ok(path) => println!("Telemetry written to {}.", path.display()),
            Err(e) => {
                eprintln!("failed to write metrics: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
