//! The one generator of the paper's artefacts. One run prints every
//! modeled artefact of the evaluation: Table 1 (the hardware rows the
//! models take as input), Table 2, the Fig. 1 strong-scaling series,
//! Table 3 with its AoS/SoA ratios and the §5.3 first-iteration profile,
//! each modeled cell next to the paper's published value.
//!
//! ```text
//! cargo run --release -p pic-bench --bin reproduce
//! ```
//!
//! With `--emit-metrics` it additionally *measures* the real kernels on
//! this host (every layout × scenario × precision under the three paper
//! schedules, plus the scalar-oracle baseline on the SoA cells at both
//! precisions) and writes the full telemetry to `BENCH_<label>.json`
//! (JSON-lines, one `BenchRecord` per configuration; see
//! EXPERIMENTS.md). `--label <name>` sets the file label (default
//! `host`); workload scale follows `PIC_BENCH_PARTICLES` /
//! `PIC_BENCH_STEPS` / `PIC_BENCH_ITERS`. Feed two such files to the
//! `regress` binary to gate performance changes.
//!
//! `--device <name>` (`p630`, `iris-xe-max`) additionally runs the
//! Table 3 cells through the device execution backend and appends
//! records carrying the `device` dimension — feed the file to the
//! `table3_gate` binary to assert the paper's AoS/SoA coalescing gap
//! and JIT warm-up shape.

use pic_bench::{
    bench_record, device_record, fmt_cell, measure_device_nsps, measure_nsps_variant, print_banner,
    BenchConfig, Table,
};
use pic_particles::Layout;
use pic_perfmodel::{CpuModel, CpuSpec, GpuModel, GpuSpec, Parallelization, Precision, Scenario};
use pic_runtime::{ExecTarget, Schedule, Topology};
use pic_sim::KernelVariant;
use pic_telemetry::BenchRecord;
use std::process::ExitCode;

fn table1() {
    print_banner(
        "Table 1 (model inputs)",
        "Hardware parameters of the paper's platforms; they drive every model below.",
    );
    let ghz = |hz: f64| format!("{:.2} GHz", hz / 1e9);
    let tflops = |flops: f64| format!("{:.3} TFlops", flops / 1e12);
    let gbs = |bytes: f64| format!("{:.0} GB/s", bytes / 1e9);
    let cpu = CpuSpec::xeon_8260l_x2();
    let gpus = [GpuSpec::uhd_p630(), GpuSpec::iris_xe_max()];
    let mut t = Table::new(["Parameter", "2x Xeon 8260L", "P630", "Iris Xe Max"]);
    // One row: its name, the CPU's value, and how a GPU's is read.
    let mut row = |name: &str, cpu: String, gpu: &dyn Fn(&GpuSpec) -> String| {
        t.row([name.to_string(), cpu, gpu(&gpus[0]), gpu(&gpus[1])]);
    };
    let cores = cpu.total_cores().to_string();
    row("CPU cores / GPU EUs", cores, &|g| {
        g.execution_units.to_string()
    });
    row("Clock (base)", ghz(cpu.base_clock), &|g| ghz(g.base_clock));
    row("Clock (boost)", ghz(cpu.boost_clock), &|g| {
        ghz(g.boost_clock)
    });
    let peak = tflops(cpu.peak_flops_f32());
    row("Peak FP32", peak, &|g| tflops(g.peak_flops_f32));
    let bw = gbs(2.0 * cpu.bw_per_socket);
    row("Memory bandwidth", bw, &|g| gbs(g.mem_bandwidth));
    let fp64 = |g: &GpuSpec| {
        if g.fp64_emulated {
            "emulated"
        } else {
            "native"
        }
    };
    row("FP64", "native".to_string(), &|g| fp64(g).to_string());
    println!("{t}");
    println!(
        "Paper Table 1: 3.6 / 0.441 / 2.5 TFlops single precision, same cores/EUs and clocks;"
    );
    println!("the P630 shares the host's DDR4, the Iris Xe Max has its own LPDDR4X.");
}

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
        "Fig. 1 (modeled)",
        "Strong scaling, Precalculated, float: speedup over each curve's own 1-core run.",
    );
    let curves = [
        (Parallelization::OpenMp, Layout::Aos),
        (Parallelization::OpenMp, Layout::Soa),
        (Parallelization::DpcppNuma, Layout::Aos),
        (Parallelization::DpcppNuma, Layout::Soa),
    ]
    .map(|(par, layout)| {
        let s = m.speedup_curve(Scenario::Precalculated, layout, Precision::F32, par);
        (format!("{par} {layout}"), s)
    });
    let mut t = Table::new(
        ["cores".to_string()]
            .into_iter()
            .chain(curves.iter().map(|(n, _)| n.clone())),
    );
    for cores in [1usize, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48] {
        t.row(
            [cores.to_string()]
                .into_iter()
                .chain(curves.iter().map(|(_, s)| format!("{:.2}", s[cores - 1]))),
        );
    }
    println!("{t}");
    let eff: Vec<String> = curves
        .iter()
        .map(|(n, s)| format!("{n} {:.0}%", 100.0 * s[47] / 48.0))
        .collect();
    println!("  eff(48): {} (paper: DPC++ NUMA ~63%)", eff.join(", "));
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
    let gap = |gpu: &GpuModel, s| gpu.nsps_f32(s, Layout::Aos) / gpu.nsps_f32(s, Layout::Soa);
    for scenario in Scenario::all() {
        println!(
            "  {scenario}: AoS/SoA = {:.2}x on P630, {:.2}x on Iris Xe Max",
            gap(&p630, scenario),
            gap(&iris, scenario),
        );
    }
    println!();
}

fn warmup() {
    print_banner(
        "§5.3 first-iteration profile (modeled)",
        "Per-iteration NSPS, Precalculated SoA; iteration 1 pays JIT + cold memory.",
    );
    let mut t = Table::new([
        "Device",
        "it1",
        "it2",
        "it3",
        "it10",
        "it1/steady",
        "amortized over 10",
    ]);
    for gpu in GpuModel::paper_devices() {
        let p = gpu.iteration_profile(Scenario::Precalculated, Layout::Soa, 10);
        t.row([
            gpu.spec.name.to_string(),
            format!("{:.2}", p[0]),
            format!("{:.2}", p[1]),
            format!("{:.2}", p[2]),
            format!("{:.2}", p[9]),
            format!("{:.2}x", p[0] / p[9]),
            format!(
                "+{:.1}%",
                100.0 * (p.iter().sum::<f64>() / 10.0 / p[9] - 1.0)
            ),
        ]);
    }
    println!("{t}");
}

/// Prints one measured record: its identity, steady and first-iteration
/// NSPS, then the load balance of a host sweep or the device's name.
fn print_record(r: &BenchRecord) {
    let tail = if r.device.is_empty() {
        format!("imbalance {:.3}", r.imbalance)
    } else {
        format!("device {}", r.device)
    };
    println!(
        "  {:<4} {:<20} {:<6} {:<10} {:<8} steady {:8.2} ns  warmup {:8.2} ns  {tail}",
        r.layout,
        r.scenario,
        r.precision,
        r.schedule,
        r.kernel_variant,
        r.steady_nsps,
        r.warmup_nsps,
    );
}

/// Measures every layout × scenario × precision cell under the three
/// paper schedules with the blocked kernel, adds scalar-oracle baseline
/// runs on the SoA cells at both precisions so the `kernel_variant`
/// field distinguishes implementations, and writes `BENCH_<label>.json`.
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
    let mut measure_one = |layout, scenario, precision, schedule, variant| {
        let run = match precision {
            Precision::F32 => {
                measure_nsps_variant::<f32>(layout, scenario, &cfg, &topology, schedule, variant)
            }
            Precision::F64 => {
                measure_nsps_variant::<f64>(layout, scenario, &cfg, &topology, schedule, variant)
            }
        };
        let rec = bench_record(
            label, layout, scenario, precision, schedule, variant, &topology, &cfg, &run,
        );
        print_record(&rec);
        records.push(rec);
    };
    for precision in [Precision::F32, Precision::F64] {
        for layout in [Layout::Aos, Layout::Soa] {
            for scenario in Scenario::all() {
                for schedule in schedules {
                    measure_one(
                        layout,
                        scenario,
                        precision,
                        schedule,
                        KernelVariant::SoaFast,
                    );
                }
            }
        }
        // Baseline for the blocked-kernel comparison: same SoA cells,
        // dynamic schedule, driven by the scalar oracle.
        for scenario in Scenario::all() {
            measure_one(
                Layout::Soa,
                scenario,
                precision,
                Schedule::dynamic(),
                KernelVariant::Scalar,
            );
        }
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
                print_record(&rec);
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
    table1();
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
