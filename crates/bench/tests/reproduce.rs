//! `reproduce` is the one printer of the paper's artefacts: every
//! modeled cell is on its stdout, in the row it belongs to, and
//! `--emit-metrics` measures every configuration at both precisions.

use pic_bench::{fmt_cell, KernelVariant};
use pic_particles::Layout;
use pic_perfmodel::report::{PAPER_TABLE2, PAPER_TABLE3};
use pic_perfmodel::{CpuModel, CpuSpec, GpuModel, GpuSpec, Parallelization, Precision, Scenario};
use pic_runtime::Schedule;
use pic_telemetry::read_records;
use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// Asserts some line of `text` starts with `parts[0]` (after its
/// indent) and holds the other parts after it, in this order.
fn assert_row(text: &str, parts: &[String]) {
    let found = text.lines().any(|line| {
        let mut rest = line.trim_start();
        parts
            .iter()
            .enumerate()
            .all(|(n, p)| match rest.find(p.as_str()) {
                Some(i) if n > 0 || i == 0 => {
                    rest = &rest[i + p.len()..];
                    true
                }
                _ => false,
            })
    });
    assert!(found, "no line holds {parts:?} in order:\n{text}");
}

#[test]
fn every_modeled_cell_is_printed() {
    let out = reproduce().output().expect("reproduce runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    // Table 1: the cores / EUs and peak FP32 rows, from the spec structs.
    let cpu = CpuSpec::xeon_8260l_x2();
    let [p630, iris] = [GpuSpec::uhd_p630(), GpuSpec::iris_xe_max()];
    let cores = [
        cpu.total_cores(),
        p630.execution_units,
        iris.execution_units,
    ];
    let peaks = [
        cpu.peak_flops_f32(),
        p630.peak_flops_f32,
        iris.peak_flops_f32,
    ];
    let mut row = vec!["CPU cores / GPU EUs".to_string()];
    row.extend(cores.map(|n| n.to_string()));
    assert_row(&stdout, &row);
    let mut row = vec!["Peak FP32".to_string()];
    row.extend(peaks.map(|f| format!("{:.3} TFlops", f / 1e12)));
    assert_row(&stdout, &row);

    // Table 2: all 24 published cells, each in its row.
    let model = CpuModel::endeavour();
    let columns = [
        (Scenario::Precalculated, Precision::F32),
        (Scenario::Precalculated, Precision::F64),
        (Scenario::Analytical, Precision::F32),
        (Scenario::Analytical, Precision::F64),
    ];
    for (layout, par, paper) in PAPER_TABLE2 {
        let mut row = vec![layout.name().to_string(), par.name().to_string()];
        for ((scenario, precision), reference) in columns.into_iter().zip(paper) {
            let cell = model.table2_cell(scenario, layout, precision, par);
            row.push(fmt_cell(cell, reference));
        }
        assert_row(&stdout, &row);
    }

    // Table 3: all 12 published cells, each in its row.
    let [p630_model, iris_model] = [GpuModel::p630(), GpuModel::iris_xe_max()];
    for (scenario, layout, paper) in PAPER_TABLE3 {
        let host = model.table2_cell(scenario, layout, Precision::F32, Parallelization::DpcppNuma);
        assert_row(
            &stdout,
            &[
                scenario.to_string(),
                layout.to_string(),
                fmt_cell(host, paper[0]),
                fmt_cell(p630_model.nsps_f32(scenario, layout), paper[1]),
                fmt_cell(iris_model.nsps_f32(scenario, layout), paper[2]),
            ],
        );
    }

    // Table 3: the modeled AoS/SoA gap of each scenario on each GPU.
    for scenario in Scenario::all() {
        let gap = |gpu: &GpuModel| {
            let r = gpu.nsps_f32(scenario, Layout::Aos) / gpu.nsps_f32(scenario, Layout::Soa);
            format!("{r:.2}x")
        };
        let row = [
            format!("{scenario}: AoS/SoA"),
            gap(&p630_model),
            gap(&iris_model),
        ];
        assert_row(&stdout, &row);
    }

    // Fig. 1: the whole series of all four curves, one row per core count.
    let curves: Vec<Vec<f64>> = [Parallelization::OpenMp, Parallelization::DpcppNuma]
        .into_iter()
        .flat_map(|par| [Layout::Aos, Layout::Soa].map(|layout| (par, layout)))
        .map(|(par, layout)| {
            model.speedup_curve(Scenario::Precalculated, layout, Precision::F32, par)
        })
        .collect();
    for cores in [1usize, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48] {
        let mut row = vec![format!("{cores} ")];
        row.extend(curves.iter().map(|s| format!("{:.2}", s[cores - 1])));
        assert_row(&stdout, &row);
    }

    // §5.3: the first-iteration profile of each device.
    for gpu in GpuModel::paper_devices() {
        let p = gpu.iteration_profile(Scenario::Precalculated, Layout::Soa, 10);
        let mut row = vec![gpu.spec.name.to_string()];
        row.extend([p[0], p[1], p[2], p[9]].map(|v| format!("{v:.2}")));
        assert_row(&stdout, &row);
    }
}

#[test]
fn emit_metrics_measures_both_precisions() {
    let dir = std::env::temp_dir().join(format!("pic_bench_emit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = reproduce()
        .args(["--emit-metrics", "--label", "t"])
        .current_dir(&dir)
        .env("PIC_BENCH_PARTICLES", "2000")
        .env("PIC_BENCH_STEPS", "2")
        .env("PIC_BENCH_ITERS", "2")
        .output()
        .expect("reproduce runs");
    let records = read_records(&dir.join("BENCH_t.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    let records = records.expect("BENCH_t.json is readable");

    let mut got: Vec<String> = records
        .iter()
        .map(|r| {
            assert!(r.device.is_empty() && r.particles == 2000 && r.steady_nsps > 0.0);
            [
                &r.layout,
                &r.scenario,
                &r.precision,
                &r.schedule,
                &r.kernel_variant,
            ]
            .map(String::as_str)
            .join("|")
        })
        .collect();
    let schedules = [
        Schedule::StaticChunks,
        Schedule::dynamic(),
        Schedule::numa(),
    ];
    let mut want = Vec::new();
    for precision in [Precision::F32, Precision::F64] {
        for scenario in Scenario::all() {
            let mut cell = |layout: Layout, schedule: Schedule, variant: KernelVariant| {
                let key = [
                    layout.name(),
                    scenario.name(),
                    precision.name(),
                    schedule.paper_name(),
                    variant.name(),
                ];
                want.push(key.join("|"));
            };
            for layout in [Layout::Aos, Layout::Soa] {
                for schedule in schedules {
                    cell(layout, schedule, KernelVariant::SoaFast);
                }
            }
            cell(Layout::Soa, Schedule::dynamic(), KernelVariant::Scalar);
        }
    }
    got.sort();
    want.sort();
    assert_eq!(got, want);
}
