//! The Table 3 gate's verdicts on hand-written record files: a complete
//! device file passes, a file that lacks a layout or names a device with
//! no Table 3 column fails (its gap was never checked), and a file with
//! no device records is a usage error.

use pic_particles::Layout;
use pic_perfmodel::report::PAPER_TABLE3;
use pic_perfmodel::Scenario;
use pic_telemetry::{write_records, BenchRecord, SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::Command;

/// An Iris Xe Max record at the paper's own Table 3 cell, first
/// iteration 1.5 × steady state (§5.3).
fn iris(scenario: Scenario, layout: Layout) -> BenchRecord {
    let (_, _, cells) = PAPER_TABLE3
        .into_iter()
        .find(|(s, l, _)| *s == scenario && *l == layout)
        .expect("Table 3 has every scenario x layout cell");
    BenchRecord {
        schema: SCHEMA_VERSION,
        label: "gate".to_string(),
        layout: layout.name().to_string(),
        scenario: scenario.name().to_string(),
        precision: "float".to_string(),
        device: "iris-xe-max".to_string(),
        steady_nsps: cells[2],
        warmup_nsps: 1.5 * cells[2],
        ..BenchRecord::default()
    }
}

/// Writes `records` to a fresh file and returns the gate's exit code.
fn gate(name: &str, records: &[BenchRecord]) -> i32 {
    let dir = std::env::temp_dir().join(format!("pic_bench_gate_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path: PathBuf = dir.join("BENCH_gate.json");
    write_records(&path, records).expect("records written");
    let out = Command::new(env!("CARGO_BIN_EXE_table3_gate"))
        .arg(&path)
        .output()
        .expect("table3_gate runs");
    let _ = std::fs::remove_dir_all(&dir);
    out.status.code().expect("exit code")
}

#[test]
fn a_complete_device_file_passes() {
    let records: Vec<BenchRecord> = Scenario::all()
        .into_iter()
        .flat_map(|s| [iris(s, Layout::Aos), iris(s, Layout::Soa)])
        .collect();
    assert_eq!(records.len(), 4);
    assert_eq!(gate("complete", &records), 0);
}

#[test]
fn a_file_with_an_unchecked_gap_fails() {
    let aos_only = Scenario::all().map(|s| iris(s, Layout::Aos));
    assert_eq!(gate("aos_only", &aos_only), 1);
    let no_column = [Layout::Aos, Layout::Soa].map(|layout| BenchRecord {
        device: "fpga".to_string(),
        ..iris(Scenario::Analytical, layout)
    });
    assert_eq!(gate("no_column", &no_column), 1);
}

#[test]
fn a_file_without_device_records_is_a_usage_error() {
    let host = BenchRecord {
        device: String::new(),
        ..iris(Scenario::Analytical, Layout::Soa)
    };
    assert_eq!(gate("host_only", &[host]), 2);
}
