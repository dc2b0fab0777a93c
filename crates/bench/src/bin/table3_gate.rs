//! Table 3 shape gate.
//!
//! Reads one `BENCH_*.json` file produced by `reproduce --emit-metrics
//! --device <name>` and asserts the device-backend records reproduce the
//! *shape* of the paper's Table 3 (single precision, GPU columns):
//!
//! * **Coalescing gap** — for every (device, scenario) pair, AoS steady
//!   NSPS must exceed SoA steady NSPS by at least
//!   `max(1.4, paper_gap × (1 − tolerance))`, where `paper_gap` is the
//!   AoS/SoA ratio of the published Table 3 cells (NSPS is time per
//!   particle-step, so the AoS layout — uncoalesced on the device — is
//!   the *larger* number). A pair missing either layout, or a device
//!   with no Table 3 column, fails: its gap was not checked.
//! * **JIT warm-up** — every device record's first iteration must run
//!   ~50% slower than steady state (§5.3): warmup/steady in 1.5 ± 0.1.
//!
//! ```text
//! cargo run --release -p pic-bench --bin table3_gate -- \
//!     BENCH_dev.json [--tolerance 0.25]
//! ```
//!
//! Exit codes: 0 = shape reproduced, 1 = gate failed, 2 = usage or I/O
//! error (including a file with no device records at all).

use pic_particles::Layout;
use pic_perfmodel::report::PAPER_TABLE3;
use pic_perfmodel::Scenario;
use pic_telemetry::{read_records, BenchRecord};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: table3_gate <bench.json> [--tolerance <fraction>]";

/// The published AoS/SoA NSPS ratio for one device column of Table 3.
/// `device` is the record-dimension name; column 1 = P630, 2 = Iris.
fn paper_gap(device: &str, scenario: Scenario) -> Option<f64> {
    let col = match device {
        "p630" => 1,
        "iris-xe-max" => 2,
        _ => return None,
    };
    let cell = |layout: Layout| {
        PAPER_TABLE3
            .iter()
            .find(|(s, l, _)| *s == scenario && *l == layout)
            .map(|(_, _, v)| v[col])
    };
    Some(cell(Layout::Aos)? / cell(Layout::Soa)?)
}

fn steady(
    records: &[BenchRecord],
    device: &str,
    scenario: Scenario,
    layout: Layout,
) -> Option<f64> {
    records
        .iter()
        .find(|r| {
            r.device == device
                && r.scenario == scenario.name()
                && r.layout == layout.name()
                && r.precision == "float"
        })
        .map(|r| r.steady_nsps)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                tolerance = match it.next().map(|v| v.parse::<f64>()) {
                    Some(Ok(t)) if (0.0..1.0).contains(&t) => t,
                    _ => {
                        eprintln!("--tolerance requires a fraction in [0, 1)\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => file = Some(other.to_string()),
        }
    }
    let Some(path) = file else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let records = match read_records(Path::new(&path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut devices: Vec<&str> = records
        .iter()
        .filter(|r| !r.device.is_empty())
        .map(|r| r.device.as_str())
        .collect();
    devices.sort_unstable();
    devices.dedup();
    if devices.is_empty() {
        eprintln!("{path}: no device-dimension records (run reproduce --emit-metrics --device)");
        return ExitCode::from(2);
    }

    let mut failures = 0;
    println!("Table 3 shape gate ({path}, tolerance {tolerance:.2}):");

    // Coalescing gap per device × scenario.
    for device in &devices {
        for scenario in Scenario::all() {
            let (Some(aos), Some(soa), Some(paper)) = (
                steady(&records, device, scenario, Layout::Aos),
                steady(&records, device, scenario, Layout::Soa),
                paper_gap(device, scenario),
            ) else {
                println!(
                    "  {device:12} {scenario:20}: a layout or the Table 3 column is missing FAIL"
                );
                failures += 1;
                continue;
            };
            let gap = aos / soa;
            let floor = (paper * (1.0 - tolerance)).max(1.4);
            let ok = gap >= floor;
            println!(
                "  {device:12} {scenario:20}: AoS/SoA = {gap:.2} (paper {paper:.2}, floor {floor:.2}) {}",
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures += 1;
            }
        }
    }

    // JIT warm-up per device record.
    for r in records.iter().filter(|r| !r.device.is_empty()) {
        if r.steady_nsps <= 0.0 {
            println!("  {}: non-positive steady NSPS FAIL", r.key());
            failures += 1;
            continue;
        }
        let ratio = r.warmup_nsps / r.steady_nsps;
        let ok = (ratio - 1.5).abs() <= 0.1;
        if !ok {
            println!(
                "  {}: warmup/steady = {ratio:.3}, expected 1.5 +/- 0.1 FAIL",
                r.key()
            );
            failures += 1;
        }
    }

    if failures == 0 {
        println!("Table 3 shape reproduced.");
        ExitCode::SUCCESS
    } else {
        println!("{failures} gate check(s) failed.");
        ExitCode::from(1)
    }
}
