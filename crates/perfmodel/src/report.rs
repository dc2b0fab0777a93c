//! The reproduction report: every modeled cell next to its published
//! value, as data.
//!
//! `pic-bench`'s `reproduce` prints these tables; tests assert aggregate
//! fidelity (mean absolute deviation, worst cell); downstream code can
//! query any cell programmatically instead of re-parsing that output.

use crate::cost::{Precision, Scenario};
use crate::cpu::{CpuModel, Parallelization};
use crate::gpu::GpuModel;
use pic_particles::Layout;

/// One modeled-vs-published cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Human-readable cell label, e.g. `"AoS/OpenMP/Precalculated/float"`.
    pub label: String,
    /// Modeled NSPS.
    pub modeled: f64,
    /// Published NSPS.
    pub paper: f64,
}

impl Cell {
    /// Signed relative deviation `(modeled − paper)/paper`.
    pub fn deviation(&self) -> f64 {
        (self.modeled - self.paper) / self.paper
    }
}

/// The paper's published Table 2, row-major
/// (layout, parallelization) → [P f32, P f64, A f32, A f64].
pub const PAPER_TABLE2: [(Layout, Parallelization, [f64; 4]); 6] = [
    (
        Layout::Aos,
        Parallelization::OpenMp,
        [0.53, 0.98, 0.58, 0.84],
    ),
    (
        Layout::Aos,
        Parallelization::Dpcpp,
        [0.78, 1.54, 1.02, 1.48],
    ),
    (
        Layout::Aos,
        Parallelization::DpcppNuma,
        [0.54, 0.99, 0.54, 0.89],
    ),
    (
        Layout::Soa,
        Parallelization::OpenMp,
        [0.50, 1.06, 0.43, 0.76],
    ),
    (
        Layout::Soa,
        Parallelization::Dpcpp,
        [0.85, 1.49, 0.77, 1.31],
    ),
    (
        Layout::Soa,
        Parallelization::DpcppNuma,
        [0.58, 1.20, 0.60, 0.90],
    ),
];

/// The paper's published Table 3 (single precision):
/// (scenario, layout) → [CPU, P630, Iris Xe Max].
pub const PAPER_TABLE3: [(Scenario, Layout, [f64; 3]); 4] = [
    (Scenario::Precalculated, Layout::Aos, [0.54, 4.76, 2.10]),
    (Scenario::Precalculated, Layout::Soa, [0.58, 2.43, 1.42]),
    (Scenario::Analytical, Layout::Aos, [0.54, 4.45, 2.10]),
    (Scenario::Analytical, Layout::Soa, [0.60, 1.93, 1.00]),
];

/// Computes every Table 2 cell from the CPU model.
pub fn table2_cells(model: &CpuModel) -> Vec<Cell> {
    let mut out = Vec::with_capacity(24);
    for (layout, par, vals) in PAPER_TABLE2 {
        let configs = [
            (Scenario::Precalculated, Precision::F32, vals[0]),
            (Scenario::Precalculated, Precision::F64, vals[1]),
            (Scenario::Analytical, Precision::F32, vals[2]),
            (Scenario::Analytical, Precision::F64, vals[3]),
        ];
        for (scenario, prec, paper) in configs {
            out.push(Cell {
                label: format!("{layout}/{par}/{scenario}/{prec}"),
                modeled: model.table2_cell(scenario, layout, prec, par),
                paper,
            });
        }
    }
    out
}

/// Computes every Table 3 cell (CPU column from the CPU model's DPC++ NUMA
/// row, GPU columns from the device models).
pub fn table3_cells(cpu: &CpuModel, p630: &GpuModel, iris: &GpuModel) -> Vec<Cell> {
    let mut out = Vec::with_capacity(12);
    for (scenario, layout, vals) in PAPER_TABLE3 {
        out.push(Cell {
            label: format!("T3 CPU/{scenario}/{layout}"),
            modeled: cpu.table2_cell(scenario, layout, Precision::F32, Parallelization::DpcppNuma),
            paper: vals[0],
        });
        out.push(Cell {
            label: format!("T3 P630/{scenario}/{layout}"),
            modeled: p630.nsps_f32(scenario, layout),
            paper: vals[1],
        });
        out.push(Cell {
            label: format!("T3 Iris/{scenario}/{layout}"),
            modeled: iris.nsps_f32(scenario, layout),
            paper: vals[2],
        });
    }
    out
}

/// Aggregate fidelity of a cell set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fidelity {
    /// Mean |deviation| across cells.
    pub mean_abs_deviation: f64,
    /// Worst |deviation|.
    pub worst_abs_deviation: f64,
    /// Number of cells.
    pub cells: usize,
}

/// Summarizes a cell set.
///
/// # Panics
///
/// Panics if `cells` is empty.
pub fn fidelity(cells: &[Cell]) -> Fidelity {
    assert!(!cells.is_empty(), "fidelity: no cells");
    let devs: Vec<f64> = cells.iter().map(|c| c.deviation().abs()).collect();
    Fidelity {
        mean_abs_deviation: devs.iter().sum::<f64>() / devs.len() as f64,
        worst_abs_deviation: devs.iter().cloned().fold(0.0, f64::max),
        cells: cells.len(),
    }
}

/// The full default reproduction report (both tables, default models).
pub fn default_report() -> Vec<Cell> {
    let cpu = CpuModel::endeavour();
    let mut cells = table2_cells(&cpu);
    cells.extend(table3_cells(
        &cpu,
        &GpuModel::p630(),
        &GpuModel::iris_xe_max(),
    ));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_cells() {
        let cells = default_report();
        assert_eq!(cells.len(), 24 + 12);
        // Labels are unique.
        let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 36);
    }

    #[test]
    fn aggregate_fidelity_is_tight() {
        // The headline number of the whole reproduction: across all 36
        // published cells, one calibration lands within 11% on average and
        // 25% worst-case.
        let f = fidelity(&default_report());
        assert!(
            f.mean_abs_deviation < 0.12,
            "mean |dev| = {:.3}",
            f.mean_abs_deviation
        );
        assert!(
            f.worst_abs_deviation < 0.30,
            "worst |dev| = {:.3}",
            f.worst_abs_deviation
        );
        assert_eq!(f.cells, 36);
    }

    #[test]
    fn table2_fidelity_alone() {
        let f = fidelity(&table2_cells(&CpuModel::endeavour()));
        assert_eq!(f.cells, 24);
        assert!(f.mean_abs_deviation < 0.12);
    }

    #[test]
    fn deviation_signs_are_meaningful() {
        let c = Cell {
            label: "x".into(),
            modeled: 1.1,
            paper: 1.0,
        };
        assert!((c.deviation() - 0.1).abs() < 1e-12);
        let c2 = Cell {
            label: "y".into(),
            modeled: 0.9,
            paper: 1.0,
        };
        assert!(c2.deviation() < 0.0);
    }

    #[test]
    #[should_panic(expected = "no cells")]
    fn empty_fidelity_panics() {
        let _ = fidelity(&[]);
    }
}
