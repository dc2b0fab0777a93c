//! Benchmark harness regenerating the paper's evaluation (§5).
//!
//! Three binaries, one job each:
//!
//! | Binary        | Job                                                        |
//! |---------------|------------------------------------------------------------|
//! | `reproduce`   | prints every artefact — Table 1, Table 2, the Fig. 1 series, Table 3, the §5.3 first-iteration profile; `--emit-metrics` measures the real kernels (layout × scenario × precision × schedule) into `BENCH_<label>.json` |
//! | `regress`     | compares two `BENCH_*.json` files, exit 1 on a slowdown     |
//! | `table3_gate` | asserts the Table 3 shape of a `--device` emit             |
//!
//! Because the evaluation hardware (2×24-core Xeon, Intel GPUs) is not
//! available here, `reproduce` prints **(a)** the performance-model
//! prediction next to the paper's published number and, with
//! `--emit-metrics`, **(b)** real measured wall-clock numbers for the
//! functional Rust kernels on this host, as records. The model
//! regenerates the paper's *shape*; the measurements ground the
//! functional code. See DESIGN.md §2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device_run;
pub mod emit;
pub mod measure;
pub mod run;
pub mod scenario;
pub mod table;

pub use device_run::{
    device_record, gpu_model_of, measure_device_nsps, precision_of, run_device_steps,
    DeviceMeasuredRun, DeviceRun,
};
pub use emit::{bench_record, parallelization_of, RecordSubject};
pub use measure::{bench_grid, measure_nsps, measure_nsps_variant, MeasuredRun};
pub use run::{merge_thread_stats, run_mdipole_steps, KernelVariant, MdipoleRun, MdipoleScenario};
pub use scenario::{
    append_ensemble_range, bench_dt, build_ensemble, build_ensemble_range, dipole_wave, BenchConfig,
};
pub use table::{fmt_cell, print_banner, Table};
