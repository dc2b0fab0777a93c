//! Benchmark harness regenerating the paper's evaluation (§5).
//!
//! Each table/figure has a bench target (run `cargo bench -p pic-bench`):
//!
//! | Target            | Paper artifact                                   |
//! |-------------------|--------------------------------------------------|
//! | `table1`          | Table 1 — hardware parameters (model inputs)     |
//! | `table2`          | Table 2 — CPU NSPS, 6 implementations × 2 scenarios × 2 precisions |
//! | `fig1`            | Fig. 1 — strong scaling 1–48 cores               |
//! | `table3`          | Table 3 — GPU NSPS vs CPU, single precision      |
//! | `first_iteration` | §5.3 — first-iteration JIT/warm-up overhead      |
//! | `schedule_sim`    | ablation — simulated static/dynamic/guided policies under load imbalance (§4.3) |
//! | `kernel_micro`    | criterion micro-benchmarks of the push kernel    |
//!
//! `cargo run -p pic-bench --bin reproduce` prints all modeled artifacts
//! in one shot.
//!
//! Because the evaluation hardware (2×24-core Xeon, Intel GPUs) is not
//! available here, each target prints **(a)** the performance-model
//! prediction next to the paper's published number and **(b)** real
//! measured wall-clock numbers for the functional Rust kernels on this
//! host, clearly labeled. The model regenerates the paper's *shape*; the
//! measurements ground the functional code. See DESIGN.md §2.

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
