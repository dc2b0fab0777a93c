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
//!
//! The harness only times runs: the runner it times, the seeded
//! ensembles and a record's identity are `pic-sim`'s, shared with the
//! job service.

#![warn(missing_docs)]

pub mod config;
pub mod device_measure;
pub mod emit;
pub mod measure;
pub mod table;

pub use config::BenchConfig;
pub use device_measure::{device_record, measure_device_nsps, DeviceMeasuredRun};
pub use emit::bench_record;
pub use measure::{bench_grid, measure_nsps, measure_nsps_variant, MeasuredRun};
// The runner's names as `benchmark/` imports them from this crate. The
// line goes with ROADMAP item 5's benchmark PR, which points those
// imports at `pic_sim` (as `ServeConfig::pinned` waits for it).
pub use pic_sim::{
    build_ensemble, build_ensemble_range, dipole_wave, run_device_steps, run_mdipole_steps,
    KernelVariant, MdipoleScenario,
};
pub use table::{fmt_cell, print_banner, Table};
