//! Performance models of the paper's evaluation platforms.
//!
//! The reproduction environment has no 2×24-core NUMA Xeon node and no
//! Intel GPUs, so the *performance* side of the paper's Tables 2–3 and
//! Fig. 1 is regenerated by first-order analytic models (DESIGN.md §2):
//!
//! * [`specs`] — the hardware parameters of Table 1, encoded as data.
//! * [`cost`] — per-particle byte/flop cost descriptors of the Boris
//!   kernel for each scenario × layout × precision, derived from the data
//!   structures of the real Rust kernel.
//! * [`cpu`] — a roofline + scheduling + NUMA-locality model of the CPU
//!   platform: NSPS for OpenMP / DPC++ / DPC++ NUMA (Table 2) and the
//!   strong-scaling curve (Fig. 1).
//! * [`gpu`] — a roofline + coalescing model of the Intel GPUs (Table 3)
//!   including the first-launch JIT penalty (§5.3).
//!
//! The models execute no particle code; the *functional* kernels they
//! describe are the real ones in `pic-boris`, and the byte counts in
//! [`cost`] are asserted against those data structures in integration
//! tests. Calibration constants (memory efficiency, vector efficiency,
//! coalescing factors) are documented at their definition sites; the test
//! suite checks every modeled cell against the paper's published value
//! within a ±35 % band plus all the qualitative orderings the paper's
//! conclusions rest on.

#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod gpu;
pub mod report;
pub mod roofline;
pub mod specs;

pub use cost::{KernelCost, Precision, Scenario};
pub use cpu::{CpuModel, Parallelization};
pub use gpu::GpuModel;
pub use report::{default_report, fidelity, Cell, Fidelity};
pub use roofline::{Bound, Roofline};
pub use specs::{CpuSpec, GpuSpec};
