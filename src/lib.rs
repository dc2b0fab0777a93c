//! Facade crate of the Boris-pusher oneAPI reproduction.
//!
//! This package exists to host the repository's runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`). The
//! library surface simply re-exports the workspace crates:
//!
//! * [`pic_math`] — `FP`/`FP3` analogues, constants, special functions.
//! * [`pic_particles`] — AoS/SoA ensembles and the proxy abstraction.
//! * [`pic_fields`] — analytical and precalculated field sources.
//! * [`pic_boris`] — the Boris pusher, its scalar oracle and the blocked SoA kernel.
//! * [`pic_runtime`] — static/dynamic/NUMA-domain parallel sweeps.
//! * [`pic_perfmodel`] — performance models of the paper's platforms.
//! * [`pic_device`] — the SYCL-like device/executor/USM layer.
//! * [`pic_bench`] — the NSPS benchmark harness.

#![forbid(unsafe_code)]
pub use pic_bench;
pub use pic_boris;
pub use pic_device;
pub use pic_fields;
pub use pic_math;
pub use pic_particles;
pub use pic_perfmodel;
pub use pic_runtime;
