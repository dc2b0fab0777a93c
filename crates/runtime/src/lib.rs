//! Parallel runtime reproducing the paper's three parallelization modes.
//!
//! The paper compares (§4, §5.3):
//!
//! * **OpenMP** — `#pragma omp parallel for` with static scheduling:
//!   contiguous iteration blocks, one per thread →
//!   [`Schedule::StaticChunks`].
//! * **DPC++** — TBB-backed dynamic scheduling over the whole iteration
//!   space → [`Schedule::Dynamic`].
//! * **DPC++ NUMA** (`DPCPP_CPU_PLACES=numa_domains`) — the iteration space
//!   is divided into NUMA domains and dynamic scheduling happens only
//!   *within* each domain's arena → [`Schedule::NumaDomains`].
//!
//! [`parallel_sweep`] applies a [`pic_particles::ParticleKernel`] factory
//! to every particle of an ensemble under the chosen schedule, using real
//! scoped threads: the queued schedules split the range into grains up
//! front, and workers claim them one at a time under a mutex. On the
//! two-vCPU container this validates *correctness* of every mode; the
//! *performance* shapes of the paper's 48-core platform are regenerated
//! by the `pic-perfmodel` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod schedule;
pub mod sweep;
pub mod sync;
pub mod target;
pub mod topology;

pub use cancel::CancelToken;
pub use schedule::Schedule;
pub use sweep::{
    imbalance_of, on_static_split, parallel_sweep, static_chunk_len, SweepReport, ThreadReport,
};
pub use target::ExecTarget;
pub use topology::Topology;
