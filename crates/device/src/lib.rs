//! A SYCL/oneAPI-like heterogeneous execution layer (paper §4.2).
//!
//! The paper ports the pusher to DPC++ by (1) allocating particles with
//! Unified Shared Memory, (2) submitting a `parallel_for` kernel to a
//! queue bound to a device, and (3) letting the runtime JIT the kernel for
//! that device at first launch. This crate mirrors those concepts:
//!
//! * [`Device`] — an execution target: the host CPU (timed by wall
//!   clock) or a *simulated* Intel GPU (the kernel executes functionally
//!   on the host; elapsed time is modeled by `pic-perfmodel`, since no
//!   Intel GPU exists in this environment — see DESIGN.md §2).
//! * [`UsmBuffer`] — a unified-shared-memory allocation with explicit
//!   host/device/shared semantics and migration accounting (the model the
//!   paper chose).
//! * [`DeviceExecutor`] — the one execution path: stages particle
//!   columns and field blocks through USM and runs the real blocked
//!   Boris kernel functionally, one in-order launch per step,
//!   returning profiling [`Event`]s timed with the GPU
//!   roofline — including the first-launch JIT penalty the paper
//!   measures (§5.3; Table 3 reproduction). A sharded device job runs
//!   each shard through its own executor; its modeled time is the sum of
//!   the shards' kernel times, as on the paper's one in-order queue.

#![warn(missing_docs)]

pub mod clock;
pub mod device;
pub mod event;
pub mod exec;
pub mod usm;

pub use clock::Stopwatch;
pub use device::{Backend, Device};
pub use event::Event;
pub use exec::{DeviceExecutor, StagedEnsemble, StagedFields, SweepProfile, UsmLedger};
pub use usm::{AllocKind, UsmBuffer};
