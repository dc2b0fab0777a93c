//! Relativistic particle pushers — the computational core the paper ports
//! to DPC++.
//!
//! The crate implements the conventional **Boris** scheme (paper §2,
//! Eqs. 6–13) over the layout-agnostic [`pic_particles::ParticleView`]
//! proxy so one kernel serves both AoS and SoA ensembles:
//!
//! * [`BorisPusher`] — half electric kick, exact-|p| magnetic rotation,
//!   half electric kick, leapfrog position update.
//! * [`PushKernel`] — binds a pusher to a field source and species table,
//!   ready for [`pic_particles::ParticleAccess::for_each_mut`] or the
//!   parallel runtime.
//! * [`kernel::FieldSource`] — per-particle field lookup: analytical
//!   sampling (scenario 2) or precalculated arrays (scenario 1).
//! * [`soa_boris`] — the production kernel: an explicitly blocked (16-wide)
//!   Boris update mirroring the AVX-512 vectorization of the paper's C++
//!   loop, run directly over SoA component slices or, on AoS stores, over
//!   blocks transposed into block-local columns. [`PushKernel`] with
//!   [`BorisPusher`] stays as the scalar oracle it is tested against.
//! * [`diag`] — ensemble diagnostics (kinetic energy, mean γ, …).
//!
//! # Example: one gyration step
//!
//! ```
//! use pic_boris::{BorisPusher, Pusher};
//! use pic_fields::EB;
//! use pic_math::Vec3;
//! use pic_particles::{Particle, Species, SpeciesTable};
//!
//! let species = Species::<f64>::electron();
//! let mut p = Particle::at_rest(Vec3::zero(), 1.0, SpeciesTable::<f64>::ELECTRON);
//! let field = EB::new(Vec3::new(1.0, 0.0, 0.0), Vec3::zero());
//! BorisPusher.push(&mut p, &field, &species, 1.0e-12);
//! // qE·dt of momentum gained (q < 0 for the electron).
//! assert!(p.momentum.x < 0.0);
//! assert!(p.gamma > 1.0);
//! ```

#![warn(missing_docs)]

pub mod boris;
pub mod diag;
pub mod kernel;
pub mod pusher;
pub mod soa_boris;

pub use boris::BorisPusher;
pub use kernel::{
    AnalyticalSource, FieldSource, PrecalculatedSource, PushKernel, SharedPushKernel,
};
pub use pusher::{OpTally, Pusher};
pub use soa_boris::SoaBorisKernel;
