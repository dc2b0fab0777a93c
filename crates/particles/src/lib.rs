//! Particle data structures for the Boris-pusher reproduction.
//!
//! The paper (§3) describes the Hi-Chi particle representation and the two
//! ensemble layouts it compares:
//!
//! * [`Particle`] — the per-particle record: position, momentum, weight,
//!   Lorentz γ and a species index (the paper's `short type`).
//! * [`SpeciesTable`] — the single-copy table of per-type mass/charge.
//! * [`AosEnsemble`] — *array of structures* layout.
//! * [`SoaEnsemble`] — *structure of arrays* layout.
//! * [`ParticleView`] — the proxy abstraction (paper's `ParticleProxy`)
//!   that lets one generic kernel run over either layout.
//! * [`columns`] — the column schema: the one declaration of the
//!   particle attributes in column form ([`ParticleColumns`]), which the
//!   SoA store, its chunks, the kernel's blocks, the device staging and
//!   the [`ColumnSegment`] all instantiate.
//! * [`init`] — initial distributions (the benchmark's uniform sphere of
//!   electrons at rest and its sharded range form).
//! * [`sort`] — Morton sorting for cache locality (paper §3 notes Hi-Chi
//!   stores one global array and "periodically sorts" it).
//!
//! # Example
//!
//! ```
//! use pic_particles::{AosEnsemble, ParticleAccess, SpeciesTable};
//! use pic_particles::init::{self, SphereDist};
//! use pic_math::Vec3;
//!
//! let mut ens = AosEnsemble::<f64>::new();
//! init::fill_sphere_at_rest(
//!     &mut ens,
//!     1000,
//!     &SphereDist { center: Vec3::zero(), radius: 1.0e-4 },
//!     1.0,
//!     SpeciesTable::<f64>::ELECTRON,
//!     42,
//! );
//! assert_eq!(ens.len(), 1000);
//! assert!(ens.get(0).position.norm() <= 1.0e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aos;
pub mod columns;
pub mod init;
pub mod io;
pub mod particle;
pub mod soa;
pub mod sort;
pub mod species;
pub mod view;

pub use aos::{AosChunkMut, AosEnsemble};
pub use columns::{ColumnsMut, ColumnsRef, ParticleColumns, SoaRefMut};
pub use io::ColumnSegment;
pub use particle::Particle;
pub use soa::{SoaChunkMut, SoaEnsemble, SoaStore};
pub use species::{Species, SpeciesId, SpeciesTable};
pub use view::{DynKernel, Layout, ParticleAccess, ParticleKernel, ParticleStore, ParticleView};
