//! Electromagnetic field sources for the Boris-pusher reproduction.
//!
//! The paper's two benchmark scenarios (§5.2) differ only in where the
//! field values come from:
//!
//! * **Analytical Fields** — evaluated from closed formulas at each
//!   particle position; here the standing m-dipole wave of Eq. (14)
//!   ([`dipole::DipoleStandingWave`]) plus simpler sources (uniform,
//!   crossed) used by tests and examples.
//! * **Precalculated Fields** — loaded from a per-particle array
//!   ([`precalc::PrecalculatedFields`]) computed once in advance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dipole;
pub mod precalc;
pub mod sampler;
pub mod uniform;

pub use dipole::DipoleStandingWave;
pub use precalc::PrecalculatedFields;
pub use sampler::{map_components, BatchSampler, EbSlices, FieldSampler, EB, FIELD_COLUMNS};
pub use uniform::UniformFields;
