//! Mathematical foundations for the Boris-pusher reproduction.
//!
//! This crate provides the pieces of numerical infrastructure that the
//! paper's Hi-Chi C++ code gets from its `FP`/`FP3` abstractions:
//!
//! * [`Real`] — a floating-point abstraction over `f32`/`f64`, the analogue
//!   of the paper's `FP` typedef that lets the whole stack switch between
//!   single and double precision (paper §3).
//! * [`Vec3`] — a 3-component vector (the paper's `FP3`).
//! * [`constants`] — Gaussian (CGS) physical constants used by Hi-Chi.
//! * [`decimal`] — shortest round-trip float text without `core::fmt`,
//!   sixteen values at a time as lane code: the text of every particle
//!   dump (`{:e}` is its test oracle).
//! * [`special`] — the dipole-wave radial functions f₁, f₂, f₃ of Eq. (15),
//!   with series expansions that stay accurate near the focus.
//! * [`splitmix`] — the SplitMix64 mix behind counter-keyed draws.
//! * [`stats`] — summary statistics used by the benchmark harness.
//!
//! # Example
//!
//! ```
//! use pic_math::{Real, Vec3};
//!
//! fn lorentz_gamma<R: Real>(p_over_mc: Vec3<R>) -> R {
//!     (R::ONE + p_over_mc.norm2()).sqrt()
//! }
//!
//! let g = lorentz_gamma(Vec3::new(3.0_f64, 0.0, 0.0));
//! assert!((g - 10.0f64.sqrt()).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod constants;
pub mod decimal;
pub mod real;
pub mod special;
pub mod splitmix;
pub mod stats;
pub mod vector;

pub use real::Real;
pub use vector::Vec3;
