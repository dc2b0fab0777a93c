//! The field-sampling abstraction shared by all sources.

use pic_math::{Real, Vec3};

/// An electromagnetic field value at a point: the pair (**E**, **B**) in
/// CGS units (statvolt/cm for both).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EB<R> {
    /// Electric field.
    pub e: Vec3<R>,
    /// Magnetic field.
    pub b: Vec3<R>,
}

impl<R: Real> EB<R> {
    /// A zero field.
    pub fn zero() -> EB<R> {
        EB {
            e: Vec3::zero(),
            b: Vec3::zero(),
        }
    }

    /// Creates a field value from its two vectors.
    pub fn new(e: Vec3<R>, b: Vec3<R>) -> EB<R> {
        EB { e, b }
    }

    /// The six components in column order (see [`EbSlices`]).
    #[inline(always)]
    pub fn to_array(&self) -> [R; FIELD_COLUMNS] {
        [self.e.x, self.e.y, self.e.z, self.b.x, self.b.y, self.b.z]
    }

    /// The inverse of [`to_array`](Self::to_array).
    #[inline(always)]
    pub fn from_array([ex, ey, ez, bx, by, bz]: [R; FIELD_COLUMNS]) -> EB<R> {
        EB::new(Vec3::new(ex, ey, ez), Vec3::new(bx, by, bz))
    }

    /// Electromagnetic energy density (E² + B²)/8π, erg/cm³.
    pub fn energy_density(&self) -> R {
        (self.e.norm2() + self.b.norm2()) / (R::from_f64(8.0) * R::PI)
    }
}

/// A source of electromagnetic field values, sampled at a position and
/// time — the "Analytical Fields" side of the paper's benchmark.
///
/// Implementations must be `Send + Sync`: the parallel runtime samples the
/// same source concurrently from many worker threads.
pub trait FieldSampler<R: Real>: Send + Sync {
    /// Returns (**E**, **B**) at position `pos` (cm) and time `time` (s).
    fn sample(&self, pos: Vec3<R>, time: R) -> EB<R>;
}

/// A sampler can be shared by reference.
impl<R: Real, S: FieldSampler<R> + ?Sized> FieldSampler<R> for &S {
    fn sample(&self, pos: Vec3<R>, time: R) -> EB<R> {
        (**self).sample(pos, time)
    }
}

/// Number of field component columns: E then B, x y z each. This file
/// is the one place the six are listed — [`EbSlices`]' fields,
/// [`EbSlices::from_columns`]/[`as_columns_mut`](EbSlices::as_columns_mut) and
/// [`EB::to_array`]/[`EB::from_array`]; field tables, their staged copies
/// and the block copies hold a `[_; FIELD_COLUMNS]` in that order.
pub const FIELD_COLUMNS: usize = 6;

/// `[f(c0), f(c1), …]` over six component columns, in order. Written out
/// rather than `array::map`, which does not reliably inline under
/// per-particle lookups.
#[inline(always)]
pub fn map_components<A, B>(
    cols: [A; FIELD_COLUMNS],
    mut f: impl FnMut(A) -> B,
) -> [B; FIELD_COLUMNS] {
    let [c0, c1, c2, c3, c4, c5] = cols;
    [f(c0), f(c1), f(c2), f(c3), f(c4), f(c5)]
}

/// Destination slices for one lane-block of field values, one component
/// per slice (structure-of-arrays, mirroring `SoaEnsemble`).
///
/// All six slices must have the same length as the position slices
/// passed alongside them; batch samplers write every element.
pub struct EbSlices<'a, R> {
    /// Electric field x components.
    pub ex: &'a mut [R],
    /// Electric field y components.
    pub ey: &'a mut [R],
    /// Electric field z components.
    pub ez: &'a mut [R],
    /// Magnetic field x components.
    pub bx: &'a mut [R],
    /// Magnetic field y components.
    pub by: &'a mut [R],
    /// Magnetic field z components.
    pub bz: &'a mut [R],
}

impl<'a, R: Real> EbSlices<'a, R> {
    /// Names six columns given in [`EB::to_array`] order.
    #[inline(always)]
    pub fn from_columns([ex, ey, ez, bx, by, bz]: [&'a mut [R]; FIELD_COLUMNS]) -> Self {
        EbSlices {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        }
    }

    /// The six slices in [`EB::to_array`] order.
    #[inline(always)]
    pub fn as_columns_mut(&mut self) -> [&mut [R]; FIELD_COLUMNS] {
        [
            &mut *self.ex,
            &mut *self.ey,
            &mut *self.ez,
            &mut *self.bx,
            &mut *self.by,
            &mut *self.bz,
        ]
    }

    /// Writes the field value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the end of a slice.
    #[inline(always)]
    pub fn write_lane(&mut self, i: usize, f: EB<R>) {
        // bounds: callers pass `i` below the common slice length.
        for (col, v) in self.as_columns_mut().into_iter().zip(f.to_array()) {
            col[i] = v;
        }
    }
}

/// Extension of [`FieldSampler`] that fills a whole lane-block of field
/// values per call, so the hot sweep loop can evaluate fields as
/// vectorizable component loops instead of one [`EB`] at a time.
///
/// The default implementation loops over [`FieldSampler::sample`] and is
/// bitwise-identical to per-particle sampling by construction; samplers
/// with a profitable straight-line form (the analytical m-dipole)
/// override it with hoisted, per-lane component loops that keep the
/// exact same arithmetic order per element.
pub trait BatchSampler<R: Real>: FieldSampler<R> {
    /// Samples the field at `(xs[i], ys[i], zs[i], time)` for every `i`
    /// and writes the components into `out`.
    fn sample_into(&self, xs: &[R], ys: &[R], zs: &[R], time: R, out: &mut EbSlices<'_, R>) {
        // bounds: the runtime slices xs/ys/zs and every EbSlices lane to the
        // same chunk length, so `i < xs.len()` indexes all of them in range.
        for i in 0..xs.len() {
            out.write_lane(i, self.sample(Vec3::new(xs[i], ys[i], zs[i]), time));
        }
    }
}

/// A batch sampler can be shared by reference.
impl<R: Real, S: BatchSampler<R> + ?Sized> BatchSampler<R> for &S {
    fn sample_into(&self, xs: &[R], ys: &[R], zs: &[R], time: R, out: &mut EbSlices<'_, R>) {
        (**self).sample_into(xs, ys, zs, time, out)
    }
}

// A uniform field has no profitable straight-line form and keeps the
// per-point default; with it the `BatchSampler` universe is closed over
// every in-crate `FieldSampler`.
impl<R: Real> BatchSampler<R> for crate::uniform::UniformFields<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_density_of_unit_fields() {
        let f = EB::<f64>::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let expect = 2.0 / (8.0 * std::f64::consts::PI);
        assert!((f.energy_density() - expect).abs() < 1e-15);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(EB::<f32>::zero(), EB::default());
        assert_eq!(EB::<f32>::zero().energy_density(), 0.0);
    }

    #[test]
    fn sampler_usable_through_reference() {
        struct Constant;
        impl FieldSampler<f64> for Constant {
            fn sample(&self, _: Vec3<f64>, _: f64) -> EB<f64> {
                EB::new(Vec3::splat(1.0), Vec3::zero())
            }
        }
        fn total_e<S: FieldSampler<f64>>(s: S) -> f64 {
            s.sample(Vec3::zero(), 0.0).e.norm2()
        }
        let c = Constant;
        assert_eq!(total_e(&c), 3.0);
        assert_eq!(total_e(&c), 3.0); // still owned by caller
    }

    #[test]
    fn default_batch_sampling_matches_per_point() {
        struct Linear;
        impl FieldSampler<f64> for Linear {
            fn sample(&self, pos: Vec3<f64>, time: f64) -> EB<f64> {
                EB::new(pos * 2.0, Vec3::new(time, -pos.y, pos.z * pos.x))
            }
        }
        impl BatchSampler<f64> for Linear {}
        let xs = [0.5, -1.0, 3.25];
        let ys = [2.0, 0.0, -0.125];
        let zs = [-4.0, 1.5, 0.75];
        let mut cols = [[0.0; 3]; FIELD_COLUMNS];
        let mut out = EbSlices::from_columns(cols.each_mut().map(|c| &mut c[..]));
        Linear.sample_into(&xs, &ys, &zs, 0.25, &mut out);
        for i in 0..3 {
            let f = Linear.sample(Vec3::new(xs[i], ys[i], zs[i]), 0.25);
            assert_eq!(EB::from_array(cols.map(|c| c[i])), f);
        }
    }
}
