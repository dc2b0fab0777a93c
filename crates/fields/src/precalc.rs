//! Per-particle precalculated field arrays — the paper's first benchmark
//! scenario (§5.2: "all field values are precalculated and stored in the
//! corresponding array").
//!
//! The arrays are stored SoA (one column per component), so the memory
//! traffic of the Precalculated scenario matches the paper's description:
//! an extra data array "comparable in size to the ensemble of particles"
//! that must be streamed from RAM on every step. The columns are a
//! `[Vec<R>; FIELD_COLUMNS]` in the order [`crate::sampler`] declares; no
//! component is named in this file.

use crate::sampler::{map_components, EbSlices, FieldSampler, EB, FIELD_COLUMNS};
use pic_math::{Real, Vec3};

/// Precomputed (**E**, **B**) values, one entry per particle.
///
/// # Example
///
/// ```
/// use pic_fields::{PrecalculatedFields, UniformFields};
/// use pic_math::Vec3;
///
/// let src = UniformFields::<f64>::magnetic(Vec3::new(0.0, 0.0, 1.0));
/// let positions = vec![Vec3::zero(), Vec3::splat(1.0)];
/// let pre = PrecalculatedFields::from_sampler(&src, positions.iter().copied(), 0.0);
/// assert_eq!(pre.len(), 2);
/// assert_eq!(pre.get(1).b.z, 1.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrecalculatedFields<R> {
    /// One column per component, in [`EB::to_array`] order.
    cols: [Vec<R>; FIELD_COLUMNS],
}

impl<R: Real> PrecalculatedFields<R> {
    /// Creates an empty array.
    pub fn new() -> PrecalculatedFields<R> {
        PrecalculatedFields::default()
    }

    /// Creates an array of `n` zero field values.
    pub fn zeros(n: usize) -> PrecalculatedFields<R> {
        PrecalculatedFields {
            cols: std::array::from_fn(|_| vec![R::ZERO; n]),
        }
    }

    /// Precomputes field values from `sampler` at the given particle
    /// positions and time — the setup phase of the paper's scenario 1.
    pub fn from_sampler<S, I>(sampler: &S, positions: I, time: R) -> PrecalculatedFields<R>
    where
        S: FieldSampler<R>,
        I: IntoIterator<Item = Vec3<R>>,
    {
        let mut out = PrecalculatedFields::new();
        for pos in positions {
            out.push(sampler.sample(pos, time));
        }
        out
    }

    /// The table's rows as destinations of
    /// [`BatchSampler::sample_into`](crate::BatchSampler::sample_into),
    /// in runs of at most `chunk_len` rows in order: run `i` holds rows
    /// `i·chunk_len ..`. The parts of a fill that samples disjoint ranges,
    /// one block or one thread at a time.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn chunks_mut(&mut self, chunk_len: usize) -> impl Iterator<Item = EbSlices<'_, R>> {
        assert!(chunk_len > 0, "chunks_mut: chunk_len must be positive");
        let n = self.len();
        let mut rest = map_components(self.cols.each_mut(), Vec::as_mut_slice);
        (0..n).step_by(chunk_len).map(move |at| {
            let take = chunk_len.min(n - at);
            EbSlices::from_columns(map_components(rest.each_mut(), |col| {
                let (head, tail) = std::mem::take(col).split_at_mut(take);
                *col = tail;
                head
            }))
        })
    }

    /// Appends one field value.
    pub fn push(&mut self, f: EB<R>) {
        for (col, v) in self.cols.iter_mut().zip(f.to_array()) {
            col.push(v);
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        // bounds: constant index into `[_; FIELD_COLUMNS]`.
        self.cols[0].len()
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Field value for particle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> EB<R> {
        // bounds: all six component columns share `len()`; `i >= len()` is
        // this accessor's documented panic.
        EB::from_array(map_components(self.cols.each_ref(), |c| c[i]))
    }

    /// Overwrites the field value for particle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, f: EB<R>) {
        for (col, v) in self.cols.iter_mut().zip(f.to_array()) {
            col[i] = v;
        }
    }

    /// Bytes of memory the arrays occupy — the extra RAM traffic that makes
    /// the Precalculated scenario memory-bound (paper §5.3, conclusion 5).
    pub fn memory_bytes(&self) -> usize {
        FIELD_COLUMNS * self.len() * R::BYTES
    }

    /// The component columns (one entry per particle each), in
    /// [`EB::to_array`] order — what a field source or a staging copy
    /// reads.
    pub fn columns(&self) -> [&[R]; FIELD_COLUMNS] {
        self.cols.each_ref().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dipole::DipoleStandingWave;
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};

    #[test]
    fn push_get_set_roundtrip() {
        let mut pre = PrecalculatedFields::<f32>::new();
        let f = EB::new(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        pre.push(EB::zero());
        pre.push(f);
        assert_eq!(pre.len(), 2);
        assert_eq!(pre.get(1), f);
        pre.set(0, f);
        assert_eq!(pre.get(0), f);
        assert!(!pre.is_empty());
    }

    #[test]
    fn zeros_are_zero() {
        let pre = PrecalculatedFields::<f64>::zeros(10);
        assert_eq!(pre.len(), 10);
        assert_eq!(pre.get(7), EB::zero());
    }

    #[test]
    fn from_sampler_matches_direct_evaluation() {
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let t = 0.2 / BENCH_OMEGA;
        let positions: Vec<Vec3<f64>> = (0..20)
            .map(|i| Vec3::splat(0.01 * BENCH_WAVELENGTH * i as f64))
            .collect();
        let pre = PrecalculatedFields::from_sampler(&wave, positions.iter().copied(), t);
        for (i, &pos) in positions.iter().enumerate() {
            assert_eq!(pre.get(i), wave.sample(pos, t), "particle {i}");
        }
    }

    /// Chunks cover the rows in order, the last one short, and a sample
    /// written through them lands in its own rows.
    #[test]
    fn chunks_cover_the_rows_in_order() {
        let mut pre = PrecalculatedFields::<f64>::zeros(10);
        let chunks: Vec<_> = pre.chunks_mut(4).collect();
        assert_eq!(
            chunks.iter().map(|c| c.ex.len()).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        for (i, mut chunk) in chunks.into_iter().enumerate() {
            let len = chunk.ex.len();
            assert!(chunk.as_columns_mut().iter().all(|col| col.len() == len));
            let f = EB::new(Vec3::splat(i as f64), Vec3::splat(-(i as f64)));
            chunk.write_lane(1, f);
        }
        for (row, i) in [(1, 0), (5, 1), (9, 2)] {
            assert_eq!(
                pre.get(row),
                EB::new(Vec3::splat(i as f64), Vec3::splat(-(i as f64)))
            );
        }
        assert_eq!(pre.get(0), EB::zero());
        assert_eq!(PrecalculatedFields::<f32>::new().chunks_mut(3).count(), 0);
    }

    #[test]
    fn memory_footprint_matches_paper_accounting() {
        // 6 components per particle: 24 B in float, 48 B in double —
        // "comparable in size to the ensemble of particles" (34/66 B).
        let f32_pre = PrecalculatedFields::<f32>::zeros(100);
        let f64_pre = PrecalculatedFields::<f64>::zeros(100);
        assert_eq!(f32_pre.memory_bytes(), 2400);
        assert_eq!(f64_pre.memory_bytes(), 4800);
    }
}
