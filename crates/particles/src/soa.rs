//! Structure-of-arrays ensemble (paper §3, the `SoA` pattern).
//!
//! The ensemble and its chunks are one generic store, [`SoaStore`], over
//! the column set declared in [`crate::columns`]: `Vec` columns own the
//! particles ([`SoaEnsemble`]), mutable slices borrow a range of them
//! ([`SoaChunkMut`]). One `ParticleAccess` impl serves both; only the
//! `xs`/`ys`/`zs` getters name a column.

use crate::columns::{ColumnsMut, ColumnsRef, ParticleColumns, SoaRefMut, X, Y, Z};
use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::{Layout, ParticleAccess, ParticleStore};
use pic_math::Real;
use std::ops::DerefMut;

/// A column store: [`ParticleColumns`] over containers `C`/`S`, plus the
/// index of its first particle in the owning ensemble.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoaStore<C, S> {
    offset: usize,
    cols: ParticleColumns<C, S>,
}

/// The SoA ensemble: one contiguous array per particle attribute.
/// Unit-stride vector loads; lower cache locality per particle (paper §3's
/// trade-off).
///
/// # Example
///
/// ```
/// use pic_particles::{Particle, ParticleAccess, ParticleStore, SoaEnsemble};
///
/// let mut ens = SoaEnsemble::<f32>::new();
/// ens.push(Particle::default());
/// assert_eq!(ens.len(), 1);
/// assert_eq!(ens.xs().len(), 1);
/// ```
pub type SoaEnsemble<R> = SoaStore<Vec<R>, Vec<SpeciesId>>;

/// A disjoint mutable chunk of a [`SoaEnsemble`] (or of any other
/// columns — see [`from_columns`](SoaStore::from_columns)).
pub type SoaChunkMut<'a, R> = SoaStore<&'a mut [R], &'a mut [SpeciesId]>;

impl<R: Real> SoaEnsemble<R> {
    /// Creates an empty ensemble.
    pub fn new() -> SoaEnsemble<R> {
        SoaEnsemble::default()
    }

    /// Creates an empty ensemble with room for `capacity` particles.
    pub fn with_capacity(capacity: usize) -> SoaEnsemble<R> {
        let mut s = SoaEnsemble::default();
        s.reserve(capacity);
        s
    }

    /// The x-coordinate array (for diagnostics and vectorized kernels).
    pub fn xs(&self) -> &[R] {
        // bounds: `X` (and `Y`, `Z` below) is a constant index into
        // `[_; REAL_COLUMNS]`.
        &self.cols.reals[X]
    }

    /// The y-coordinate array.
    pub fn ys(&self) -> &[R] {
        &self.cols.reals[Y]
    }

    /// The z-coordinate array.
    pub fn zs(&self) -> &[R] {
        &self.cols.reals[Z]
    }
}

impl<R: Real> FromIterator<Particle<R>> for SoaEnsemble<R> {
    fn from_iter<I: IntoIterator<Item = Particle<R>>>(iter: I) -> Self {
        let mut s = SoaEnsemble::new();
        for p in iter {
            s.push(p);
        }
        s
    }
}

impl<R: Real> Extend<Particle<R>> for SoaEnsemble<R> {
    fn extend<I: IntoIterator<Item = Particle<R>>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

impl<'a, R: Real> SoaChunkMut<'a, R> {
    /// A chunk view over externally owned columns — the seam the device
    /// backend uses to run the SoA fast path over USM-staged buffers.
    /// `offset` is the global index of row 0 (so per-particle side
    /// tables such as precalculated fields stay addressable).
    ///
    /// # Panics
    ///
    /// Panics unless all columns have equal length.
    pub fn from_columns(offset: usize, cols: ColumnsMut<'a, R>) -> SoaChunkMut<'a, R> {
        assert!(
            cols.reals.iter().all(|c| c.len() == cols.species.len()),
            "from_columns: all component columns must have equal length"
        );
        SoaStore { offset, cols }
    }
}

/// Cuts `rest` (whose row 0 is global particle `offset`) into chunks of
/// the given sizes.
fn split_chunks<'a, R: Real>(
    mut offset: usize,
    mut rest: ColumnsMut<'a, R>,
    sizes: &[usize],
) -> Vec<SoaChunkMut<'a, R>> {
    assert_eq!(
        sizes.iter().sum::<usize>(),
        rest.len(),
        "split_sizes_mut: sizes must sum to the collection length"
    );
    let mut out = Vec::new();
    for &size in sizes.iter().filter(|&&size| size > 0) {
        let cols = rest.take_front(size);
        out.push(SoaStore { offset, cols });
        offset += size;
    }
    out
}

impl<R, C, S> ParticleAccess<R> for SoaStore<C, S>
where
    R: Real,
    C: DerefMut<Target = [R]> + Send,
    S: DerefMut<Target = [SpeciesId]> + Send,
{
    type ViewMut<'v>
        = SoaRefMut<'v, R>
    where
        Self: 'v;
    type ChunkMut<'v>
        = SoaChunkMut<'v, R>
    where
        Self: 'v;

    fn layout(&self) -> Layout {
        Layout::Soa
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn base_index(&self) -> usize {
        self.offset
    }

    fn columns(&self) -> Option<ColumnsRef<'_, R>> {
        Some(self.cols.as_view())
    }

    #[inline(always)]
    fn columns_mut(&mut self) -> Option<ColumnsMut<'_, R>> {
        Some(self.cols.as_view_mut())
    }

    #[inline(always)]
    fn get(&self, i: usize) -> Particle<R> {
        Particle::from_row(self.cols.row_at(i))
    }

    #[inline(always)]
    fn set(&mut self, i: usize, p: &Particle<R>) {
        self.cols.put_row(i, p.to_row());
    }

    #[inline(always)]
    fn view_mut(&mut self, i: usize) -> Self::ViewMut<'_> {
        self.cols.proxy_at(i)
    }

    fn split_sizes_mut(&mut self, sizes: &[usize]) -> Vec<Self::ChunkMut<'_>> {
        split_chunks(self.offset, self.cols.as_view_mut(), sizes)
    }
}

impl<R: Real> ParticleStore<R> for SoaEnsemble<R> {
    fn push(&mut self, p: Particle<R>) {
        self.cols.push_row(p.to_row());
    }

    fn clear(&mut self) {
        self.cols.each_column_mut(Vec::clear, Vec::clear);
    }

    fn reserve(&mut self, additional: usize) {
        self.cols.reserve_rows(additional);
    }

    /// Zero rows. An empty column becomes `vec![0; n]`, which the
    /// allocator maps as zero pages without writing them; a column with
    /// rows is resized. The species column is a newtype, which `vec!`
    /// cannot map zeroed, so it is written here.
    fn grow(&mut self, n: usize) {
        let len = self.cols.len() + n;
        for col in &mut self.cols.reals {
            if col.is_empty() {
                *col = vec![R::ZERO; len];
            } else {
                col.resize(len, R::ZERO);
            }
        }
        self.cols.species.resize(len, SpeciesId(0));
    }

    fn swap_remove(&mut self, i: usize) -> Particle<R> {
        Particle::from_row(self.cols.swap_remove_row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{GAMMA, PX, PY, PZ, REAL_COLUMNS, WEIGHT};
    use crate::view::ParticleView;
    use pic_math::Vec3;

    fn sample(n: usize) -> SoaEnsemble<f64> {
        (0..n)
            .map(|i| Particle {
                position: Vec3::new(i as f64, 10.0 + i as f64, 0.0),
                momentum: Vec3::new(0.0, 0.0, i as f64),
                weight: 1.0,
                gamma: 1.0,
                species: SpeciesId((i % 3) as u16),
            })
            .collect()
    }

    #[test]
    fn push_get_roundtrip() {
        let ens = sample(5);
        for i in 0..5 {
            let p = ens.get(i);
            assert_eq!(p.position.x, i as f64);
            assert_eq!(p.momentum.z, i as f64);
            assert_eq!(p.species, SpeciesId((i % 3) as u16));
        }
        assert_eq!(ens.layout(), Layout::Soa);
    }

    #[test]
    fn columns_are_contiguous() {
        let ens = sample(4);
        assert_eq!(ens.xs(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ens.ys(), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(ens.zs(), &[0.0; 4]);
        let cols = ens.columns().expect("SoA ensemble has columns");
        assert_eq!(cols.reals[PZ], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(cols.reals[WEIGHT], &[1.0; 4]);
        assert_eq!(cols.reals[GAMMA], &[1.0; 4]);
        assert_eq!(cols.species.len(), 4);
        assert_eq!(cols.reals[PX], &[0.0; 4]);
        assert_eq!(cols.reals[PY], &[0.0; 4]);
    }

    #[test]
    fn view_mut_updates_columns() {
        let mut ens = sample(3);
        {
            let mut v = ens.view_mut(1);
            v.set_momentum(Vec3::new(7.0, 8.0, 9.0));
            v.set_gamma(2.5);
        }
        assert_eq!(ens.get(1).momentum, Vec3::new(7.0, 8.0, 9.0));
        assert_eq!(ens.get(1).gamma, 2.5);
    }

    #[test]
    fn split_mut_roundtrip_matches_aos_semantics() {
        let mut ens = sample(10);
        {
            let mut chunks = ens.split_mut(4);
            assert_eq!(chunks.len(), 3);
            assert_eq!(chunks[0].len(), 4);
            assert_eq!(chunks[2].len(), 2);
            assert_eq!(chunks[1].base_index(), 4);
            for c in &mut chunks {
                let mut kernel =
                    crate::view::DynKernel(|i: usize, v: &mut dyn ParticleView<f64>| {
                        v.set_weight(i as f64);
                    });
                c.for_each_mut(&mut kernel);
            }
        }
        for i in 0..10 {
            assert_eq!(ens.get(i).weight, i as f64);
        }
    }

    #[test]
    fn nested_chunk_split() {
        let mut ens = sample(8);
        let mut top = ens.split_mut(8);
        let sub = top[0].split_mut(3);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub[2].base_index(), 6);
        assert_eq!(sub[2].len(), 2);
    }

    #[test]
    fn grow_appends_zero_rows() {
        let mut empty = SoaEnsemble::<f32>::new();
        empty.grow(5);
        assert_eq!(empty.len(), 5);
        assert!(empty.columns().is_some_and(|c| c.len() == 5));
        let zero = Particle::from_row(([0.0; REAL_COLUMNS], SpeciesId(0)));
        assert!((0..5).all(|i| empty.get(i) == zero));
        let mut ens = sample(3);
        ens.grow(2);
        assert_eq!(ens.len(), 5);
        assert_eq!(ens.get(2), sample(3).get(2), "existing rows are kept");
        assert_eq!(
            ens.get(4),
            Particle::from_row(([0.0; REAL_COLUMNS], SpeciesId(0)))
        );
    }

    #[test]
    fn swap_remove_consistent_across_columns() {
        let mut ens = sample(4);
        let removed = ens.swap_remove(0);
        assert_eq!(removed.position.x, 0.0);
        assert_eq!(ens.len(), 3);
        let first = ens.get(0);
        assert_eq!(first.position.x, 3.0);
        assert_eq!(first.position.y, 13.0);
        assert_eq!(first.momentum.z, 3.0);
    }

    #[test]
    fn clear_and_reserve() {
        let mut ens = sample(4);
        ens.clear();
        assert!(ens.is_empty());
        ens.reserve(100);
        ens.push(Particle::default());
        assert_eq!(ens.len(), 1);
    }

    #[test]
    fn empty_split_is_empty() {
        let mut ens = SoaEnsemble::<f64>::new();
        assert!(ens.split_mut(8).is_empty());
    }

    /// Nine two-row columns, the y column optionally one row too long.
    fn external(ragged: bool) -> ParticleColumns<Vec<f64>, Vec<SpeciesId>> {
        let mut cols = sample(2).cols;
        if ragged {
            cols.reals[crate::columns::Y].push(0.0);
        }
        cols
    }

    #[test]
    fn from_columns_builds_a_chunk_over_external_storage() {
        let mut cols = external(false);
        {
            let mut chunk = SoaChunkMut::from_columns(7, cols.as_view_mut());
            assert_eq!(chunk.len(), 2);
            assert_eq!(chunk.base_index(), 7);
            assert_eq!(chunk.get(1).momentum.z, 1.0);
            let lanes = chunk.columns_mut().expect("chunk has columns");
            lanes.reals[PX][0] = 3.5;
        }
        assert_eq!(cols.reals[PX][0], 3.5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_columns_rejects_ragged_columns() {
        let mut cols = external(true);
        let _ = SoaChunkMut::from_columns(0, cols.as_view_mut());
    }

    #[test]
    fn columns_expose_the_chunk_range() {
        let mut ens = sample(10);
        {
            let lanes = ens.columns_mut().expect("SoA ensemble has columns");
            assert_eq!(lanes.len(), 10);
            lanes.reals[PX][3] = 42.0;
        }
        assert_eq!(ens.get(3).momentum.x, 42.0);
        let mut chunks = ens.split_mut(4);
        assert_eq!(chunks[1].base_index(), 4);
        let lanes = chunks[1].columns_mut().expect("SoA chunk has columns");
        assert_eq!(lanes.len(), 4);
        assert_eq!(lanes.reals[X][0], 4.0);
        assert_eq!(lanes.species.len(), 4);
    }
}
