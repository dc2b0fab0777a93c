//! Layout-agnostic particle access (the paper's `ParticleProxy`).
//!
//! The paper (§3) explains that Hi-Chi implements a `ParticleProxy` class
//! which "completely repeats the functionality of the Particle class, but
//! stores references", so that one templated kernel runs over both the AoS
//! and the SoA ensembles. In Rust the same role is played by two traits:
//!
//! * [`ParticleView`] — mutable access to *one* particle, whatever its
//!   backing storage. The pushers are generic over this trait.
//! * [`ParticleAccess`] — indexed access to a *collection* of particles,
//!   with a layout-native view type (GAT) and chunk splitting for the
//!   parallel runtime.
//! * [`ParticleStore`] — a growable [`ParticleAccess`] (the full ensembles;
//!   chunks only implement `ParticleAccess`).

use crate::columns::{ColumnsMut, ColumnsRef};
use crate::particle::Particle;
use crate::species::SpeciesId;
use pic_math::{Real, Vec3};

/// Memory layout of a particle collection (paper §3: AoS vs SoA).
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Layout {
    /// Array of structures — one contiguous `Particle` record per particle.
    Aos,
    /// Structure of arrays — one contiguous array per particle attribute.
    Soa,
}

impl Layout {
    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Aos => "AoS",
            Layout::Soa => "SoA",
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Mutable access to a single particle — the Rust `ParticleProxy`.
///
/// Kernels written against this trait monomorphize to direct loads/stores
/// for both layouts; there is no dynamic dispatch on the hot path.
pub trait ParticleView<R: Real> {
    /// Particle position, cm.
    fn position(&self) -> Vec3<R>;
    /// Particle momentum, g·cm/s.
    fn momentum(&self) -> Vec3<R>;
    /// Macroparticle weight.
    fn weight(&self) -> R;
    /// Cached Lorentz factor.
    fn gamma(&self) -> R;
    /// Species index.
    fn species(&self) -> SpeciesId;

    /// Sets the position.
    fn set_position(&mut self, v: Vec3<R>);
    /// Sets the momentum (callers must also refresh γ; the pushers do).
    fn set_momentum(&mut self, v: Vec3<R>);
    /// Sets the macroparticle weight.
    fn set_weight(&mut self, w: R);
    /// Sets the cached Lorentz factor.
    fn set_gamma(&mut self, g: R);
    /// Sets the species index.
    fn set_species(&mut self, s: SpeciesId);

    /// Copies the particle out into an owned record.
    fn load(&self) -> Particle<R> {
        Particle {
            position: self.position(),
            momentum: self.momentum(),
            weight: self.weight(),
            gamma: self.gamma(),
            species: self.species(),
        }
    }

    /// Overwrites the particle from an owned record.
    fn store(&mut self, p: &Particle<R>) {
        self.set_position(p.position);
        self.set_momentum(p.momentum);
        self.set_weight(p.weight);
        self.set_gamma(p.gamma);
        self.set_species(p.species);
    }
}

/// A `Particle` is trivially a view of itself.
impl<R: Real> ParticleView<R> for Particle<R> {
    #[inline(always)]
    fn position(&self) -> Vec3<R> {
        self.position
    }
    #[inline(always)]
    fn momentum(&self) -> Vec3<R> {
        self.momentum
    }
    #[inline(always)]
    fn weight(&self) -> R {
        self.weight
    }
    #[inline(always)]
    fn gamma(&self) -> R {
        self.gamma
    }
    #[inline(always)]
    fn species(&self) -> SpeciesId {
        self.species
    }
    #[inline(always)]
    fn set_position(&mut self, v: Vec3<R>) {
        self.position = v;
    }
    #[inline(always)]
    fn set_momentum(&mut self, v: Vec3<R>) {
        self.momentum = v;
    }
    #[inline(always)]
    fn set_weight(&mut self, w: R) {
        self.weight = w;
    }
    #[inline(always)]
    fn set_gamma(&mut self, g: R) {
        self.gamma = g;
    }
    #[inline(always)]
    fn set_species(&mut self, s: SpeciesId) {
        self.species = s;
    }
}

impl<R: Real, V: ParticleView<R> + ?Sized> ParticleView<R> for &mut V {
    #[inline(always)]
    fn position(&self) -> Vec3<R> {
        (**self).position()
    }
    #[inline(always)]
    fn momentum(&self) -> Vec3<R> {
        (**self).momentum()
    }
    #[inline(always)]
    fn weight(&self) -> R {
        (**self).weight()
    }
    #[inline(always)]
    fn gamma(&self) -> R {
        (**self).gamma()
    }
    #[inline(always)]
    fn species(&self) -> SpeciesId {
        (**self).species()
    }
    #[inline(always)]
    fn set_position(&mut self, v: Vec3<R>) {
        (**self).set_position(v);
    }
    #[inline(always)]
    fn set_momentum(&mut self, v: Vec3<R>) {
        (**self).set_momentum(v);
    }
    #[inline(always)]
    fn set_weight(&mut self, w: R) {
        (**self).set_weight(w);
    }
    #[inline(always)]
    fn set_gamma(&mut self, g: R) {
        (**self).set_gamma(g);
    }
    #[inline(always)]
    fn set_species(&mut self, s: SpeciesId) {
        (**self).set_species(s);
    }
}

/// A computation applied to every particle of a collection.
///
/// This is the rank-2 abstraction that lets one kernel monomorphize over
/// both layouts' native views: `apply` is generic over the view type, so a
/// single `ParticleKernel` impl (e.g. the Boris pusher) compiles to direct
/// loads/stores for AoS *and* SoA — exactly the role of the C++ template
/// functions the paper instantiates over `Particle&`/`ParticleProxy`.
pub trait ParticleKernel<R: Real> {
    /// Processes one particle. `index` is the particle's global index in
    /// the owning ensemble (chunk offsets included).
    fn apply<V: ParticleView<R>>(&mut self, index: usize, view: &mut V);

    /// Processes every particle of `chunk`. The default loops over
    /// [`apply`](Self::apply) through the layout-native views; kernels
    /// with a faster whole-chunk form (the zero-gather SoA Boris path)
    /// override this to dispatch on [`ParticleAccess::columns_mut`].
    fn apply_chunk<A: ParticleAccess<R>>(&mut self, chunk: &mut A)
    where
        Self: Sized,
    {
        chunk.for_each_mut(self);
    }
}

/// Adapts a closure over `&mut dyn ParticleView` into a [`ParticleKernel`].
///
/// Convenient for tests and cold paths; hot kernels should implement
/// [`ParticleKernel`] directly to avoid the virtual calls.
#[derive(Debug)]
pub struct DynKernel<F>(pub F);

impl<R, F> ParticleKernel<R> for DynKernel<F>
where
    R: Real,
    F: FnMut(usize, &mut dyn ParticleView<R>),
{
    fn apply<V: ParticleView<R>>(&mut self, index: usize, view: &mut V) {
        (self.0)(index, view);
    }
}

/// Indexed access to a collection of particles with a layout-native view.
///
/// Implemented by the owning ensembles ([`crate::AosEnsemble`],
/// [`crate::SoaEnsemble`]) and by the borrowed chunks they split into for
/// the parallel runtime ([`crate::AosChunkMut`], [`crate::SoaChunkMut`]).
pub trait ParticleAccess<R: Real>: Send {
    /// The layout-native mutable single-particle view.
    type ViewMut<'a>: ParticleView<R>
    where
        Self: 'a;
    /// The chunk type produced by [`split_mut`](Self::split_mut); a chunk is
    /// itself a `ParticleAccess` so kernels recurse over it unchanged.
    type ChunkMut<'a>: ParticleAccess<R>
    where
        Self: 'a;

    /// This collection's memory layout.
    fn layout(&self) -> Layout;

    /// Number of particles.
    fn len(&self) -> usize;

    /// `true` when the collection holds no particles.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the first particle relative to the owning ensemble — 0 for
    /// ensembles, the chunk offset for chunks. Precalculated-field kernels
    /// use this to address their per-particle field arrays.
    fn base_index(&self) -> usize {
        0
    }

    /// Copies particle `i` out.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn get(&self, i: usize) -> Particle<R>;

    /// Overwrites particle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn set(&mut self, i: usize, p: &Particle<R>);

    /// Returns the layout-native mutable view of particle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn view_mut(&mut self, i: usize) -> Self::ViewMut<'_>;

    /// Applies `kernel` to each particle through its native view, passing
    /// global indices ([`base_index`](Self::base_index) included).
    fn for_each_mut<K: ParticleKernel<R>>(&mut self, kernel: &mut K) {
        let base = self.base_index();
        for i in 0..self.len() {
            let mut v = self.view_mut(i);
            kernel.apply(base + i, &mut v);
        }
    }

    /// The component columns as shared slices, when this collection is
    /// column-backed (SoA). `None` (the default) means there are no
    /// contiguous columns and callers must go through
    /// [`get`](Self::get) or the per-particle views.
    fn columns(&self) -> Option<ColumnsRef<'_, R>> {
        None
    }

    /// [`columns`](Self::columns) as mutable slices: `Some` lets kernels
    /// run straight-line lane loops with no gather/scatter. Row 0 is
    /// particle [`base_index`](Self::base_index) of the owning ensemble.
    fn columns_mut(&mut self) -> Option<ColumnsMut<'_, R>> {
        None
    }

    /// Splits the collection into disjoint mutable chunks of the given
    /// sizes, in order. Sizes must sum to `len()`; zero sizes are skipped.
    ///
    /// # Panics
    ///
    /// Panics if the sizes do not sum to `len()`.
    fn split_sizes_mut(&mut self, sizes: &[usize]) -> Vec<Self::ChunkMut<'_>>;

    /// Splits the collection into disjoint mutable chunks of at most
    /// `chunk_size` particles, for the parallel runtime.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    fn split_mut(&mut self, chunk_size: usize) -> Vec<Self::ChunkMut<'_>> {
        assert!(chunk_size > 0, "split_mut: chunk_size must be positive");
        let n = self.len();
        let mut sizes = vec![chunk_size; n / chunk_size];
        if n % chunk_size != 0 {
            sizes.push(n % chunk_size);
        }
        self.split_sizes_mut(&sizes)
    }
}

/// A growable [`ParticleAccess`]: the owning ensembles.
pub trait ParticleStore<R: Real>: ParticleAccess<R> + Default {
    /// Appends a particle.
    fn push(&mut self, p: Particle<R>);

    /// Removes all particles, keeping capacity.
    fn clear(&mut self);

    /// Reserves capacity for `additional` more particles.
    fn reserve(&mut self, additional: usize);

    /// Appends `n` rows for an initial distribution to write — the one
    /// way a distribution grows a store. Their values are unspecified
    /// until a fill writes every column of them
    /// ([`crate::init::fill_sphere_at_rest_chunk`]). The default pushes
    /// default particles; an empty SoA store takes lazily zeroed columns
    /// instead, whose pages the fill touches first.
    fn grow(&mut self, n: usize) {
        self.reserve(n);
        for _ in 0..n {
            self.push(Particle::default());
        }
    }

    /// [`grow`](Self::grow)s the store by `n` rows and returns those rows
    /// as chunks of at most `chunk_len` each, in order: the parts a fill
    /// writes, one per thread.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    fn grow_chunks(&mut self, n: usize, chunk_len: usize) -> Vec<Self::ChunkMut<'_>> {
        assert!(chunk_len > 0, "grow_chunks: chunk_len must be positive");
        let base = self.len();
        self.grow(n);
        let mut sizes = vec![base];
        sizes.extend((0..n).step_by(chunk_len).map(|at| chunk_len.min(n - at)));
        let mut chunks = self.split_sizes_mut(&sizes);
        // `split_sizes_mut` skips the zero-sized lead of an empty store.
        if base > 0 {
            chunks.remove(0);
        }
        chunks
    }

    /// Removes particle `i` in O(1) by swapping the last particle into its
    /// slot, returning the removed record. Used by escape/boundary handling.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn swap_remove(&mut self, i: usize) -> Particle<R>;

    /// Removes every particle failing `keep` (O(n), swap-remove based, so
    /// the surviving order is not preserved). Returns the number removed.
    /// The escape-handling primitive: drop particles that left the region
    /// of interest instead of pushing them forever.
    fn retain(&mut self, mut keep: impl FnMut(&Particle<R>) -> bool) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < self.len() {
            if keep(&self.get(i)) {
                i += 1;
            } else {
                self.swap_remove(i);
                removed += 1;
            }
        }
        removed
    }

    /// Builds a store from owned records.
    fn from_particles<I: IntoIterator<Item = Particle<R>>>(iter: I) -> Self {
        let mut s = Self::default();
        for p in iter {
            s.push(p);
        }
        s
    }

    /// Copies all particles out as owned records (diagnostics, sorting).
    fn to_particles(&self) -> Vec<Particle<R>> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_names_match_paper() {
        assert_eq!(Layout::Aos.name(), "AoS");
        assert_eq!(Layout::Soa.name(), "SoA");
        assert_eq!(Layout::Soa.to_string(), "SoA");
    }

    #[test]
    fn particle_is_its_own_view() {
        let mut p = Particle::<f64>::default();
        p.set_position(Vec3::new(1.0, 2.0, 3.0));
        p.set_gamma(2.0);
        assert_eq!(ParticleView::<f64>::position(&p), Vec3::new(1.0, 2.0, 3.0));
        let copy = p.load();
        assert_eq!(copy, p);
        let mut q = Particle::<f64>::default();
        q.store(&copy);
        assert_eq!(q, p);
    }

    #[test]
    fn mut_ref_forwards_view() {
        fn bump<R: Real>(mut v: impl ParticleView<R>) {
            let w = v.weight();
            v.set_weight(w + R::ONE);
        }
        let mut p = Particle::<f32>::default();
        bump(&mut p);
        assert_eq!(p.weight, 1.0);
    }
}
