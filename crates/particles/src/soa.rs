//! Structure-of-arrays ensemble (paper §3, the `SoA` pattern).

use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::{Layout, ParticleAccess, ParticleStore, ParticleView};
use pic_math::{Real, Vec3};

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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoaEnsemble<R> {
    x: Vec<R>,
    y: Vec<R>,
    z: Vec<R>,
    px: Vec<R>,
    py: Vec<R>,
    pz: Vec<R>,
    weight: Vec<R>,
    gamma: Vec<R>,
    species: Vec<SpeciesId>,
}

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
        &self.x
    }

    /// The y-coordinate array.
    pub fn ys(&self) -> &[R] {
        &self.y
    }

    /// The z-coordinate array.
    pub fn zs(&self) -> &[R] {
        &self.z
    }

    /// The momentum-x array.
    pub fn pxs(&self) -> &[R] {
        &self.px
    }

    /// The momentum-y array.
    pub fn pys(&self) -> &[R] {
        &self.py
    }

    /// The momentum-z array.
    pub fn pzs(&self) -> &[R] {
        &self.pz
    }

    /// The weight array.
    pub fn weights(&self) -> &[R] {
        &self.weight
    }

    /// The Lorentz-factor array.
    pub fn gammas(&self) -> &[R] {
        &self.gamma
    }

    /// The species-id array.
    pub fn species_ids(&self) -> &[SpeciesId] {
        &self.species
    }

    fn full_chunk(&mut self) -> SoaChunkMut<'_, R> {
        SoaChunkMut {
            offset: 0,
            x: &mut self.x,
            y: &mut self.y,
            z: &mut self.z,
            px: &mut self.px,
            py: &mut self.py,
            pz: &mut self.pz,
            weight: &mut self.weight,
            gamma: &mut self.gamma,
            species: &mut self.species,
        }
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

/// Mutable view of one particle inside a SoA collection — the reference-
/// holding `ParticleProxy` of the paper, field for field.
#[derive(Debug)]
pub struct SoaRefMut<'a, R> {
    x: &'a mut R,
    y: &'a mut R,
    z: &'a mut R,
    px: &'a mut R,
    py: &'a mut R,
    pz: &'a mut R,
    weight: &'a mut R,
    gamma: &'a mut R,
    species: &'a mut SpeciesId,
}

impl<R: Real> ParticleView<R> for SoaRefMut<'_, R> {
    #[inline(always)]
    fn position(&self) -> Vec3<R> {
        Vec3::new(*self.x, *self.y, *self.z)
    }
    #[inline(always)]
    fn momentum(&self) -> Vec3<R> {
        Vec3::new(*self.px, *self.py, *self.pz)
    }
    #[inline(always)]
    fn weight(&self) -> R {
        *self.weight
    }
    #[inline(always)]
    fn gamma(&self) -> R {
        *self.gamma
    }
    #[inline(always)]
    fn species(&self) -> SpeciesId {
        *self.species
    }
    #[inline(always)]
    fn set_position(&mut self, v: Vec3<R>) {
        *self.x = v.x;
        *self.y = v.y;
        *self.z = v.z;
    }
    #[inline(always)]
    fn set_momentum(&mut self, v: Vec3<R>) {
        *self.px = v.x;
        *self.py = v.y;
        *self.pz = v.z;
    }
    #[inline(always)]
    fn set_weight(&mut self, w: R) {
        *self.weight = w;
    }
    #[inline(always)]
    fn set_gamma(&mut self, g: R) {
        *self.gamma = g;
    }
    #[inline(always)]
    fn set_species(&mut self, s: SpeciesId) {
        *self.species = s;
    }
}

/// A disjoint mutable chunk of a [`SoaEnsemble`].
#[derive(Debug)]
pub struct SoaChunkMut<'a, R> {
    offset: usize,
    x: &'a mut [R],
    y: &'a mut [R],
    z: &'a mut [R],
    px: &'a mut [R],
    py: &'a mut [R],
    pz: &'a mut [R],
    weight: &'a mut [R],
    gamma: &'a mut [R],
    species: &'a mut [SpeciesId],
}

impl<'a, R: Real> SoaChunkMut<'a, R> {
    /// Assembles a chunk view from externally owned component columns —
    /// the seam the device backend uses to run the SoA fast path over
    /// USM-staged buffers. `offset` is the global index of lane 0 (so
    /// per-particle side tables such as precalculated fields stay
    /// addressable); all columns must have equal length.
    #[allow(clippy::too_many_arguments)]
    pub fn from_columns(
        offset: usize,
        x: &'a mut [R],
        y: &'a mut [R],
        z: &'a mut [R],
        px: &'a mut [R],
        py: &'a mut [R],
        pz: &'a mut [R],
        weight: &'a mut [R],
        gamma: &'a mut [R],
        species: &'a mut [SpeciesId],
    ) -> SoaChunkMut<'a, R> {
        let n = x.len();
        assert!(
            y.len() == n
                && z.len() == n
                && px.len() == n
                && py.len() == n
                && pz.len() == n
                && weight.len() == n
                && gamma.len() == n
                && species.len() == n,
            "from_columns: all component columns must have equal length"
        );
        SoaChunkMut {
            offset,
            x,
            y,
            z,
            px,
            py,
            pz,
            weight,
            gamma,
            species,
        }
    }

    fn split_at(self, mid: usize) -> (SoaChunkMut<'a, R>, SoaChunkMut<'a, R>) {
        let (x0, x1) = self.x.split_at_mut(mid);
        let (y0, y1) = self.y.split_at_mut(mid);
        let (z0, z1) = self.z.split_at_mut(mid);
        let (px0, px1) = self.px.split_at_mut(mid);
        let (py0, py1) = self.py.split_at_mut(mid);
        let (pz0, pz1) = self.pz.split_at_mut(mid);
        let (w0, w1) = self.weight.split_at_mut(mid);
        let (g0, g1) = self.gamma.split_at_mut(mid);
        let (s0, s1) = self.species.split_at_mut(mid);
        (
            SoaChunkMut {
                offset: self.offset,
                x: x0,
                y: y0,
                z: z0,
                px: px0,
                py: py0,
                pz: pz0,
                weight: w0,
                gamma: g0,
                species: s0,
            },
            SoaChunkMut {
                offset: self.offset + mid,
                x: x1,
                y: y1,
                z: z1,
                px: px1,
                py: py1,
                pz: pz1,
                weight: w1,
                gamma: g1,
                species: s1,
            },
        )
    }

    fn reborrow(&mut self) -> SoaChunkMut<'_, R> {
        SoaChunkMut {
            offset: self.offset,
            x: &mut *self.x,
            y: &mut *self.y,
            z: &mut *self.z,
            px: &mut *self.px,
            py: &mut *self.py,
            pz: &mut *self.pz,
            weight: &mut *self.weight,
            gamma: &mut *self.gamma,
            species: &mut *self.species,
        }
    }
}

/// Direct mutable access to the component columns of a SoA collection,
/// for kernels that process whole lanes without per-particle views.
///
/// `base` is the index of the first lane relative to the owning ensemble
/// (0 for ensembles, the chunk offset for chunks), so kernels reading
/// per-particle side arrays (precalculated fields) can address them.
/// The weight column is omitted: the pushers never touch it, and leaving
/// it out keeps the hot loop's live-slice count minimal.
#[derive(Debug)]
pub struct SoaLanesMut<'a, R> {
    /// Global index of lane 0 in the owning ensemble.
    pub base: usize,
    /// Position x column.
    pub x: &'a mut [R],
    /// Position y column.
    pub y: &'a mut [R],
    /// Position z column.
    pub z: &'a mut [R],
    /// Momentum x column.
    pub px: &'a mut [R],
    /// Momentum y column.
    pub py: &'a mut [R],
    /// Momentum z column.
    pub pz: &'a mut [R],
    /// Cached Lorentz-factor column.
    pub gamma: &'a mut [R],
    /// Species-id column (read-only: pushers never change species).
    pub species: &'a [SpeciesId],
}

fn split_chunks<'a, R: Real>(full: SoaChunkMut<'a, R>, sizes: &[usize]) -> Vec<SoaChunkMut<'a, R>> {
    assert_eq!(
        sizes.iter().sum::<usize>(),
        full.x.len(),
        "split_sizes_mut: sizes must sum to the collection length"
    );
    let mut out = Vec::new();
    let mut rest = full;
    for &size in sizes {
        if size == 0 {
            continue;
        }
        let (head, tail) = rest.split_at(size);
        out.push(head);
        rest = tail;
    }
    out
}

macro_rules! soa_access_body {
    () => {
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
            self.x.len()
        }

        fn position_columns(&self) -> Option<(&[R], &[R], &[R])> {
            Some((&self.x, &self.y, &self.z))
        }

        #[inline(always)]
        fn get(&self, i: usize) -> Particle<R> {
            Particle {
                position: Vec3::new(self.x[i], self.y[i], self.z[i]),
                momentum: Vec3::new(self.px[i], self.py[i], self.pz[i]),
                weight: self.weight[i],
                gamma: self.gamma[i],
                species: self.species[i],
            }
        }

        #[inline(always)]
        fn set(&mut self, i: usize, p: &Particle<R>) {
            self.x[i] = p.position.x;
            self.y[i] = p.position.y;
            self.z[i] = p.position.z;
            self.px[i] = p.momentum.x;
            self.py[i] = p.momentum.y;
            self.pz[i] = p.momentum.z;
            self.weight[i] = p.weight;
            self.gamma[i] = p.gamma;
            self.species[i] = p.species;
        }

        #[inline(always)]
        fn view_mut(&mut self, i: usize) -> Self::ViewMut<'_> {
            SoaRefMut {
                x: &mut self.x[i],
                y: &mut self.y[i],
                z: &mut self.z[i],
                px: &mut self.px[i],
                py: &mut self.py[i],
                pz: &mut self.pz[i],
                weight: &mut self.weight[i],
                gamma: &mut self.gamma[i],
                species: &mut self.species[i],
            }
        }
    };
}

impl<R: Real> ParticleAccess<R> for SoaEnsemble<R> {
    soa_access_body!();

    fn soa_lanes_mut(&mut self) -> Option<SoaLanesMut<'_, R>> {
        Some(SoaLanesMut {
            base: 0,
            x: &mut self.x,
            y: &mut self.y,
            z: &mut self.z,
            px: &mut self.px,
            py: &mut self.py,
            pz: &mut self.pz,
            gamma: &mut self.gamma,
            species: &self.species,
        })
    }

    fn split_sizes_mut(&mut self, sizes: &[usize]) -> Vec<Self::ChunkMut<'_>> {
        split_chunks(self.full_chunk(), sizes)
    }
}

impl<'c, R: Real> ParticleAccess<R> for SoaChunkMut<'c, R> {
    soa_access_body!();

    fn base_index(&self) -> usize {
        self.offset
    }

    fn soa_lanes_mut(&mut self) -> Option<SoaLanesMut<'_, R>> {
        Some(SoaLanesMut {
            base: self.offset,
            x: &mut *self.x,
            y: &mut *self.y,
            z: &mut *self.z,
            px: &mut *self.px,
            py: &mut *self.py,
            pz: &mut *self.pz,
            gamma: &mut *self.gamma,
            species: &*self.species,
        })
    }

    fn split_sizes_mut(&mut self, sizes: &[usize]) -> Vec<Self::ChunkMut<'_>> {
        split_chunks(self.reborrow(), sizes)
    }
}

impl<R: Real> ParticleStore<R> for SoaEnsemble<R> {
    fn push(&mut self, p: Particle<R>) {
        self.x.push(p.position.x);
        self.y.push(p.position.y);
        self.z.push(p.position.z);
        self.px.push(p.momentum.x);
        self.py.push(p.momentum.y);
        self.pz.push(p.momentum.z);
        self.weight.push(p.weight);
        self.gamma.push(p.gamma);
        self.species.push(p.species);
    }

    fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.px.clear();
        self.py.clear();
        self.pz.clear();
        self.weight.clear();
        self.gamma.clear();
        self.species.clear();
    }

    fn reserve(&mut self, additional: usize) {
        self.x.reserve(additional);
        self.y.reserve(additional);
        self.z.reserve(additional);
        self.px.reserve(additional);
        self.py.reserve(additional);
        self.pz.reserve(additional);
        self.weight.reserve(additional);
        self.gamma.reserve(additional);
        self.species.reserve(additional);
    }

    fn swap_remove(&mut self, i: usize) -> Particle<R> {
        Particle {
            position: Vec3::new(
                self.x.swap_remove(i),
                self.y.swap_remove(i),
                self.z.swap_remove(i),
            ),
            momentum: Vec3::new(
                self.px.swap_remove(i),
                self.py.swap_remove(i),
                self.pz.swap_remove(i),
            ),
            weight: self.weight.swap_remove(i),
            gamma: self.gamma.swap_remove(i),
            species: self.species.swap_remove(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(ens.pzs(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ens.weights(), &[1.0; 4]);
        assert_eq!(ens.gammas(), &[1.0; 4]);
        assert_eq!(ens.species_ids().len(), 4);
        assert_eq!(ens.pxs(), &[0.0; 4]);
        assert_eq!(ens.pys(), &[0.0; 4]);
        assert_eq!(ens.zs(), &[0.0; 4]);
    }

    #[test]
    fn view_mut_updates_columns() {
        let mut ens = sample(3);
        {
            let mut v = ens.view_mut(1);
            v.set_momentum(Vec3::new(7.0, 8.0, 9.0));
            v.set_gamma(2.5);
        }
        assert_eq!(ens.pxs()[1], 7.0);
        assert_eq!(ens.pys()[1], 8.0);
        assert_eq!(ens.pzs()[1], 9.0);
        assert_eq!(ens.gammas()[1], 2.5);
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

    #[test]
    fn from_columns_builds_a_chunk_over_external_storage() {
        let mut x = vec![1.0f64, 2.0];
        let mut y = vec![0.0; 2];
        let mut z = vec![0.0; 2];
        let mut px = vec![0.0; 2];
        let mut py = vec![0.0; 2];
        let mut pz = vec![5.0, 6.0];
        let mut w = vec![1.0; 2];
        let mut g = vec![1.0; 2];
        let mut sp = vec![SpeciesId(0); 2];
        {
            let mut chunk = SoaChunkMut::from_columns(
                7, &mut x, &mut y, &mut z, &mut px, &mut py, &mut pz, &mut w, &mut g, &mut sp,
            );
            assert_eq!(chunk.len(), 2);
            assert_eq!(chunk.base_index(), 7);
            assert_eq!(chunk.get(1).momentum.z, 6.0);
            let lanes = chunk.soa_lanes_mut().expect("chunk has lanes");
            assert_eq!(lanes.base, 7);
            lanes.px[0] = 3.5;
        }
        assert_eq!(px[0], 3.5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_columns_rejects_ragged_columns() {
        let mut x = vec![1.0f64, 2.0];
        let mut y = vec![0.0; 3];
        let mut z = vec![0.0; 2];
        let mut px = vec![0.0; 2];
        let mut py = vec![0.0; 2];
        let mut pz = vec![0.0; 2];
        let mut w = vec![1.0; 2];
        let mut g = vec![1.0; 2];
        let mut sp = vec![SpeciesId(0); 2];
        let _ = SoaChunkMut::from_columns(
            0, &mut x, &mut y, &mut z, &mut px, &mut py, &mut pz, &mut w, &mut g, &mut sp,
        );
    }

    #[test]
    fn lanes_expose_columns_with_chunk_base() {
        let mut ens = sample(10);
        {
            let lanes = ens.soa_lanes_mut().expect("SoA ensemble has lanes");
            assert_eq!(lanes.base, 0);
            assert_eq!(lanes.x.len(), 10);
            lanes.px[3] = 42.0;
        }
        assert_eq!(ens.get(3).momentum.x, 42.0);
        let mut chunks = ens.split_mut(4);
        let lanes = chunks[1].soa_lanes_mut().expect("SoA chunk has lanes");
        assert_eq!(lanes.base, 4);
        assert_eq!(lanes.x.len(), 4);
        assert_eq!(lanes.x[0], 4.0);
        assert_eq!(lanes.species.len(), 4);
    }
}
