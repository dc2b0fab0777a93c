//! Particle sorting for cache locality (paper §3).
//!
//! Hi-Chi stores the whole ensemble in one array and "periodically sorts the
//! array of particles in order to improve cache locality". This module
//! sorts by the **Morton (Z-order) code** of a particle's cell on a regular
//! grid, which keeps neighbouring cells close in memory, exposes the
//! permutation so a caller can undo the sort, and measures how cell-ordered
//! an ensemble is.

use crate::view::{ParticleAccess, ParticleStore};
use pic_math::{Real, Vec3};

/// A regular grid of sorting cells over an axis-aligned domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellGrid {
    /// Lower corner of the domain, cm.
    pub min: Vec3<f64>,
    /// Upper corner of the domain, cm.
    pub max: Vec3<f64>,
    /// Number of cells along each axis.
    pub cells: [usize; 3],
}

impl CellGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive or any cell count is zero.
    pub fn new(min: Vec3<f64>, max: Vec3<f64>, cells: [usize; 3]) -> CellGrid {
        assert!(
            max.x > min.x && max.y > min.y && max.z > min.z,
            "CellGrid: empty domain"
        );
        assert!(
            cells.iter().all(|&c| c > 0),
            "CellGrid: zero cells along an axis"
        );
        CellGrid { min, max, cells }
    }

    /// Integer cell coordinates of a position (clamped into the domain).
    pub fn cell_coords(&self, pos: Vec3<f64>) -> [usize; 3] {
        let mut out = [0usize; 3];
        let min = self.min.to_array();
        let max = self.max.to_array();
        let p = pos.to_array();
        for d in 0..3 {
            let frac = (p[d] - min[d]) / (max[d] - min[d]);
            let i = (frac * self.cells[d] as f64).floor();
            out[d] = (i.max(0.0) as usize).min(self.cells[d] - 1);
        }
        out
    }

    /// Linear (x-fastest) cell index of a position.
    pub fn cell_index(&self, pos: Vec3<f64>) -> usize {
        let [i, j, k] = self.cell_coords(pos);
        (k * self.cells[1] + j) * self.cells[0] + i
    }

    /// Morton (Z-order) code of a position's cell.
    pub fn morton_index(&self, pos: Vec3<f64>) -> u64 {
        let [i, j, k] = self.cell_coords(pos);
        morton3(i as u32, j as u32, k as u32)
    }
}

/// Interleaves the low 21 bits of three coordinates into a Morton code.
pub fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        // Spreads the low 21 bits of v so that there are two zero bits
        // between consecutive input bits (standard magic-number dilation).
        let mut x = (v as u64) & 0x1f_ffff;
        x = (x | (x << 32)) & 0x1f00000000ffff;
        x = (x | (x << 16)) & 0x1f0000ff0000ff;
        x = (x | (x << 8)) & 0x100f00f00f00f00f;
        x = (x | (x << 4)) & 0x10c30c30c30c30c3;
        x = (x | (x << 2)) & 0x1249249249249249;
        x
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Sorts the ensemble by Morton code (comparison sort, O(n log n)).
pub fn sort_by_morton<R: Real, S: ParticleStore<R>>(store: &mut S, grid: &CellGrid) {
    let perm = morton_perm(store, grid);
    apply_perm(store, &perm);
}

/// The stable Morton permutation of `store`: `perm[dst] = src` — the
/// particle that lands at position `dst` after a Morton sort. Identity
/// for stores of fewer than two particles.
///
/// Exposing the permutation (instead of only sorting in place) lets a
/// caller that must *restore* the original order — e.g. a shard sub-job
/// whose dump bytes must stay bitwise shard-count-invariant — sort for
/// locality, run, and then undo via [`invert_perm`] + [`apply_perm`].
pub fn morton_perm<R: Real, A: ParticleAccess<R>>(store: &A, grid: &CellGrid) -> Vec<usize> {
    let n = store.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let mut order: Vec<(u64, usize)> = (0..n)
        .map(|i| (grid.morton_index(store.get(i).position.to_f64()), i))
        .collect();
    order.sort_by_key(|&(key, idx)| (key, idx));
    order.into_iter().map(|(_, src)| src).collect()
}

/// Reorders `store` so that position `dst` holds the particle that was
/// at `perm[dst]`.
///
/// # Panics
///
/// Panics when `perm.len() != store.len()` (an out-of-range `perm`
/// entry panics on the indexing below; a non-permutation silently
/// duplicates particles — callers pass permutations from
/// [`morton_perm`] / [`invert_perm`]).
pub fn apply_perm<R: Real, S: ParticleStore<R>>(store: &mut S, perm: &[usize]) {
    assert_eq!(perm.len(), store.len(), "permutation length mismatch");
    let particles = store.to_particles();
    for (dst, &src) in perm.iter().enumerate() {
        store.set(dst, &particles[src]);
    }
}

/// The inverse permutation: applying [`apply_perm`] with `perm` and then
/// with `invert_perm(perm)` restores the original order.
///
/// # Panics
///
/// Panics when `perm` is not a permutation of `0..perm.len()`.
pub fn invert_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (dst, &src) in perm.iter().enumerate() {
        assert!(
            src < perm.len() && inv[src] == usize::MAX,
            "invert_perm: not a permutation"
        );
        inv[src] = dst;
    }
    inv
}

/// Measures how well an ensemble is cell-ordered: the fraction of adjacent
/// particle pairs whose cell index does not decrease. 1.0 ⇔ fully sorted.
pub fn cell_order_fraction<R: Real, S: ParticleAccess<R>>(store: &S, grid: &CellGrid) -> f64 {
    let n = store.len();
    if n < 2 {
        return 1.0;
    }
    let mut ordered = 0usize;
    let mut prev = grid.cell_index(store.get(0).position.to_f64());
    for i in 1..n {
        let k = grid.cell_index(store.get(i).position.to_f64());
        if k >= prev {
            ordered += 1;
        }
        prev = k;
    }
    // lint: allow(precision-pollution): sortedness metric over integer
    // counts, outside the Real-typed kernel math.
    ordered as f64 / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::AosEnsemble;
    use crate::init::{sample_box, BoxDist};
    use crate::particle::Particle;
    use crate::soa::SoaEnsemble;
    use crate::species::SpeciesId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> CellGrid {
        CellGrid::new(Vec3::zero(), Vec3::splat(1.0), [4, 4, 4])
    }

    fn random_ensemble<S: ParticleStore<f64>>(n: usize, seed: u64) -> S {
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds = BoxDist {
            min: Vec3::zero(),
            max: Vec3::splat(1.0),
        };
        let mut s = S::default();
        for i in 0..n {
            let mut p = Particle::at_rest(sample_box(&bounds, &mut rng), 1.0, SpeciesId(0));
            p.weight = i as f64; // tag to track identity through the sort
            s.push(p);
        }
        s
    }

    #[test]
    fn cell_index_corners() {
        let g = grid();
        assert_eq!(g.cell_index(Vec3::zero()), 0);
        assert_eq!(g.cell_index(Vec3::splat(0.999)), 63);
        // Out-of-domain positions clamp instead of panicking.
        assert_eq!(g.cell_index(Vec3::splat(5.0)), 63);
        assert_eq!(g.cell_index(Vec3::splat(-5.0)), 0);
    }

    #[test]
    fn cell_index_is_x_fastest() {
        let g = grid();
        let dx = 0.25;
        let a = g.cell_index(Vec3::new(0.1, 0.1, 0.1));
        let b = g.cell_index(Vec3::new(0.1 + dx, 0.1, 0.1));
        let c = g.cell_index(Vec3::new(0.1, 0.1 + dx, 0.1));
        let d = g.cell_index(Vec3::new(0.1, 0.1, 0.1 + dx));
        assert_eq!(b, a + 1);
        assert_eq!(c, a + 4);
        assert_eq!(d, a + 16);
    }

    #[test]
    fn morton3_small_values() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 0b001);
        assert_eq!(morton3(0, 1, 0), 0b010);
        assert_eq!(morton3(0, 0, 1), 0b100);
        assert_eq!(morton3(1, 1, 1), 0b111);
        assert_eq!(morton3(2, 0, 0), 0b001000);
        // x = 11b → bits 0,3; y = 101b → bits 1,7; z = 001b → bit 2.
        assert_eq!(morton3(3, 5, 1), 0b1000_1111);
    }

    #[test]
    fn morton3_is_monotonic_per_axis() {
        for v in 0..64u32 {
            assert!(morton3(v + 1, 0, 0) > morton3(v, 0, 0));
            assert!(morton3(0, v + 1, 0) > morton3(0, v, 0));
            assert!(morton3(0, 0, v + 1) > morton3(0, 0, v));
        }
    }

    #[test]
    fn morton_sort_orders_by_morton_code() {
        let mut ens: SoaEnsemble<f64> = random_ensemble(300, 14);
        let g = grid();
        sort_by_morton(&mut ens, &g);
        let mut prev = 0u64;
        for i in 0..ens.len() {
            let code = g.morton_index(ens.get(i).position.to_f64());
            assert!(code >= prev);
            prev = code;
        }
    }

    #[test]
    fn sorting_tiny_ensembles_is_a_noop() {
        let g = grid();
        let mut empty = AosEnsemble::<f64>::new();
        sort_by_morton(&mut empty, &g);
        assert!(empty.is_empty());
        assert_eq!(cell_order_fraction(&empty, &g), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn degenerate_grid_panics() {
        let _ = CellGrid::new(Vec3::zero(), Vec3::zero(), [1, 1, 1]);
    }

    #[test]
    fn morton_sort_is_stable() {
        // Particles with equal Morton codes keep their original relative
        // order (the sort key is (code, original index)).
        let g = grid();
        let mut ens = AosEnsemble::<f64>::new();
        for (i, x) in [0.9, 0.05, 0.06, 0.07].iter().enumerate() {
            let mut p = Particle::at_rest(Vec3::new(*x, 0.0, 0.0), 1.0, SpeciesId(0));
            p.weight = i as f64;
            ens.push(p);
        }
        sort_by_morton(&mut ens, &g);
        let weights: Vec<f64> = ens.as_slice().iter().map(|p| p.weight).collect();
        assert_eq!(weights, vec![1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn morton_sort_is_a_permutation_with_attached_attributes() {
        // Weights and species ids travel with their particle: the sorted
        // ensemble is exactly a permutation of the input records.
        let mut rng = StdRng::seed_from_u64(31);
        let bounds = BoxDist {
            min: Vec3::zero(),
            max: Vec3::splat(1.0),
        };
        let mut ens = SoaEnsemble::<f64>::new();
        for i in 0..257 {
            let mut p = Particle::at_rest(sample_box(&bounds, &mut rng), 1.0, SpeciesId(0));
            p.weight = i as f64;
            p.species = SpeciesId((i % 5) as u16);
            p.momentum = Vec3::new(i as f64, -(i as f64), 0.5 * i as f64);
            ens.push(p);
        }
        let before = ens.to_particles();
        sort_by_morton(&mut ens, &grid());
        let after = ens.to_particles();
        assert_eq!(after.len(), before.len());
        // Each output record must be byte-for-byte one of the inputs, with
        // its weight/species/momentum intact; weights are unique, so they
        // identify the source particle.
        for p in &after {
            let src = &before[p.weight as usize];
            assert_eq!(p, src, "particle with weight {} was altered", p.weight);
        }
        // And every source weight appears exactly once.
        let mut seen: Vec<f64> = after.iter().map(|p| p.weight).collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..257).map(|i| i as f64).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn morton_perm_round_trips_through_its_inverse() {
        let g = grid();
        let mut ens: SoaEnsemble<f64> = random_ensemble(300, 61);
        let before = ens.to_particles();
        let perm = morton_perm(&ens, &g);
        apply_perm(&mut ens, &perm);
        // The permuted store is exactly the in-place Morton sort...
        let mut reference: SoaEnsemble<f64> = SoaEnsemble::from_particles(before.iter().cloned());
        sort_by_morton(&mut reference, &g);
        assert_eq!(ens.to_particles(), reference.to_particles());
        // ...and the inverse restores the original order bitwise.
        apply_perm(&mut ens, &invert_perm(&perm));
        assert_eq!(ens.to_particles(), before);
    }

    #[test]
    fn tiny_perms_are_identity() {
        let g = grid();
        let empty = SoaEnsemble::<f64>::new();
        assert!(morton_perm(&empty, &g).is_empty());
        let one: AosEnsemble<f64> = random_ensemble(1, 62);
        assert_eq!(morton_perm(&one, &g), vec![0]);
        assert_eq!(invert_perm(&[]), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invert_perm_rejects_duplicates() {
        let _ = invert_perm(&[0, 0, 2]);
    }

    #[test]
    fn order_fraction_bounded_on_sorted_and_shuffled() {
        let g = grid();
        let mut ens: SoaEnsemble<f64> = random_ensemble(400, 41);
        let shuffled = cell_order_fraction(&ens, &g);
        assert!((0.0..=1.0).contains(&shuffled), "{shuffled}");
        sort_by_morton(&mut ens, &g);
        let sorted = cell_order_fraction(&ens, &g);
        assert!((0.0..=1.0).contains(&sorted), "{sorted}");
        // Morton order is not linear cell order, but it is far more
        // cell-coherent than a random shuffle.
        assert!(sorted > shuffled);
        // One cell thick in y and z, the Morton code is the linear cell
        // index, so a Morton sort is a full cell sort.
        let line = CellGrid::new(Vec3::zero(), Vec3::splat(1.0), [4, 1, 1]);
        sort_by_morton(&mut ens, &line);
        assert_eq!(cell_order_fraction(&ens, &line), 1.0);
    }
}
