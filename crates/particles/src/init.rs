//! Initial particle distributions.
//!
//! The paper's benchmark (§5.2) starts from "electrons at rest, distributed
//! uniformly within the sphere with radius r = 0.6λ". This module provides
//! that distribution, its sharded range form, and a uniform box for tests
//! that need positions spread over a grid.

use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::ParticleStore;
use pic_math::{Real, Vec3};
use rand::Rng;

/// A uniform-density sphere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SphereDist {
    /// Sphere centre, cm.
    pub center: Vec3<f64>,
    /// Sphere radius, cm.
    pub radius: f64,
}

/// An axis-aligned uniform-density box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxDist {
    /// Lower corner, cm.
    pub min: Vec3<f64>,
    /// Upper corner, cm.
    pub max: Vec3<f64>,
}

/// Samples a point uniformly inside a sphere (exact inverse-CDF sampling:
/// radius ∝ u^(1/3), direction isotropic).
pub fn sample_sphere<G: Rng + ?Sized>(dist: &SphereDist, rng: &mut G) -> Vec3<f64> {
    let dir = sample_unit_vector(rng);
    let r = dist.radius * rng.gen::<f64>().powf(1.0 / 3.0);
    dist.center + dir * r
}

/// Samples an isotropic unit vector (Marsaglia's method on the sphere).
fn sample_unit_vector<G: Rng + ?Sized>(rng: &mut G) -> Vec3<f64> {
    loop {
        let x = rng.gen::<f64>() * 2.0 - 1.0;
        let y = rng.gen::<f64>() * 2.0 - 1.0;
        let z = rng.gen::<f64>() * 2.0 - 1.0;
        let n2 = x * x + y * y + z * z;
        if n2 > 1e-12 && n2 <= 1.0 {
            let inv = n2.sqrt().recip();
            return Vec3::new(x * inv, y * inv, z * inv);
        }
    }
}

/// Samples a point uniformly inside a box.
pub fn sample_box<G: Rng + ?Sized>(dist: &BoxDist, rng: &mut G) -> Vec3<f64> {
    Vec3::new(
        rng.gen_range(dist.min.x..dist.max.x),
        rng.gen_range(dist.min.y..dist.max.y),
        rng.gen_range(dist.min.z..dist.max.z),
    )
}

/// Fills `store` with `n` particles of `species` at rest, uniformly
/// distributed in `sphere` — the paper's benchmark initial condition.
pub fn fill_sphere_at_rest<R, S, G>(
    store: &mut S,
    n: usize,
    sphere: &SphereDist,
    weight: f64,
    species: SpeciesId,
    rng: &mut G,
) where
    R: Real,
    S: ParticleStore<R>,
    G: Rng + ?Sized,
{
    store.reserve(n);
    for _ in 0..n {
        let pos = sample_sphere(sphere, rng);
        store.push(Particle::at_rest(
            Vec3::from_f64(pos),
            R::from_f64(weight),
            species,
        ));
    }
}

/// Fills `store` with the `[start, end)` index range of the same
/// `n_total`-particle sphere fill [`fill_sphere_at_rest`] produces.
///
/// The isotropic direction sampler is a rejection loop, so each particle
/// consumes a *variable* number of RNG draws — a shard cannot fast-
/// forward the stream to its offset. Instead the full seeded sequence is
/// replayed from particle 0 and only the range is kept, which makes the
/// extracted range bitwise-identical to the corresponding slice of the
/// full fill (the shard-invariance property the serving layer's domain
/// decomposition rests on).
#[allow(clippy::too_many_arguments)]
pub fn fill_sphere_at_rest_range<R, S, G>(
    store: &mut S,
    n_total: usize,
    start: usize,
    end: usize,
    sphere: &SphereDist,
    weight: f64,
    species: SpeciesId,
    rng: &mut G,
) where
    R: Real,
    S: ParticleStore<R>,
    G: Rng + ?Sized,
{
    let end = end.min(n_total);
    store.reserve(end.saturating_sub(start));
    for i in 0..end {
        let pos = sample_sphere(sphere, rng);
        if i >= start {
            store.push(Particle::at_rest(
                Vec3::from_f64(pos),
                R::from_f64(weight),
                species,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::AosEnsemble;
    use crate::soa::SoaEnsemble;
    use crate::species::SpeciesTable;
    use crate::view::ParticleAccess;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EL: SpeciesId = SpeciesTable::<f64>::ELECTRON;

    #[test]
    fn sphere_points_inside_radius() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SphereDist {
            center: Vec3::new(1.0, 2.0, 3.0),
            radius: 0.5,
        };
        for _ in 0..1000 {
            let p = sample_sphere(&d, &mut rng);
            assert!((p - d.center).norm() <= d.radius + 1e-12);
        }
    }

    #[test]
    fn sphere_radius_distribution_is_uniform_density() {
        // For uniform density, the fraction of points with r < R/2 is 1/8.
        let mut rng = StdRng::seed_from_u64(2);
        let d = SphereDist {
            center: Vec3::zero(),
            radius: 1.0,
        };
        let n = 20000;
        let inside = (0..n)
            .filter(|_| sample_sphere(&d, &mut rng).norm() < 0.5)
            .count();
        let frac = inside as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn unit_vectors_are_isotropic() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20000;
        let mean: Vec3<f64> = (0..n)
            .map(|_| sample_unit_vector(&mut rng))
            .sum::<Vec3<f64>>()
            / n as f64;
        assert!(mean.norm() < 0.02, "mean = {mean}");
    }

    #[test]
    fn fill_sphere_matches_paper_setup() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = pic_math::constants::BENCH_WAVELENGTH;
        let d = SphereDist {
            center: Vec3::zero(),
            radius: 0.6 * lambda,
        };
        let mut ens = SoaEnsemble::<f32>::new();
        fill_sphere_at_rest(&mut ens, 500, &d, 1.0, EL, &mut rng);
        assert_eq!(ens.len(), 500);
        for i in 0..ens.len() {
            let p = ens.get(i);
            assert_eq!(p.momentum, Vec3::zero());
            assert_eq!(p.gamma, 1.0);
            assert!(p.position.to_f64().norm() <= 0.6 * lambda * 1.0001);
        }
    }

    #[test]
    fn seeded_fills_are_deterministic_across_layouts() {
        let d = SphereDist {
            center: Vec3::zero(),
            radius: 1.0,
        };
        let mut aos = AosEnsemble::<f64>::new();
        let mut soa = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest(&mut aos, 100, &d, 1.0, EL, &mut StdRng::seed_from_u64(9));
        fill_sphere_at_rest(&mut soa, 100, &d, 1.0, EL, &mut StdRng::seed_from_u64(9));
        for i in 0..100 {
            assert_eq!(aos.get(i), soa.get(i));
        }
    }

    #[test]
    fn range_fill_matches_the_full_fill_slice() {
        let d = SphereDist {
            center: Vec3::zero(),
            radius: 1.0,
        };
        let mut full = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest(&mut full, 37, &d, 1.0, EL, &mut StdRng::seed_from_u64(11));
        for (start, end) in [(0, 37), (0, 13), (13, 25), (25, 37), (36, 37)] {
            let mut part = SoaEnsemble::<f64>::new();
            fill_sphere_at_rest_range(
                &mut part,
                37,
                start,
                end,
                &d,
                1.0,
                EL,
                &mut StdRng::seed_from_u64(11),
            );
            assert_eq!(part.len(), end - start);
            for i in 0..part.len() {
                assert_eq!(part.get(i), full.get(start + i), "range ({start},{end})");
            }
        }
        // An out-of-bounds end is clamped; an empty range stays empty.
        let mut clamped = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest_range(
            &mut clamped,
            37,
            30,
            99,
            &d,
            1.0,
            EL,
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(clamped.len(), 7);
        let mut empty = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest_range(
            &mut empty,
            37,
            5,
            5,
            &d,
            1.0,
            EL,
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(empty.len(), 0);
    }
}
