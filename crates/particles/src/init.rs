//! Initial particle distributions.
//!
//! The paper's benchmark (§5.2) starts from "electrons at rest, distributed
//! uniformly within the sphere with radius r = 0.6λ". This module provides
//! that distribution, drawn per particle index so that any range of it is
//! drawn directly, and a uniform box for tests that need positions spread
//! over a grid.

use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::{ParticleAccess, ParticleStore};
use pic_math::splitmix::{mix64, GOLDEN_GAMMA};
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

/// Samples a point uniformly inside a box.
pub fn sample_box<G: Rng + ?Sized>(dist: &BoxDist, rng: &mut G) -> Vec3<f64> {
    Vec3::new(
        rng.gen_range(dist.min.x..dist.max.x),
        rng.gen_range(dist.min.y..dist.max.y),
        rng.gen_range(dist.min.z..dist.max.z),
    )
}

/// Uniform draws per particle: `cos θ`, `φ`, and three for the radius.
const DRAWS: u64 = 5;
/// Particles drawn together.
const BLOCK: usize = 8;

/// Positions of particles `first .. first + BLOCK` as x, y, z lanes. Draw
/// `k` of particle `i` is SplitMix64 output `i·DRAWS + k` of the stream
/// keyed `key`, as a 53-bit uniform `u_k` in `[0, 1)`. `cos θ = 2u₀ − 1`
/// and `φ = 2π·u₁` are uniform on the unit sphere; the maximum of three
/// uniforms has CDF w³, the radial law of a uniform ball, so
/// `r = R·max(u₂, u₃, u₄)` needs no cube root. Computed in `f64`, then
/// narrowed, so both precisions hold the same points.
#[inline(always)]
fn sphere_block<R: Real>(key: u64, first: u64, sphere: &SphereDist) -> [[R; BLOCK]; 3] {
    let (mut xs, mut ys, mut zs) = ([R::ZERO; BLOCK], [R::ZERO; BLOCK], [R::ZERO; BLOCK]);
    let lanes = xs.iter_mut().zip(&mut ys).zip(&mut zs);
    for (lane, ((x, y), z)) in (0u64..).zip(lanes) {
        let draw = first.wrapping_add(lane).wrapping_mul(DRAWS);
        let u = |k: u64| {
            let bits = mix64(key.wrapping_add(draw.wrapping_add(k).wrapping_mul(GOLDEN_GAMMA)));
            (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let cos_t = 2.0 * u(0) - 1.0;
        let sin_t = (1.0 - cos_t * cos_t).sqrt();
        let (sin_p, cos_p) = (std::f64::consts::TAU * u(1)).sin_cos_poly();
        let r = sphere.radius * u(2).max(u(3)).max(u(4));
        *x = R::from_f64(sphere.center.x + r * sin_t * cos_p);
        *y = R::from_f64(sphere.center.y + r * sin_t * sin_p);
        *z = R::from_f64(sphere.center.z + r * cos_t);
    }
    [xs, ys, zs]
}

/// Appends `n` particles of `species` at rest, uniformly distributed in
/// `sphere` — the paper's benchmark initial condition: the range
/// `[0, n)` of [`fill_sphere_at_rest_range`].
pub fn fill_sphere_at_rest<R: Real, S: ParticleStore<R>>(
    store: &mut S,
    n: usize,
    sphere: &SphereDist,
    weight: f64,
    species: SpeciesId,
    seed: u64,
) {
    fill_sphere_at_rest_range(store, 0, n, sphere, weight, species, seed);
}

/// Appends particles `[start, end)` (none if `end <= start`) of the
/// `seed`ed sphere fill. Particle `i` is the same bits whatever range
/// draws it, in either layout — the shard invariance the serving layer's
/// domain decomposition rests on — and the same point in either precision.
/// The serial fill: [`ParticleStore::grow_chunks`] in one chunk, written
/// by [`fill_sphere_at_rest_chunk`].
pub fn fill_sphere_at_rest_range<R: Real, S: ParticleStore<R>>(
    store: &mut S,
    start: usize,
    end: usize,
    sphere: &SphereDist,
    weight: f64,
    species: SpeciesId,
    seed: u64,
) {
    let len = end.saturating_sub(start);
    for mut chunk in store.grow_chunks(len, len.max(1)) {
        fill_sphere_at_rest_chunk(&mut chunk, start, sphere, weight, species, seed);
    }
}

/// Writes particles `first .. first + chunk.len()` of the `seed`ed
/// sphere fill at rest over the rows of `chunk`, every column of each:
/// what one thread of a parallel fill runs over its own range of rows
/// that [`ParticleStore::grow_chunks`] appended.
pub fn fill_sphere_at_rest_chunk<R: Real, A: ParticleAccess<R>>(
    chunk: &mut A,
    first: usize,
    sphere: &SphereDist,
    weight: f64,
    species: SpeciesId,
    seed: u64,
) {
    let len = chunk.len();
    let weight = R::from_f64(weight);
    let key = mix64(seed.wrapping_add(GOLDEN_GAMMA));
    let block = |j: usize| sphere_block(key, (first + j) as u64, sphere);
    // Whole blocks go straight into SoA columns; an AoS chunk and a SoA
    // tail take the same block values a row at a time.
    let mut done = 0;
    if let Some(cols) = chunk.columns_mut() {
        // The position columns lead the schema (`X`, `Y`, `Z` = 0, 1, 2);
        // the rest take the at-rest row's values.
        let (row, id) = Particle::at_rest(Vec3::zero(), weight, species).to_row();
        let [xs, ys, zs, rest @ ..] = cols.reals;
        for (col, v) in rest.into_iter().zip(&row[3..]) {
            col.fill(*v);
        }
        cols.species.fill(id);
        let blocks = (xs.as_chunks_mut::<BLOCK>().0.iter_mut())
            .zip(ys.as_chunks_mut::<BLOCK>().0)
            .zip(zs.as_chunks_mut::<BLOCK>().0);
        for ((x, y), z) in blocks {
            [*x, *y, *z] = block(done);
            done += BLOCK;
        }
    }
    for j in (done..len).step_by(BLOCK) {
        let [bx, by, bz] = block(j);
        for lane in 0..BLOCK.min(len - j) {
            let position = Vec3::new(bx[lane], by[lane], bz[lane]);
            chunk.set(j + lane, &Particle::at_rest(position, weight, species));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::AosEnsemble;
    use crate::soa::SoaEnsemble;
    use crate::species::SpeciesTable;

    const EL: SpeciesId = SpeciesTable::<f64>::ELECTRON;
    /// Large enough for the statistical bounds below to be tight.
    const N: usize = 200_000;

    fn unit_sphere() -> SphereDist {
        SphereDist {
            center: Vec3::zero(),
            radius: 1.0,
        }
    }

    fn positions(seed: u64, sphere: &SphereDist) -> Vec<Vec3<f64>> {
        let mut ens = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest(&mut ens, N, sphere, 1.0, EL, seed);
        (0..N).map(|i| ens.get(i).position).collect()
    }

    #[test]
    fn sphere_points_lie_inside_the_radius() {
        let d = SphereDist {
            center: Vec3::new(1.0, 2.0, 3.0),
            radius: 0.5,
        };
        for p in positions(1, &d) {
            assert!((p - d.center).norm() <= d.radius * (1.0 + 1e-12));
        }
    }

    /// Kolmogorov–Smirnov distance of the radii from the uniform ball's
    /// CDF (r/R)³; the 0.1 % critical value at N = 2·10⁵ is 1.95/√N.
    #[test]
    fn radii_follow_the_uniform_ball_law() {
        let mut radii: Vec<f64> = positions(2, &unit_sphere())
            .iter()
            .map(|p| p.norm())
            .collect();
        radii.sort_by(f64::total_cmp);
        let n = radii.len() as f64;
        let ks = radii
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let cdf = r.powi(3);
                (cdf - i as f64 / n)
                    .abs()
                    .max(((i + 1) as f64 / n - cdf).abs())
            })
            .fold(0.0, f64::max);
        assert!(ks < 1.95 / n.sqrt(), "KS distance {ks}");
    }

    /// Directions are isotropic: their mean is 0 and each ⟨nᵢ²⟩ is 1/3
    /// (five standard errors: σ(n̄ᵢ) = 1/√(3N), σ(⟨nᵢ²⟩) = √(4/45N)).
    /// The positions' mean is the centre.
    #[test]
    fn directions_are_isotropic_and_the_mean_is_the_centre() {
        let d = SphereDist {
            center: Vec3::new(-4.0, 0.5, 2.0),
            radius: 1.0,
        };
        let points = positions(3, &d);
        let n = points.len() as f64;
        let (mut mean_dir, mut second, mut mean_pos) = ([0.0; 3], [0.0; 3], Vec3::zero());
        for p in &points {
            let rel = *p - d.center;
            let dir = rel / rel.norm();
            for (k, c) in [dir.x, dir.y, dir.z].into_iter().enumerate() {
                mean_dir[k] += c / n;
                second[k] += c * c / n;
            }
            mean_pos += *p / n;
        }
        for k in 0..3 {
            assert!(mean_dir[k].abs() < 5.0 / (3.0 * n).sqrt(), "{mean_dir:?}");
            let tol = 5.0 * (4.0 / (45.0 * n)).sqrt();
            assert!((second[k] - 1.0 / 3.0).abs() < tol, "{second:?}");
        }
        // σ of one coordinate of a uniform unit ball is 1/√5.
        let off = mean_pos - d.center;
        assert!(off.norm() < 5.0 / (5.0 * n).sqrt(), "mean {mean_pos}");
    }

    #[test]
    fn different_seeds_give_different_ensembles() {
        let (a, b) = (positions(4, &unit_sphere()), positions(5, &unit_sphere()));
        let same = a.iter().zip(&b).filter(|(p, q)| p == q).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_sphere_matches_paper_setup() {
        let lambda = pic_math::constants::BENCH_WAVELENGTH;
        let d = SphereDist {
            center: Vec3::zero(),
            radius: 0.6 * lambda,
        };
        let mut ens = SoaEnsemble::<f32>::new();
        fill_sphere_at_rest(&mut ens, 500, &d, 1.0, EL, 5);
        assert_eq!(ens.len(), 500);
        for i in 0..ens.len() {
            let p = ens.get(i);
            assert_eq!(p.momentum, Vec3::zero());
            assert_eq!(p.gamma, 1.0);
            assert_eq!(p.weight, 1.0);
            assert_eq!(p.species, EL);
            assert!(p.position.to_f64().norm() <= 0.6 * lambda * 1.0001);
        }
    }

    #[test]
    fn seeded_fills_are_deterministic_across_layouts() {
        let d = unit_sphere();
        let mut aos = AosEnsemble::<f64>::new();
        let mut soa = SoaEnsemble::<f64>::new();
        fill_sphere_at_rest(&mut aos, 100, &d, 1.0, EL, 9);
        fill_sphere_at_rest(&mut soa, 100, &d, 1.0, EL, 9);
        for i in 0..100 {
            assert_eq!(aos.get(i), soa.get(i));
        }
    }

    /// Every range — in either layout and precision, appended after a
    /// particle already in the store — is the matching slice of the full
    /// fill, including starts and lengths that are not whole blocks.
    #[test]
    fn range_fill_matches_the_full_fill_slice() {
        fn check<R: Real, S: ParticleStore<R>>() {
            const TOTAL: usize = 13 + 129;
            let d = unit_sphere();
            let mut full = S::default();
            fill_sphere_at_rest(&mut full, TOTAL, &d, 1.0, EL, 11);
            for start in [0, 13] {
                for len in [0, 1, 7, 8, 9, 127, 129] {
                    let lead = Particle::at_rest(Vec3::zero(), R::ONE, SpeciesId(3));
                    let mut part = S::default();
                    part.push(lead);
                    fill_sphere_at_rest_range(&mut part, start, start + len, &d, 1.0, EL, 11);
                    assert_eq!(part.len(), 1 + len);
                    assert_eq!(part.get(0), lead, "the existing particle is kept");
                    for i in 0..len {
                        assert_eq!(part.get(1 + i), full.get(start + i), "({start}, +{len})");
                    }
                }
            }
            // An inverted range is empty.
            let mut empty = S::default();
            fill_sphere_at_rest_range(&mut empty, 9, 5, &d, 1.0, EL, 11);
            assert_eq!(empty.len(), 0);
        }
        check::<f32, SoaEnsemble<f32>>();
        check::<f64, SoaEnsemble<f64>>();
        check::<f32, AosEnsemble<f32>>();
        check::<f64, AosEnsemble<f64>>();
    }

    /// The rows `grow_chunks` appends, filled chunk by chunk at any
    /// chunk length, are the serial fill's — after a particle already in
    /// the store, which is kept — and the chunks cover the new rows in
    /// order.
    #[test]
    fn chunked_fill_matches_the_serial_fill() {
        fn check<R: Real, S: ParticleStore<R> + PartialEq + std::fmt::Debug>() {
            const LEN: usize = 61;
            let d = unit_sphere();
            let lead = Particle::at_rest(Vec3::zero(), R::ONE, SpeciesId(3));
            let mut serial = S::default();
            serial.push(lead);
            fill_sphere_at_rest_range(&mut serial, 4, 4 + LEN, &d, 1.0, EL, 13);
            for chunk_len in [1, 7, 8, 9, 60, 61, 100] {
                let mut chunked = S::default();
                chunked.push(lead);
                let chunks = chunked.grow_chunks(LEN, chunk_len);
                assert_eq!(chunks.len(), LEN.div_ceil(chunk_len));
                for (i, mut chunk) in chunks.into_iter().enumerate() {
                    assert_eq!(chunk.base_index(), 1 + i * chunk_len);
                    let first = 4 + i * chunk_len;
                    fill_sphere_at_rest_chunk(&mut chunk, first, &d, 1.0, EL, 13);
                }
                assert_eq!(chunked, serial, "chunks of {chunk_len}");
            }
            assert!(S::default().grow_chunks(0, 8).is_empty());
        }
        check::<f32, SoaEnsemble<f32>>();
        check::<f64, SoaEnsemble<f64>>();
        check::<f32, AosEnsemble<f32>>();
        check::<f64, AosEnsemble<f64>>();
    }

    /// `f32` ensembles hold the `f64` ensemble's points, narrowed.
    #[test]
    fn precisions_hold_the_same_points() {
        let d = unit_sphere();
        let mut wide = SoaEnsemble::<f64>::new();
        let mut narrow = SoaEnsemble::<f32>::new();
        fill_sphere_at_rest(&mut wide, 37, &d, 1.0, EL, 6);
        fill_sphere_at_rest(&mut narrow, 37, &d, 1.0, EL, 6);
        for i in 0..37 {
            assert_eq!(narrow.get(i).position, Vec3::from_f64(wide.get(i).position));
        }
    }
}
