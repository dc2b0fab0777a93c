//! Workload builders matching the paper's setup (§5.2).
//!
//! "Initially electrons are at rest and distributed uniformly within the
//! sphere with radius r = 0.6λ. In each experiment 10⁷ particles were
//! simulated, the equations of motion were integrated over 10³ time steps
//! ('iteration'), 10 successive iterations were measured."
//!
//! The field, the time step and the seeded ensemble live here once; the
//! harness and the job service both build their runs from them.

use pic_fields::DipoleStandingWave;
use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
use pic_math::{Real, Vec3};
use pic_particles::init::{fill_sphere_at_rest_chunk, SphereDist};
use pic_particles::{ParticleAccess, ParticleStore, SpeciesTable};
use pic_runtime::{on_static_split, static_chunk_len, Topology};

/// The benchmark field: the 0.1 PW standing m-dipole wave (paper Eq. 14).
pub fn dipole_wave<R: Real>() -> DipoleStandingWave<R> {
    DipoleStandingWave::new(BENCH_POWER, BENCH_OMEGA)
}

/// The benchmark time step: 1/100 of the wave period (small enough for
/// sub-cell motion and accurate gyration at the benchmark intensity).
pub fn bench_dt() -> f64 {
    2.0 * std::f64::consts::PI / BENCH_OMEGA / 100.0
}

/// The simulation time after `steps` steps from t = 0, by the runners'
/// own op sequence: one `+= dt` per step. One multiplication would
/// differ in the last ulp, and a resumed run would not continue the
/// uninterrupted trajectory bit for bit.
pub fn time_after<R: Real>(steps: usize) -> R {
    let dt = R::from_f64(bench_dt());
    let mut time = R::ZERO;
    for _ in 0..steps {
        time += dt;
    }
    time
}

/// Fewest rows one part of a parallel set-up is given. A part beyond
/// the first starts and joins a thread, ≈ 34 µs on the 2-thread host
/// the benchmark was sized on, against 5–10 ns a row of seeding or field
/// sampling: a part of this many rows pays for its thread several times
/// over. Smaller set-ups take fewer parts — one, on the calling thread,
/// below this many rows — and a paper-scale set-up (10⁷ rows) still
/// takes one part per thread.
pub const SETUP_PART_ROWS: usize = 16 * 1024;

/// Rows per part of a set-up of `n` rows over `topology`: the runs of
/// the sweep's static split ([`static_chunk_len`]), never fewer than
/// [`SETUP_PART_ROWS`].
pub(crate) fn setup_chunk_len(n: usize, topology: &Topology) -> usize {
    static_chunk_len(n, topology).max(SETUP_PART_ROWS)
}

/// Builds the paper's initial ensemble: `n` electrons at rest, uniform in
/// a sphere of radius 0.6λ, deterministic for a given `seed`.
pub fn build_ensemble<R: Real, S: ParticleStore<R>>(n: usize, seed: u64) -> S {
    build_ensemble_range(n, seed, 0, n)
}

/// Builds the `[offset, offset + len)` shard of the `n_total`-particle
/// seeded ensemble [`build_ensemble`] produces — bitwise-identical to
/// the corresponding slice of the full fill, and drawn at the cost of
/// its own particles only (the serving layer's domain decomposition
/// depends on both). Filled on the host's threads (`Topology::default()`).
pub fn build_ensemble_range<R: Real, S: ParticleStore<R>>(
    n_total: usize,
    seed: u64,
    offset: usize,
    len: usize,
) -> S {
    let mut store = S::default();
    append_ensemble_range(&mut store, n_total, seed, offset, len, &Topology::default());
    store
}

/// Appends the particles [`build_ensemble_range`] would build to
/// `store`, so a batch of jobs is seeded straight into the one store
/// that runs them (`offset = 0, len = n_total` is [`build_ensemble`]).
/// A range reaching past `n_total` is cut there. The new rows are filled
/// one contiguous range per thread of `topology`, in the static split's
/// order, so each thread first-touches the rows it sweeps under
/// `Schedule::StaticChunks` — but no range is shorter than
/// [`SETUP_PART_ROWS`], so a small range starts fewer threads, or none.
/// The particles are the same bits at every thread count.
pub fn append_ensemble_range<R: Real, S: ParticleStore<R>>(
    store: &mut S,
    n_total: usize,
    seed: u64,
    offset: usize,
    len: usize,
    topology: &Topology,
) {
    let sphere = SphereDist {
        center: Vec3::zero(),
        radius: 0.6 * BENCH_WAVELENGTH,
    };
    let count = offset
        .saturating_add(len)
        .min(n_total)
        .saturating_sub(offset);
    let base = store.len();
    let chunks = store.grow_chunks(count, setup_chunk_len(count, topology));
    on_static_split(chunks, |_, mut chunk| {
        let first = offset + chunk.base_index() - base;
        let species = SpeciesTable::<R>::ELECTRON;
        fill_sphere_at_rest_chunk(&mut chunk, first, &sphere, 1.0, species, seed);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_particles::{AosEnsemble, ParticleAccess, SoaEnsemble};

    #[test]
    fn ensembles_are_deterministic_and_layout_agnostic() {
        let a: AosEnsemble<f64> = build_ensemble(100, 7);
        let s: SoaEnsemble<f64> = build_ensemble(100, 7);
        for i in 0..100 {
            assert_eq!(a.get(i), s.get(i));
        }
        let a2: AosEnsemble<f64> = build_ensemble(100, 8);
        assert_ne!(a.get(0), a2.get(0));
    }

    /// Every shard — either layout and precision, starts and lengths
    /// off the fill's 8-particle blocks — is the full build's slice, and
    /// a range past the end is cut there.
    #[test]
    fn range_ensembles_match_the_full_build_slice() {
        fn check<R: Real, S: ParticleStore<R>>() {
            const TOTAL: usize = 13 + 129;
            let full: S = build_ensemble(TOTAL, 5);
            for offset in [0, 13] {
                for len in [0, 1, 7, 8, 9, 127, 129] {
                    let shard: S = build_ensemble_range(TOTAL, 5, offset, len);
                    assert_eq!(shard.len(), len);
                    for i in 0..len {
                        assert_eq!(shard.get(i), full.get(offset + i), "({offset}, +{len})");
                    }
                }
            }
            let mut rebuilt = Vec::new();
            for (offset, len) in [(0, 50), (50, 50), (100, 50)] {
                let shard: S = build_ensemble_range(TOTAL, 5, offset, len);
                rebuilt.extend(shard.to_particles());
            }
            assert_eq!(rebuilt, full.to_particles(), "shards cover the ensemble");
        }
        check::<f32, SoaEnsemble<f32>>();
        check::<f64, SoaEnsemble<f64>>();
        check::<f32, AosEnsemble<f32>>();
        check::<f64, AosEnsemble<f64>>();
    }

    #[test]
    fn dt_resolves_the_wave_period() {
        let period = 2.0 * std::f64::consts::PI / BENCH_OMEGA;
        assert!((bench_dt() * 100.0 - period).abs() < 1e-20);
    }
}
