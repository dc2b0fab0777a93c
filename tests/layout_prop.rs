//! Property-based integration tests: the layout abstraction and the
//! Boris pusher under randomized inputs.

use pic_boris::{AnalyticalSource, BorisPusher, PushKernel, Pusher, SharedPushKernel};
use pic_device::{Device, DeviceExecutor};
use pic_fields::UniformFields;
use pic_math::constants::{ELECTRON_MASS, LIGHT_VELOCITY};
use pic_math::Vec3;
use pic_particles::{
    AosEnsemble, Particle, ParticleAccess, ParticleStore, SoaEnsemble, Species, SpeciesId,
    SpeciesTable,
};
use pic_runtime::{parallel_sweep, Schedule, Topology};
use proptest::prelude::*;

fn arb_vec3(scale: f64) -> impl Strategy<Value = Vec3<f64>> {
    (-scale..scale, -scale..scale, -scale..scale).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_particle() -> impl Strategy<Value = Particle<f64>> {
    let mc = ELECTRON_MASS * LIGHT_VELOCITY;
    (arb_vec3(1e-3), arb_vec3(5.0), 0.1f64..10.0)
        .prop_map(move |(pos, u, w)| Particle::new(pos, u * mc, w, SpeciesId(0), ELECTRON_MASS))
}

/// What every `ParticleAccess` implementor owes its callers, checked on
/// `store` (any implementor, any base index) against the records it is
/// to hold: `set` then `get` is the identity, the column view (when
/// there is one) is the same particles, and `split_sizes_mut` chunks tile
/// the store in order with the right bases.
fn check_access<A: ParticleAccess<f64>>(
    store: &mut A,
    expect: &[Particle<f64>],
) -> Result<(), proptest::TestCaseError> {
    let n = store.len();
    prop_assert_eq!(n, expect.len());
    for (i, p) in expect.iter().enumerate() {
        store.set(i, p);
        prop_assert_eq!(store.get(i), *p);
    }
    prop_assert_eq!(store.columns().is_some(), store.columns_mut().is_some());
    if let Some(cols) = store.columns() {
        prop_assert_eq!(cols.len(), n);
        for (i, p) in expect.iter().enumerate() {
            prop_assert_eq!(Particle::from_row(cols.row_at(i)), *p);
        }
    }
    let (base, mut seen) = (store.base_index(), 0);
    for chunk in store.split_sizes_mut(&[n / 3, 0, n - n / 3]) {
        prop_assert_eq!(chunk.base_index(), base + seen);
        for i in 0..chunk.len() {
            prop_assert_eq!(chunk.get(i), expect[seen + i]);
        }
        seen += chunk.len();
    }
    prop_assert_eq!(seen, n);
    Ok(())
}

/// [`check_access`] on `store` and on each of its chunks (whose own
/// splits are then nested, with non-zero bases).
fn check_store_and_chunks<S: ParticleStore<f64>>(
    fresh: &[Particle<f64>],
    chunk: usize,
) -> Result<(), proptest::TestCaseError> {
    // Start from other contents, so that `set` has work to do.
    let mut store = S::from_particles(fresh.iter().rev().copied());
    check_access(&mut store, fresh)?;
    for (k, mut part) in store.split_mut(chunk).into_iter().enumerate() {
        prop_assert_eq!(part.base_index(), k * chunk);
        let range = k * chunk..k * chunk + part.len();
        check_access(&mut part, &fresh[range])?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_access_implementor_keeps_the_same_contract(
        particles in prop::collection::vec(arb_particle(), 1..60),
        chunk in 1usize..20,
    ) {
        check_store_and_chunks::<SoaEnsemble<f64>>(&particles, chunk)?;
        check_store_and_chunks::<AosEnsemble<f64>>(&particles, chunk)?;
        // A chunk over device-staged columns, from either layout.
        let mut exec = DeviceExecutor::new(Device::p630());
        let blank: AosEnsemble<f64> = particles.iter().map(|_| Particle::default()).collect();
        let mut staged = exec.stage_ensemble(&blank);
        check_access(&mut staged.chunk_mut(), &particles)?;
        let mut back = blank;
        staged.write_back(&mut back);
        prop_assert_eq!(back.to_particles(), particles);
    }

    #[test]
    fn aos_and_soa_stay_bitwise_identical(
        particles in prop::collection::vec(arb_particle(), 1..40),
        e in arb_vec3(1e3),
        b in arb_vec3(1e5),
        steps in 1usize..10,
    ) {
        let table = SpeciesTable::<f64>::with_standard_species();
        let field = UniformFields::new(e, b);
        let mut aos: AosEnsemble<f64> = particles.iter().copied().collect();
        let mut soa: SoaEnsemble<f64> = particles.iter().copied().collect();
        let dt = 1e-13;
        let mut ka = PushKernel::new(AnalyticalSource::new(field), BorisPusher, &table, dt);
        let mut ks = PushKernel::new(AnalyticalSource::new(field), BorisPusher, &table, dt);
        for _ in 0..steps {
            aos.for_each_mut(&mut ka);
            ka.advance_time();
            soa.for_each_mut(&mut ks);
            ks.advance_time();
        }
        for i in 0..aos.len() {
            prop_assert_eq!(aos.get(i), soa.get(i));
        }
    }

    #[test]
    fn split_and_merge_preserve_state(
        particles in prop::collection::vec(arb_particle(), 1..60),
        chunk in 1usize..20,
    ) {
        let mut ens: SoaEnsemble<f64> = particles.iter().copied().collect();
        let before = ens.to_particles();
        // Splitting alone must not disturb anything.
        let total: usize = ens.split_mut(chunk).iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, before.len());
        prop_assert_eq!(ens.to_particles(), before);
    }

    #[test]
    fn all_pushers_preserve_gamma_floor(
        p in arb_particle(),
        e in arb_vec3(1e3),
        b in arb_vec3(1e5),
    ) {
        // `BorisPusher` is the one `Pusher` implementor.
        let sp = Species::<f64>::electron();
        let field = pic_fields::EB::new(e, b);
        let mut result = p;
        BorisPusher.push(&mut result, &field, &sp, 1e-13);
        prop_assert!(result.gamma >= 1.0, "γ = {}", result.gamma);
        prop_assert!(result.momentum.is_finite());
        prop_assert!(result.position.is_finite());
        // γ cache invariant.
        let expect = pic_particles::particle::lorentz_gamma(result.momentum, sp.mass);
        prop_assert!((result.gamma - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn layouts_stay_bitwise_identical_under_parallel_sweep(
        particles in prop::collection::vec(arb_particle(), 1..80),
        e in arb_vec3(1e3),
        b in arb_vec3(1e5),
        schedule_idx in 0usize..3,
        steps in 1usize..6,
    ) {
        // The same kernel through the threaded sweep must treat AoS and
        // SoA identically bit for bit, for every schedule: the sweep only
        // partitions index ranges, and per-particle updates are
        // independent, so thread interleaving cannot change results.
        let table = SpeciesTable::<f64>::with_standard_species();
        let field = UniformFields::new(e, b);
        let schedule = [
            Schedule::StaticChunks,
            Schedule::dynamic(),
            Schedule::numa(),
        ][schedule_idx];
        let topo = Topology::uniform(2, 2);
        let dt = 1e-13;

        fn trajectories<A: ParticleAccess<f64> + ParticleStore<f64>>(
            particles: &[Particle<f64>],
            field: UniformFields<f64>,
            table: &SpeciesTable<f64>,
            schedule: Schedule,
            topo: &Topology,
            dt: f64,
            steps: usize,
        ) -> Vec<Particle<f64>> {
            let mut ens = A::from_particles(particles.iter().copied());
            let mut time = 0.0;
            for _ in 0..steps {
                let source = AnalyticalSource::new(field);
                let shared = SharedPushKernel {
                    source: &source,
                    pusher: BorisPusher,
                    table,
                    dt,
                    time,
                };
                parallel_sweep(&mut ens, topo, schedule, |_tid| shared.to_kernel());
                time += dt;
            }
            ens.to_particles()
        }

        let aos = trajectories::<AosEnsemble<f64>>(
            &particles, field, &table, schedule, &topo, dt, steps);
        let soa = trajectories::<SoaEnsemble<f64>>(
            &particles, field, &table, schedule, &topo, dt, steps);
        for (i, (a, s)) in aos.iter().zip(&soa).enumerate() {
            prop_assert_eq!(a, s, "particle {} diverged between layouts", i);
        }
    }
}
