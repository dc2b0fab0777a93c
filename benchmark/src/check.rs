//! Output checks: reference results computed directly, outside the code
//! path the workload timed.
//!
//! The reference always runs the per-particle scalar pusher on one
//! thread; the workloads run the SoA fast path, the device lane or the
//! sharded service. The workspace guarantees all of them integrate
//! bitwise-identical trajectories, so any difference is a failed check.

use pic_bench::{build_ensemble, run_mdipole_steps, KernelVariant, MdipoleScenario};
use pic_math::Real;
use pic_particles::io::write_ensemble;
use pic_particles::{AosEnsemble, Layout, ParticleAccess, ParticleStore, SoaEnsemble};
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::{Schedule, Topology};
use pic_serve::JobSpec;

/// Particles of a sweep's final store compared against the reference.
pub const SWEEP_CHECK_PARTICLES: usize = 20_000;

/// The seeded `particles`-particle ensemble after `steps` scalar steps.
pub fn reference_store<R: Real, S: ParticleStore<R>>(
    scenario: Scenario,
    particles: usize,
    seed: u64,
    steps: usize,
) -> S {
    let mut store: S = build_ensemble(particles, seed);
    let ctx = MdipoleScenario::prepare(scenario, &store);
    let mut time = R::ZERO;
    let run = run_mdipole_steps(
        &mut store,
        &ctx,
        steps,
        &mut time,
        &Topology::single(1),
        Schedule::StaticChunks,
        KernelVariant::Scalar,
        None,
        &mut |_, _| true,
    );
    assert_eq!(run.steps_done, steps, "reference run completes");
    store
}

/// Index of the first of `reference`'s particles that `store` does not
/// hold bit for bit at the same index (`None` = all equal). Floats are
/// compared by bit pattern, so a NaN equals the same NaN.
pub fn first_mismatch<R: Real, A: ParticleAccess<R>, B: ParticleAccess<R>>(
    store: &A,
    reference: &B,
) -> Option<usize> {
    if store.len() < reference.len() {
        return Some(store.len());
    }
    let bits = |p: pic_particles::Particle<R>| {
        let (x, m) = (p.position.to_f64(), p.momentum.to_f64());
        let floats = [
            x.x,
            x.y,
            x.z,
            m.x,
            m.y,
            m.z,
            p.weight.to_f64(),
            p.gamma.to_f64(),
        ];
        (floats.map(f64::to_bits), p.species.0)
    };
    (0..reference.len()).find(|&i| bits(store.get(i)) != bits(reference.get(i)))
}

/// The particle dump a correct service returns for `spec`
/// (`return_particles`): direct build, scalar run, `io::write_ensemble`.
pub fn reference_dump(spec: &JobSpec) -> String {
    fn typed<R: Real, S: ParticleStore<R>>(spec: &JobSpec) -> String {
        let store: S = reference_store(spec.scenario, spec.particles, spec.seed, spec.steps);
        let mut out = Vec::new();
        write_ensemble(&store, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("dumps are ASCII")
    }
    match (spec.layout, spec.precision) {
        (Layout::Aos, Precision::F32) => typed::<f32, AosEnsemble<f32>>(spec),
        (Layout::Aos, Precision::F64) => typed::<f64, AosEnsemble<f64>>(spec),
        (Layout::Soa, Precision::F32) => typed::<f32, SoaEnsemble<f32>>(spec),
        (Layout::Soa, Precision::F64) => typed::<f64, SoaEnsemble<f64>>(spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fast_path_matches_the_reference_and_a_wrong_reference_fails() {
        let mut store: SoaEnsemble<f32> = build_ensemble(600, 9);
        let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
        let mut time = 0.0f32;
        run_mdipole_steps(
            &mut store,
            &ctx,
            7,
            &mut time,
            &Topology::single(2),
            Schedule::dynamic(),
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        let good: SoaEnsemble<f32> = reference_store(Scenario::Analytical, 200, 9, 7);
        assert_eq!(first_mismatch(&store, &good), None);
        let wrong_steps: SoaEnsemble<f32> = reference_store(Scenario::Analytical, 200, 9, 6);
        assert_eq!(first_mismatch(&store, &wrong_steps), Some(0));
        let wrong_seed: SoaEnsemble<f32> = reference_store(Scenario::Analytical, 200, 10, 7);
        assert!(first_mismatch(&store, &wrong_seed).is_some());
        let too_long: SoaEnsemble<f32> = reference_store(Scenario::Analytical, 601, 9, 7);
        assert_eq!(first_mismatch(&store, &too_long), Some(600));
    }

    #[test]
    fn reference_dumps_differ_between_specs() {
        let a = JobSpec {
            particles: 40,
            steps: 3,
            ..JobSpec::default()
        };
        let b = JobSpec {
            seed: 43,
            ..a.clone()
        };
        assert_eq!(reference_dump(&a), reference_dump(&a));
        assert_ne!(reference_dump(&a), reference_dump(&b));
        assert_eq!(reference_dump(&a).lines().count(), 41);
    }
}
