//! Integration: physical behaviour of the full stack — the m-dipole
//! benchmark dynamics (paper §5.2).

use pic_bench::{bench_dt, build_ensemble, dipole_wave};
use pic_boris::diag::{fraction_inside_sphere, mean_gamma};
use pic_boris::{AnalyticalSource, BorisPusher, PushKernel};
use pic_math::constants::{BENCH_OMEGA, BENCH_WAVELENGTH, ELECTRON_MASS, LIGHT_VELOCITY};
use pic_math::Vec3;
use pic_particles::{AosEnsemble, ParticleAccess, SpeciesTable};

#[test]
fn electrons_escape_the_focal_region() {
    // Paper §5.2: "due to strong field inhomogeneity, particles can
    // rapidly escape the focal region" at sub-threshold powers. Drive the
    // benchmark ensemble for several wave periods and watch the inside
    // fraction drop substantially.
    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = dipole_wave::<f64>();
    let mut ens: AosEnsemble<f64> = build_ensemble(2_000, 2021);
    let radius = 0.6 * BENCH_WAVELENGTH;

    assert_eq!(fraction_inside_sphere(&ens, Vec3::zero(), radius), 1.0);

    let period = 2.0 * std::f64::consts::PI / BENCH_OMEGA;
    let steps_per_period = 200;
    let dt = period / steps_per_period as f64;
    let mut kernel = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);

    let mut fractions = vec![1.0];
    for _ in 0..6 {
        for _ in 0..steps_per_period {
            ens.for_each_mut(&mut kernel);
            kernel.advance_time();
        }
        fractions.push(fraction_inside_sphere(&ens, Vec3::zero(), radius));
    }

    // Substantial escape within a few periods…
    let last = *fractions.last().unwrap();
    assert!(last < 0.7, "inside fraction after 6 periods: {last}");
    // …and the trend is broadly downward.
    assert!(fractions[6] < fractions[1]);
    // The survivors are relativistic: 0.1 PW fields have a₀ ≫ 1.
    assert!(mean_gamma(&ens) > 1.5, "mean γ = {}", mean_gamma(&ens));
}

#[test]
fn particles_never_exceed_light_speed() {
    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = dipole_wave::<f64>();
    let mut ens: AosEnsemble<f64> = build_ensemble(500, 7);
    let dt = bench_dt();
    let mut kernel = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
    for _ in 0..500 {
        ens.for_each_mut(&mut kernel);
        kernel.advance_time();
    }
    let e = table.get(SpeciesTable::<f64>::ELECTRON);
    for i in 0..ens.len() {
        let p = ens.get(i);
        let beta = p.velocity(e).norm() / LIGHT_VELOCITY;
        assert!(beta < 1.0, "particle {i}: β = {beta}");
        // γ cache consistent with momentum.
        let expect = pic_particles::particle::lorentz_gamma(p.momentum, ELECTRON_MASS);
        assert!((p.gamma - expect).abs() / expect < 1e-12);
    }
}

#[test]
fn single_and_double_precision_agree_statistically() {
    // Paper §3: "we did not observe any inaccuracies caused by the use of
    // single precision" in these benchmarks. Individual chaotic
    // trajectories diverge, but ensemble statistics must agree.
    let period = 2.0 * std::f64::consts::PI / BENCH_OMEGA;
    let steps = 400;
    let dt64 = period / 200.0;

    let run64 = {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = dipole_wave::<f64>();
        let mut ens: AosEnsemble<f64> = build_ensemble(3_000, 1);
        let mut kernel = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt64);
        for _ in 0..steps {
            ens.for_each_mut(&mut kernel);
            kernel.advance_time();
        }
        (
            mean_gamma(&ens),
            fraction_inside_sphere(&ens, Vec3::zero(), 0.6 * BENCH_WAVELENGTH),
        )
    };
    let run32 = {
        let table = SpeciesTable::<f32>::with_standard_species();
        let wave = dipole_wave::<f32>();
        let mut ens: AosEnsemble<f32> = build_ensemble(3_000, 1);
        let mut kernel = PushKernel::new(
            AnalyticalSource::new(&wave),
            BorisPusher,
            &table,
            dt64 as f32,
        );
        for _ in 0..steps {
            ens.for_each_mut(&mut kernel);
            kernel.advance_time();
        }
        (
            mean_gamma(&ens),
            fraction_inside_sphere(&ens, Vec3::zero(), 0.6 * BENCH_WAVELENGTH),
        )
    };
    let gamma_rel = (run64.0 - run32.0).abs() / run64.0;
    assert!(gamma_rel < 0.05, "mean γ: {} vs {}", run64.0, run32.0);
    assert!(
        (run64.1 - run32.1).abs() < 0.08,
        "inside fraction: {} vs {}",
        run64.1,
        run32.1
    );
}
