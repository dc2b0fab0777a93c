//! Cross-crate integration: ensembles × field sources × pushers × runtime
//! schedules, exercised together through the public API.

use pic_bench::BenchConfig;
use pic_boris::{AnalyticalSource, BorisPusher, SharedPushKernel};
use pic_fields::PrecalculatedFields;
use pic_particles::{AosEnsemble, Layout, ParticleAccess, SoaEnsemble, SpeciesTable};
use pic_perfmodel::Scenario;
use pic_runtime::{parallel_sweep, Schedule, Topology};
use pic_sim::{bench_dt, build_ensemble, dipole_wave};

fn run_steps<S: ParticleAccess<f64>>(
    store: &mut S,
    topology: &Topology,
    schedule: Schedule,
    steps: usize,
) {
    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = dipole_wave::<f64>();
    let source = AnalyticalSource::new(&wave);
    let dt = bench_dt();
    let mut time = 0.0;
    for _ in 0..steps {
        let shared = SharedPushKernel {
            source: &source,
            pusher: BorisPusher,
            table: &table,
            dt,
            time,
        };
        parallel_sweep(store, topology, schedule, |_| shared.to_kernel());
        time += dt;
    }
}

#[test]
fn every_schedule_produces_the_serial_result() {
    let serial = {
        let mut ens: SoaEnsemble<f64> = build_ensemble(2_000, 10);
        run_steps(&mut ens, &Topology::single(1), Schedule::StaticChunks, 20);
        ens
    };
    for schedule in [
        Schedule::StaticChunks,
        Schedule::dynamic(),
        Schedule::numa(),
    ] {
        for topo in [Topology::single(3), Topology::uniform(2, 2)] {
            let mut ens: SoaEnsemble<f64> = build_ensemble(2_000, 10);
            run_steps(&mut ens, &topo, schedule, 20);
            for i in 0..ens.len() {
                assert_eq!(
                    ens.get(i),
                    serial.get(i),
                    "particle {i} diverged under {schedule:?} / {topo:?}"
                );
            }
        }
    }
}

#[test]
fn layouts_agree_under_parallel_execution() {
    let mut aos: AosEnsemble<f64> = build_ensemble(3_000, 99);
    let mut soa: SoaEnsemble<f64> = build_ensemble(3_000, 99);
    let topo = Topology::uniform(2, 2);
    run_steps(&mut aos, &topo, Schedule::dynamic(), 15);
    run_steps(&mut soa, &topo, Schedule::numa(), 15);
    for i in 0..aos.len() {
        assert_eq!(aos.get(i), soa.get(i), "particle {i}");
    }
}

#[test]
fn precalculated_scenario_uses_global_indices_across_chunks() {
    // A precalculated array addressed by global particle index must
    // produce the same result however the ensemble is chunked.
    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = dipole_wave::<f64>();
    let dt = bench_dt();

    let base: SoaEnsemble<f64> = build_ensemble(1_111, 4);
    let positions: Vec<_> = (0..base.len()).map(|i| base.get(i).position).collect();
    let pre = PrecalculatedFields::from_sampler(&wave, positions, 0.0);

    let run = |topology: &Topology, schedule: Schedule| -> SoaEnsemble<f64> {
        let mut ens: SoaEnsemble<f64> = build_ensemble(1_111, 4);
        let source = pic_boris::PrecalculatedSource::new(&pre);
        let shared = SharedPushKernel {
            source: &source,
            pusher: BorisPusher,
            table: &table,
            dt,
            time: 0.0,
        };
        parallel_sweep(&mut ens, topology, schedule, |_| shared.to_kernel());
        ens
    };

    let serial = run(&Topology::single(1), Schedule::StaticChunks);
    let tiny_grains = run(&Topology::uniform(2, 2), Schedule::Dynamic { grain: 7 });
    let numa = run(
        &Topology::uniform(2, 3),
        Schedule::NumaDomains { grain: 13 },
    );
    for i in 0..serial.len() {
        assert_eq!(serial.get(i), tiny_grains.get(i), "dynamic particle {i}");
        assert_eq!(serial.get(i), numa.get(i), "numa particle {i}");
    }
}

#[test]
fn energy_grows_from_rest_in_the_wave() {
    // Physics smoke test across the full pipeline: the wave accelerates
    // the initially resting ensemble.
    let mut ens: AosEnsemble<f64> = build_ensemble(500, 3);
    run_steps(&mut ens, &Topology::default(), Schedule::dynamic(), 100);
    let table = SpeciesTable::<f64>::with_standard_species();
    let energy = pic_boris::diag::kinetic_energy(&ens, &table);
    assert!(energy > 0.0);
    let mg = pic_boris::diag::mean_gamma(&ens);
    assert!(mg > 1.0, "mean γ = {mg}");
    // γ stays finite and consistent.
    for i in 0..ens.len() {
        let p = ens.get(i);
        assert!(p.gamma.is_finite());
        assert!(p.position.is_finite());
    }
}

#[test]
fn bench_harness_matches_direct_execution_cost_metricwise() {
    // The harness must do exactly particles × steps pushes per iteration.
    let cfg = BenchConfig::quick();
    let run = pic_bench::measure_nsps::<f32>(
        Layout::Soa,
        Scenario::Analytical,
        &cfg,
        &Topology::single(1),
        Schedule::StaticChunks,
    );
    assert_eq!(run.work, cfg.particles * cfg.steps_per_iteration);
    assert_eq!(run.iteration_ns.len(), cfg.iterations);
}

#[test]
fn sorted_ensemble_produces_same_physics() {
    use pic_math::Vec3;
    use pic_particles::sort::{sort_by_morton, CellGrid};

    let lambda = pic_math::constants::BENCH_WAVELENGTH;
    let grid = CellGrid::new(Vec3::splat(-lambda), Vec3::splat(lambda), [16, 16, 16]);
    let mut sorted: AosEnsemble<f64> = build_ensemble(2_000, 5);
    sort_by_morton(&mut sorted, &grid);
    let mut unsorted: AosEnsemble<f64> = build_ensemble(2_000, 5);

    run_steps(&mut sorted, &Topology::single(2), Schedule::dynamic(), 10);
    run_steps(&mut unsorted, &Topology::single(2), Schedule::dynamic(), 10);

    // Same multiset of particles (order differs).
    let table = SpeciesTable::<f64>::with_standard_species();
    let e_sorted = pic_boris::diag::kinetic_energy(&sorted, &table);
    let e_unsorted = pic_boris::diag::kinetic_energy(&unsorted, &table);
    assert!((e_sorted - e_unsorted).abs() / e_unsorted < 1e-12);
}
