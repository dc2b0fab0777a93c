//! Integration tests of the observability layer: sweep accounting under
//! every schedule, BenchRecord persistence, and the regression gate.

use pic_bench::{bench_record, measure_nsps, BenchConfig};
use pic_particles::{AosEnsemble, DynKernel, Layout, ParticleStore, ParticleView};
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::{parallel_sweep, Schedule, Topology};
use pic_sim::KernelVariant;
use pic_telemetry::{compare, read_records, write_records, BenchRecord, Registry, SCHEMA_VERSION};
use std::path::PathBuf;

fn every_schedule() -> [Schedule; 3] {
    [
        Schedule::StaticChunks,
        Schedule::dynamic(),
        Schedule::numa(),
    ]
}

fn tagged_ensemble(n: usize) -> AosEnsemble<f64> {
    AosEnsemble::from_particles((0..n).map(|_| pic_particles::Particle::default()))
}

#[test]
fn sweep_totals_equal_ensemble_size_under_every_schedule() {
    // 1009 is prime, so no grain size divides it — every schedule has a
    // ragged tail chunk to account for.
    let n = 1009;
    for topo in [
        Topology::single(1),
        Topology::single(4),
        Topology::uniform(2, 3),
    ] {
        for schedule in every_schedule() {
            let mut ens = tagged_ensemble(n);
            let report = parallel_sweep(&mut ens, &topo, schedule, |_tid| {
                DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
                    let w = v.weight();
                    v.set_weight(w + 1.0);
                })
            });
            assert_eq!(
                report.total_particles(),
                n,
                "{schedule:?} on {} threads",
                topo.total_threads()
            );
            assert!(report.total_chunks() >= 1);
            // Multi-thread runs report the busiest/mean ratio (>= 1.0);
            // single-thread runs have no imbalance and report 0.0.
            if report.threads.len() > 1 {
                assert!(report.imbalance() >= 1.0);
            } else {
                assert_eq!(report.imbalance(), 0.0);
            }
            // Each report row carries a valid domain.
            for t in &report.threads {
                assert!(t.domain < topo.domains());
            }
        }
    }
}

#[test]
fn sweep_busy_time_is_captured_and_drains_into_registry() {
    let n = 40_000;
    let topo = Topology::single(4);
    let registry = Registry::new(topo.total_threads());
    for _ in 0..3 {
        let mut ens = tagged_ensemble(n);
        let report = parallel_sweep(&mut ens, &topo, Schedule::dynamic(), |_tid| {
            DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
                let w = v.weight();
                v.set_weight((w + 1.5).sqrt());
            })
        });
        report.record_into(&registry);
    }
    let grand = registry.grand_totals();
    assert_eq!(grand.particles, 3 * n as u64);
    assert!(
        grand.busy_ns > 0,
        "telemetry feature should time kernel work"
    );
}

#[test]
fn measured_run_accounts_for_every_particle_step() {
    let cfg = BenchConfig {
        particles: 3_000,
        steps_per_iteration: 4,
        iterations: 2,
    };
    let topo = Topology::uniform(2, 2);
    for schedule in every_schedule() {
        let run = measure_nsps::<f32>(Layout::Soa, Scenario::Precalculated, &cfg, &topo, schedule);
        let total: u64 = run.thread_stats.iter().map(|t| t.particles).sum();
        let expect = (cfg.particles * cfg.steps_per_iteration * cfg.iterations) as u64;
        assert_eq!(total, expect, "{schedule:?}");
        assert_eq!(run.iteration_ns.len(), cfg.iterations);
        assert_eq!(run.nsps_series().len(), cfg.iterations);
        assert!(run.imbalance() >= 1.0);
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("boris_oneapi_telemetry_it");
    #[allow(clippy::unwrap_used)] // test helper; tmpdir creation is infallible in CI
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn bench_record_round_trips_through_a_file() {
    let cfg = BenchConfig::quick();
    let topo = Topology::single(2);
    let schedule = Schedule::StaticChunks;
    let run = measure_nsps::<f32>(Layout::Aos, Scenario::Analytical, &cfg, &topo, schedule);
    let rec = bench_record(
        "roundtrip",
        Layout::Aos,
        Scenario::Analytical,
        Precision::F32,
        schedule,
        KernelVariant::SoaFast,
        &topo,
        &cfg,
        &run,
    );
    assert_eq!(rec.schema, SCHEMA_VERSION);
    let path = temp_path("BENCH_roundtrip.json");
    write_records(&path, std::slice::from_ref(&rec)).unwrap();
    let back = read_records(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(back, vec![rec]);
}

#[test]
fn regression_gate_flags_a_2x_slowdown_and_passes_identical_records() {
    let cfg = BenchConfig::quick();
    let topo = Topology::single(1);
    let schedule = Schedule::StaticChunks;
    let run = measure_nsps::<f32>(Layout::Soa, Scenario::Precalculated, &cfg, &topo, schedule);
    let baseline = bench_record(
        "base",
        Layout::Soa,
        Scenario::Precalculated,
        Precision::F32,
        schedule,
        KernelVariant::SoaFast,
        &topo,
        &cfg,
        &run,
    );

    // Identical records pass at the default 10% threshold.
    let same = compare(
        std::slice::from_ref(&baseline),
        std::slice::from_ref(&baseline),
        0.10,
    );
    assert!(same.passed());
    assert_eq!(same.comparisons.len(), 1);

    // An injected 2x slowdown fails, matched by configuration key.
    let mut slowed = baseline.clone();
    slowed.label = "slow".into();
    slowed.steady_nsps *= 2.0;
    slowed.iteration_ns = baseline.iteration_ns.iter().map(|ns| ns * 2.0).collect();
    let report = compare(std::slice::from_ref(&baseline), &[slowed], 0.10);
    assert!(!report.passed());
    assert_eq!(report.regressions().len(), 1);
    assert!((report.regressions()[0].delta - 1.0).abs() < 1e-12);

    // The gate reads its inputs from disk in production: exercise the
    // file path end to end as the `regress` binary does.
    let base_path = temp_path("BENCH_gate_base.json");
    write_records(&base_path, std::slice::from_ref(&baseline)).unwrap();
    let loaded = read_records(&base_path).unwrap();
    std::fs::remove_file(&base_path).unwrap();
    assert!(compare(&loaded, &[baseline], 0.10).passed());
}

#[test]
fn unknown_schema_versions_are_rejected_not_misread() {
    let line = format!(r#"{{"schema": {}}}"#, SCHEMA_VERSION + 1);
    let err = BenchRecord::from_json(&line).unwrap_err();
    assert!(err.to_string().contains("schema version"), "{err}");
}
