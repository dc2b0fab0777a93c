//! Criterion micro-benchmarks of the push kernel itself: layout (AoS vs
//! SoA), precision (float vs double), scenario (precalculated vs
//! analytical field), and the scalar vs blocked (8-wide) kernel.
//!
//! These are real wall-clock measurements on this host; they quantify the
//! per-particle cost that the roofline model's flop counts describe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_bench::{bench_dt, build_ensemble, dipole_wave};
use pic_boris::{AnalyticalSource, BorisPusher, PrecalculatedSource, PushKernel, SoaBorisKernel};
use pic_fields::PrecalculatedFields;
use pic_math::Real;
use pic_particles::{AosEnsemble, ParticleAccess, ParticleKernel, SoaEnsemble, SpeciesTable};

const N: usize = 10_000;

fn sweep_analytical<R: Real, S: ParticleAccess<R>>(store: &mut S, table: &SpeciesTable<R>) {
    let wave = dipole_wave::<R>();
    let mut kernel = PushKernel::new(
        AnalyticalSource::new(&wave),
        BorisPusher,
        table,
        R::from_f64(bench_dt()),
    );
    store.for_each_mut(&mut kernel);
}

fn sweep_precalculated<R: Real, S: ParticleAccess<R>>(
    store: &mut S,
    pre: &PrecalculatedFields<R>,
    table: &SpeciesTable<R>,
) {
    let mut kernel = PushKernel::new(
        PrecalculatedSource::new(pre),
        BorisPusher,
        table,
        R::from_f64(bench_dt()),
    );
    store.for_each_mut(&mut kernel);
}

fn precalc_for<R: Real, S: ParticleAccess<R>>(store: &S) -> PrecalculatedFields<R> {
    let wave = dipole_wave::<R>();
    PrecalculatedFields::from_sampler(
        &wave,
        (0..store.len()).map(|i| store.get(i).position),
        R::ZERO,
    )
}

fn bench_layouts(c: &mut Criterion) {
    let table32 = SpeciesTable::<f32>::with_standard_species();
    let table64 = SpeciesTable::<f64>::with_standard_species();
    let mut group = c.benchmark_group("boris_sweep");
    group.throughput(Throughput::Elements(N as u64));

    let mut aos32: AosEnsemble<f32> = build_ensemble(N, 1);
    group.bench_function(BenchmarkId::new("analytical/aos", "f32"), |b| {
        b.iter(|| sweep_analytical(&mut aos32, &table32))
    });
    let mut soa32: SoaEnsemble<f32> = build_ensemble(N, 1);
    group.bench_function(BenchmarkId::new("analytical/soa", "f32"), |b| {
        b.iter(|| sweep_analytical(&mut soa32, &table32))
    });
    let mut aos64: AosEnsemble<f64> = build_ensemble(N, 1);
    group.bench_function(BenchmarkId::new("analytical/aos", "f64"), |b| {
        b.iter(|| sweep_analytical(&mut aos64, &table64))
    });
    let mut soa64: SoaEnsemble<f64> = build_ensemble(N, 1);
    group.bench_function(BenchmarkId::new("analytical/soa", "f64"), |b| {
        b.iter(|| sweep_analytical(&mut soa64, &table64))
    });

    let pre32 = precalc_for(&aos32);
    group.bench_function(BenchmarkId::new("precalculated/aos", "f32"), |b| {
        b.iter(|| sweep_precalculated(&mut aos32, &pre32, &table32))
    });
    let pre64 = precalc_for(&soa64);
    group.bench_function(BenchmarkId::new("precalculated/soa", "f64"), |b| {
        b.iter(|| sweep_precalculated(&mut soa64, &pre64, &table64))
    });
    group.finish();
}

fn bench_blocked(c: &mut Criterion) {
    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = dipole_wave::<f64>();
    let source = AnalyticalSource::new(&wave);
    let mut group = c.benchmark_group("scalar_vs_blocked");
    group.throughput(Throughput::Elements(N as u64));

    let mut scalar: SoaEnsemble<f64> = build_ensemble(N, 2);
    group.bench_function("scalar", |b| {
        b.iter(|| sweep_analytical(&mut scalar, &table))
    });

    let mut blocked: SoaEnsemble<f64> = build_ensemble(N, 2);
    group.bench_function("blocked8", |b| {
        b.iter(|| {
            let mut k = SoaBorisKernel::new(&source, &table, bench_dt(), 0.0);
            k.apply_chunk(&mut blocked)
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_layouts, bench_blocked
);
criterion_main!(benches);
