//! Integration: checkpoint/restart through the ensemble I/O module.
//!
//! A long benchmark run must be resumable: write the ensemble to a
//! snapshot mid-run, reload it (in either layout), continue, and land on
//! exactly the same state as the uninterrupted run.

use pic_bench::{bench_dt, build_ensemble, dipole_wave};
use pic_boris::{AnalyticalSource, BorisPusher, PushKernel};
use pic_math::Real;
use pic_particles::io::{read_ensemble, write_ensemble};
use pic_particles::{AosEnsemble, ParticleAccess, SoaEnsemble, SpeciesTable};

fn push_steps<R: Real, S: ParticleAccess<R>>(ens: &mut S, steps: usize, start_step: usize) {
    let table = SpeciesTable::<R>::with_standard_species();
    let wave = dipole_wave::<R>();
    let dt = R::from_f64(bench_dt());
    let mut kernel = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
    // Reconstruct the clock exactly as the uninterrupted run built it —
    // by repeated accumulation, not one multiplication (the two differ in
    // the last ulp, which a bitwise restart comparison would see).
    let mut t = R::ZERO;
    for _ in 0..start_step {
        t += dt;
    }
    kernel.set_time(t);
    for _ in 0..steps {
        ens.for_each_mut(&mut kernel);
        kernel.advance_time();
    }
}

#[test]
fn checkpoint_restart_is_exact() {
    // Uninterrupted reference: 60 steps.
    let mut reference: AosEnsemble<f64> = build_ensemble(500, 17);
    push_steps(&mut reference, 60, 0);

    // Interrupted run: 25 steps, snapshot, restart, 35 more.
    let mut first_leg: AosEnsemble<f64> = build_ensemble(500, 17);
    push_steps(&mut first_leg, 25, 0);
    let mut snapshot = Vec::new();
    write_ensemble(&first_leg, &mut snapshot).expect("write snapshot");

    let mut resumed: AosEnsemble<f64> = read_ensemble(snapshot.as_slice()).expect("read");
    push_steps(&mut resumed, 35, 25);

    for i in 0..reference.len() {
        assert_eq!(reference.get(i), resumed.get(i), "particle {i} diverged");
    }
}

#[test]
fn checkpoint_can_switch_layouts() {
    // Snapshot an AoS run, resume it as SoA: identical physics.
    let mut reference: SoaEnsemble<f64> = build_ensemble(300, 4);
    push_steps(&mut reference, 40, 0);

    let mut aos_leg: AosEnsemble<f64> = build_ensemble(300, 4);
    push_steps(&mut aos_leg, 20, 0);
    let mut snapshot = Vec::new();
    write_ensemble(&aos_leg, &mut snapshot).unwrap();
    let mut soa_leg: SoaEnsemble<f64> = read_ensemble(snapshot.as_slice()).unwrap();
    push_steps(&mut soa_leg, 20, 20);

    for i in 0..reference.len() {
        assert_eq!(reference.get(i), soa_leg.get(i), "particle {i}");
    }
}

#[test]
fn f32_checkpoint_restart_is_exact_in_aos() {
    // The snapshot text holds each f32 at its shortest round-trip digits
    // and is parsed back as f32, so the f32 round-trip must be bitwise
    // too.
    let mut reference: AosEnsemble<f32> = build_ensemble(200, 9);
    push_steps(&mut reference, 30, 0);

    let mut first_leg: AosEnsemble<f32> = build_ensemble(200, 9);
    push_steps(&mut first_leg, 12, 0);
    let mut snapshot = Vec::new();
    write_ensemble(&first_leg, &mut snapshot).expect("write snapshot");

    let mut resumed: AosEnsemble<f32> = read_ensemble(snapshot.as_slice()).expect("read");
    push_steps(&mut resumed, 18, 12);

    for i in 0..reference.len() {
        assert_eq!(reference.get(i), resumed.get(i), "f32 aos particle {i}");
    }
}

#[test]
fn f32_checkpoint_restart_is_exact_in_soa() {
    let mut reference: SoaEnsemble<f32> = build_ensemble(240, 21);
    push_steps(&mut reference, 36, 0);

    let mut first_leg: SoaEnsemble<f32> = build_ensemble(240, 21);
    push_steps(&mut first_leg, 15, 0);
    let mut snapshot = Vec::new();
    write_ensemble(&first_leg, &mut snapshot).expect("write snapshot");

    let mut resumed: SoaEnsemble<f32> = read_ensemble(snapshot.as_slice()).expect("read");
    push_steps(&mut resumed, 21, 15);

    for i in 0..reference.len() {
        assert_eq!(reference.get(i), resumed.get(i), "f32 soa particle {i}");
    }
}

#[test]
fn truncated_snapshot_is_invalid_data_not_a_panic() {
    let ens: SoaEnsemble<f64> = build_ensemble(5, 3);
    let mut snapshot = Vec::new();
    write_ensemble(&ens, &mut snapshot).unwrap();
    let text = String::from_utf8(snapshot).unwrap();
    // Cut mid-way through the last particle line: the partial row can
    // never have its nine fields, so the reader must surface a clean
    // InvalidData error instead of panicking or silently accepting.
    let last_row_start = text.trim_end().rfind('\n').expect("multi-line snapshot") + 1;
    let cut = &text.as_bytes()[..last_row_start + 5];
    let err = read_ensemble::<f64, SoaEnsemble<f64>, _>(cut).expect_err("truncated snapshot");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn snapshot_format_is_self_describing() {
    let ens: AosEnsemble<f64> = build_ensemble(3, 1);
    let mut out = Vec::new();
    write_ensemble(&ens, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with(pic_particles::io::HEADER));
    assert_eq!(text.lines().count(), 4); // header + 3 particles
}
