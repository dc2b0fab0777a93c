//! Set-up invariance: a run's seeded ensemble and its Precalculated
//! field table are the same bits whatever the number of threads that
//! write them.
//!
//! `append_ensemble_range` and `MdipoleScenario::prepare_on` split their
//! rows into one contiguous range per thread of the topology they are
//! given, no range shorter than `SETUP_PART_ROWS`, and
//! `build_ensemble_range` / `prepare` take the host's. Each is held here
//! against the one-thread result, bit for bit, at 1–5 threads, in both
//! layouts and both precisions, at sizes whose range edges fall off the
//! fill's 8-particle blocks and the kernel's lanes, and at sizes around
//! that floor, where a split takes fewer ranges than threads; rows
//! appended after particles already in the store are the range build's
//! rows.

use pic_math::Real;
use pic_particles::{AosEnsemble, ColumnSegment, ParticleAccess, ParticleStore, SoaEnsemble};
use pic_perfmodel::Scenario;
use pic_runtime::Topology;
use pic_sim::{append_ensemble_range, build_ensemble_range, MdipoleScenario, SETUP_PART_ROWS};

const SEED: u64 = 23;
/// Particle counts: none, one, both sides of a fill block, a
/// thousand, both sides of the set-up floor (one range, then two), two
/// floors and an odd tail (three ranges at three threads and more), and
/// a size whose static split lands off every block.
const SIZES: [usize; 11] = [
    0,
    1,
    7,
    8,
    9,
    1000,
    SETUP_PART_ROWS - 1,
    SETUP_PART_ROWS,
    SETUP_PART_ROWS + 1,
    2 * SETUP_PART_ROWS + 5,
    (1 << 17) + 3,
];

/// The `[offset, offset + n)` range of a `offset + n`-particle ensemble,
/// seeded on `threads` threads after `lead` particles already in the
/// store.
fn seeded<R: Real, S: ParticleStore<R>>(lead: usize, offset: usize, n: usize, threads: usize) -> S {
    let mut store: S = build_ensemble_range(lead, SEED + 1, 0, lead);
    let topology = Topology::single(threads);
    append_ensemble_range(&mut store, offset + n, SEED, offset, n, &topology);
    store
}

/// Every column's bits over rows `[from, from + len)`, in the segment
/// codec's byte order.
fn bytes<R: Real, A: ParticleAccess<R>>(store: &A, from: usize, len: usize) -> Vec<u8> {
    ColumnSegment::from_store(store, from, len).to_bytes()
}

/// The bits of a Precalculated context's table, column by column.
fn table_bits<R: Real>(ctx: MdipoleScenario<R>) -> Vec<u64> {
    let MdipoleScenario::Precalculated(pre) = ctx else {
        panic!("prepare(Precalculated) built another scenario");
    };
    (pre.columns().iter())
        .flat_map(|col| col.iter().map(|v| v.to_f64().to_bits()))
        .collect()
}

/// `store`'s table, sampled on `threads` threads.
fn table<R: Real, A: ParticleAccess<R>>(store: &A, threads: usize) -> Vec<u64> {
    let topology = Topology::single(threads);
    table_bits(MdipoleScenario::prepare_on(
        Scenario::Precalculated,
        store,
        &topology,
    ))
}

fn check<R: Real, S: ParticleStore<R>>() {
    for n in SIZES {
        for (lead, offset) in [(0, 0), (3, 13)] {
            let at =
                |threads: usize| format!("n {n}, lead {lead}, offset {offset}, {threads} threads");
            let own: S = build_ensemble_range(offset + n, SEED, offset, n);
            let one: S = seeded(lead, offset, n, 1);
            assert_eq!(one.len(), lead + n);
            let appended = bytes(&one, lead, n);
            assert!(
                appended == bytes(&own, 0, n),
                "not the range build: {}",
                at(1)
            );
            let (one_bytes, one_table) = (bytes(&one, 0, one.len()), table(&one, 1));
            for threads in 2..=5 {
                let many: S = seeded(lead, offset, n, threads);
                let whole = bytes(&many, 0, many.len());
                assert!(whole == one_bytes, "ensemble differs: {}", at(threads));
                assert!(
                    table(&many, threads) == one_table,
                    "table differs: {}",
                    at(threads)
                );
            }
            if lead == 0 {
                let host_table = MdipoleScenario::prepare(Scenario::Precalculated, &own);
                assert!(
                    table_bits(host_table) == one_table,
                    "host prepare differs: n {n}"
                );
            }
        }
    }
}

#[test]
fn soa_f32_set_up_is_thread_count_invariant() {
    check::<f32, SoaEnsemble<f32>>();
}

#[test]
fn soa_f64_set_up_is_thread_count_invariant() {
    check::<f64, SoaEnsemble<f64>>();
}

#[test]
fn aos_f32_set_up_is_thread_count_invariant() {
    check::<f32, AosEnsemble<f32>>();
}

#[test]
fn aos_f64_set_up_is_thread_count_invariant() {
    check::<f64, AosEnsemble<f64>>();
}
