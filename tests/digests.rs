//! The trajectory bits, pinned. Every scenario × precision × layout arm
//! of the job service (3 001 particles, 40 steps, one seed), one arm
//! split into K = 3 shards and one arm on a modeled device render their
//! final particle dump; its FNV-1a digest must equal the committed
//! table of the current `CACHE_SCHEMA`.
//!
//! The cache serves a repeat from a result keyed by `CACHE_SCHEMA`, so
//! a change that moves the bits must bump the schema. This test ties
//! the two: moved bits under the same schema fail here, and a bumped
//! schema fails until its table is added. CI also runs this test on a
//! build for `x86-64-v2` (no AVX, no FMA), so the bits are held to not
//! depend on the vector width either.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::{JobSpec, Outcome, ServeConfig, Server, CACHE_SCHEMA};

const PARTICLES: usize = 3_001;
const STEPS: usize = 40;
const SEED: u64 = 20_211;

/// Digest of every arm's dump, per cache schema.
const TABLES: &[(u64, &[(&str, u64)])] = &[(
    4,
    &[
        ("Analytical/F32/Soa", 0xb6f50e4e4319d770),
        ("Analytical/F32/Aos", 0xb6f50e4e4319d770),
        ("Analytical/F64/Soa", 0x1575580889ea24f4),
        ("Analytical/F64/Aos", 0x1575580889ea24f4),
        ("Precalculated/F32/Soa", 0xcf8cbe28f0983a56),
        ("Precalculated/F32/Aos", 0xcf8cbe28f0983a56),
        ("Precalculated/F64/Soa", 0xc91e0610b6ce30cd),
        ("Precalculated/F64/Aos", 0xc91e0610b6ce30cd),
        ("Analytical/F32/Soa/K3", 0xb6f50e4e4319d770),
        ("Analytical/F32/Soa/iris-xe-max", 0xb6f50e4e4319d770),
    ],
)];

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn spec(scenario: Scenario, precision: Precision, layout: Layout, device: &str) -> JobSpec {
    JobSpec {
        scenario,
        layout,
        precision,
        particles: PARTICLES,
        steps: STEPS,
        seed: SEED,
        return_particles: true,
        device: device.to_string(),
        ..JobSpec::default()
    }
}

/// Runs `spec` on a fresh server and returns the digest of its dump.
/// The cache is off, so every arm runs.
fn digest(spec: JobSpec, shards: usize) -> u64 {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        shard_threshold: if shards > 1 { 1_000 } else { 0 },
        shards,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "digests");
    let outcome = server.submit(spec, None).expect("admitted").wait();
    let Outcome::Completed(report) = outcome else {
        panic!("job did not complete: {outcome:?}");
    };
    assert_eq!(report.shards, if shards > 1 { shards } else { 0 });
    server.shutdown();
    fnv1a(report.particles.expect("dump requested").as_bytes())
}

#[test]
fn dump_digests_match_the_table_of_the_cache_schema() {
    let mut arms = Vec::new();
    for scenario in [Scenario::Analytical, Scenario::Precalculated] {
        for precision in [Precision::F32, Precision::F64] {
            for layout in [Layout::Soa, Layout::Aos] {
                let name = format!("{scenario:?}/{precision:?}/{layout:?}");
                arms.push((name, spec(scenario, precision, layout, "host"), 1));
            }
        }
    }
    let (s, p, l) = (Scenario::Analytical, Precision::F32, Layout::Soa);
    arms.push(("Analytical/F32/Soa/K3".into(), spec(s, p, l, "host"), 3));
    arms.push((
        "Analytical/F32/Soa/iris-xe-max".into(),
        spec(s, p, l, "iris-xe-max"),
        1,
    ));
    let got: Vec<(String, u64)> = arms
        .into_iter()
        .map(|(name, spec, shards)| (name, digest(spec, shards)))
        .collect();

    let rendered: String = got
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
        .collect();
    let Some((_, table)) = TABLES.iter().find(|(schema, _)| *schema == CACHE_SCHEMA) else {
        panic!("no digest table for CACHE_SCHEMA {CACHE_SCHEMA}; this build's:\n{rendered}");
    };
    let matches = got.len() == table.len()
        && got
            .iter()
            .zip(*table)
            .all(|((n, d), (tn, td))| n == tn && d == td);
    assert!(
        matches,
        "the dump bits moved under CACHE_SCHEMA {CACHE_SCHEMA}; this build's table:\n{rendered}"
    );
}
