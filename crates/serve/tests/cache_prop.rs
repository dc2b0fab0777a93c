//! Property tests for the deterministic cache key.
//!
//! The key must be a *canonical* content hash: independent of JSON
//! field order on the wire, independent of per-process hasher seeding
//! (no `RandomState`), and injective across distinct physics
//! identities. The golden test pins the exact hash of the default spec,
//! so any accidental change to the key derivation — field order, the
//! separator, the schema constant — fails loudly instead of silently
//! orphaning every deployed cache.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::job::scenario_wire;
use pic_serve::{CacheKey, JobSpec, CACHE_SCHEMA};
use pic_telemetry::json::parse;
use proptest::prelude::*;

/// Physics identity fields only — the serving knobs are covered by the
/// unit tests and deliberately excluded from the key.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        (0usize..2).prop_map(|i| [Scenario::Analytical, Scenario::Precalculated][i]),
        (0usize..2).prop_map(|i| [Layout::Soa, Layout::Aos][i]),
        (0usize..2).prop_map(|i| [Precision::F32, Precision::F64][i]),
        1usize..100_000,
        1usize..10_000,
        // Seeds cross the JSON wire as f64 numbers; stay within exact
        // integer range so the round-trip is lossless.
        0u64..(1 << 53),
    )
        .prop_map(
            |(scenario, layout, precision, particles, steps, seed)| JobSpec {
                scenario,
                layout,
                precision,
                particles,
                steps,
                seed,
                ..JobSpec::default()
            },
        )
}

fn identity(spec: &JobSpec) -> (Scenario, Layout, Precision, usize, usize, u64) {
    (
        spec.scenario,
        spec.layout,
        spec.precision,
        spec.particles,
        spec.steps,
        spec.seed,
    )
}

/// The spec's wire fields as standalone JSON `"name":value` fragments,
/// ready to be joined in any order.
fn wire_fields(spec: &JobSpec) -> Vec<String> {
    vec![
        format!("\"scenario\":\"{}\"", scenario_wire(spec.scenario)),
        format!("\"layout\":\"{}\"", spec.layout.name()),
        format!("\"precision\":\"{}\"", spec.precision.name()),
        format!("\"particles\":{}", spec.particles),
        format!("\"steps\":{}", spec.steps),
        format!("\"seed\":{}", spec.seed),
    ]
}

/// Seed-driven Fisher–Yates: a deterministic permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, next() as usize % (i + 1));
    }
    idx
}

proptest! {
    /// The key survives arbitrary JSON field reordering: any permutation
    /// of the wire object parses to the same spec and the same key.
    #[test]
    fn key_is_stable_across_json_field_reordering(
        spec in spec_strategy(),
        perm_seed in 0u64..u64::MAX,
    ) {
        let fields = wire_fields(&spec);
        let shuffled: Vec<&str> = permutation(fields.len(), perm_seed)
            .into_iter()
            .map(|i| fields[i].as_str())
            .collect();
        let line = format!("{{{}}}", shuffled.join(","));
        let parsed = JobSpec::from_value(&parse(&line).expect("wire JSON"))
            .expect("wire spec");
        prop_assert_eq!(identity(&parsed), identity(&spec));
        prop_assert_eq!(CacheKey::of(&parsed), CacheKey::of(&spec));
    }

    /// Distinct physics identities never share a key; equal identities
    /// always do.
    #[test]
    fn distinct_identities_never_collide(
        a in spec_strategy(),
        b in spec_strategy(),
    ) {
        if identity(&a) == identity(&b) {
            prop_assert_eq!(CacheKey::of(&a), CacheKey::of(&b));
        } else {
            prop_assert_ne!(CacheKey::of(&a), CacheKey::of(&b));
        }
    }

    /// The wire round-trip (spec → JSON → spec) is key-preserving even
    /// with the serving knobs present.
    #[test]
    fn wire_round_trip_preserves_the_key(spec in spec_strategy()) {
        let line = spec.to_value().to_json();
        let back = JobSpec::from_value(&parse(&line).expect("round-trip JSON"))
            .expect("round-trip spec");
        prop_assert_eq!(CacheKey::of(&back), CacheKey::of(&spec));
    }
}

/// Cross-process stability: FNV-1a is seedless, so the same spec hashes
/// to the same 64-bit value in every process, on every run, on every
/// platform. The literal below was computed once and must never drift
/// while `CACHE_SCHEMA == 4` — a drift means every deployed cache would
/// be silently orphaned.
#[test]
fn default_spec_hash_is_pinned() {
    assert_eq!(CACHE_SCHEMA, 4, "bumping the schema re-pins this test");
    let hash = CacheKey::of(&JobSpec::default()).hash();
    assert_eq!(
        hash, 0xFEB6_5D1C_74A7_AF56,
        "canonical hash of the default spec drifted: 0x{hash:016X}"
    );
}
