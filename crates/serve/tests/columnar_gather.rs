//! Columnar gather: the zero-copy splice path of the sharding layer.
//!
//! Shard sub-jobs hand their slice of the ensemble back to the gather
//! as a typed [`ColumnSegment`] instead of rendered text; the gather
//! splices the segments in plan order and renders the io text format
//! exactly once. This suite proves the splice is lossless end to end:
//! for every layout × precision combination, segments cut along a
//! [`ShardPlan`] and merged by [`merge_segments`] must be **bitwise
//! identical** to the monolithic [`write_ensemble`] dump — the same
//! guarantee the legacy text-concatenation gather gave, now without
//! re-parsing. The byte codec underneath (`to_bytes`/`from_bytes`)
//! must round-trip exactly and refuse truncated or corrupted streams
//! with `InvalidData` rather than fabricating particles.

use pic_bench::{build_ensemble, build_ensemble_range};
use pic_math::Real;
use pic_particles::io::{read_ensemble, write_ensemble};
use pic_particles::{AosEnsemble, ColumnSegment, ParticleAccess, ParticleStore, SoaEnsemble};
use pic_serve::frontend::serve_lines;
use pic_serve::{merge_segments, ServeConfig, Server, ShardPlan};
use pic_telemetry::json::{parse, Value};
use std::io::{Cursor, ErrorKind};

const PARTICLES: usize = 41;
const SEED: u64 = 77;

/// Monolithic reference dump for `S`, via the io text writer.
fn reference<R: Real, S: ParticleStore<R>>() -> String {
    let store: S = build_ensemble(PARTICLES, SEED);
    let mut buf: Vec<u8> = Vec::new();
    write_ensemble(&store, &mut buf).expect("write");
    String::from_utf8(buf).expect("utf8")
}

/// Segments cut along `plan` exactly like shard sub-jobs produce them:
/// each from its own range-seeded ensemble, never from the monolith.
fn segments<R: Real, S: ParticleStore<R>>(plan: &ShardPlan) -> Vec<ColumnSegment> {
    plan.ranges()
        .iter()
        .map(|&(offset, len)| {
            let own: S = build_ensemble_range(PARTICLES, SEED, offset, len);
            ColumnSegment::from_store(&own, 0, own.len())
        })
        .collect()
}

fn check_layout<R: Real, S: ParticleStore<R>>(tag: &str) {
    let reference = reference::<R, S>();
    for k in [1usize, 2, 3, 8] {
        let plan = ShardPlan::new(PARTICLES, k);
        let segs = segments::<R, S>(&plan);
        let refs: Vec<&ColumnSegment> = segs.iter().collect();
        let merged = merge_segments(&refs).expect("non-empty merge");
        assert_eq!(
            merged, reference,
            "{tag}: K={k} spliced segments must render the monolithic dump bitwise"
        );
        // The wire codec is lossless too: a segment that crossed a
        // byte boundary (checkpoint file, socket) splices identically.
        let reround: Vec<ColumnSegment> = segs
            .iter()
            .map(|s| ColumnSegment::from_bytes(&s.to_bytes()).expect("round-trip"))
            .collect();
        let reround_refs: Vec<&ColumnSegment> = reround.iter().collect();
        assert_eq!(
            merge_segments(&reround_refs).expect("non-empty merge"),
            reference,
            "{tag}: K={k} byte round-trip stays bitwise"
        );
    }
}

#[test]
fn spliced_segments_match_the_monolithic_dump_bitwise() {
    check_layout::<f32, SoaEnsemble<f32>>("SoA/f32");
    check_layout::<f64, SoaEnsemble<f64>>("SoA/f64");
    check_layout::<f32, AosEnsemble<f32>>("AoS/f32");
    check_layout::<f64, AosEnsemble<f64>>("AoS/f64");
}

/// The monolithic exit renders through the same segments: the dump a
/// served job returns on the wire parses back through the io reader.
#[test]
fn return_particles_round_trips_through_particle_io() {
    let input = r#"{"op":"submit","spec":{"particles":8,"steps":1,"layout":"aos","return_particles":true}}"#;
    let server = Server::start(ServeConfig::default(), "dump-io");
    let out = serve_lines(server, Cursor::new(input), Vec::<u8>::new()).expect("serve_lines");
    let text = String::from_utf8(out.output).expect("utf8");
    let completed = text
        .lines()
        .find(|l| l.contains("\"completed\""))
        .expect("completed line");
    let v = parse(completed).expect("json");
    let dump = v.get("particles").and_then(Value::as_str).expect("dump");
    let store: AosEnsemble<f32> = read_ensemble(dump.as_bytes()).expect("parses back");
    assert_eq!(store.len(), 8);
}

#[test]
fn empty_merge_yields_none() {
    assert_eq!(merge_segments(&[]), None);
}

#[test]
fn truncated_segment_bytes_are_invalid_data() {
    let store: SoaEnsemble<f64> = build_ensemble(7, SEED);
    let bytes = ColumnSegment::from_store(&store, 0, 7).to_bytes();
    // Every proper prefix must be rejected as truncation, including the
    // ones that cut a column mid-value.
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        let err = ColumnSegment::from_bytes(&bytes[..cut]).expect_err("truncated");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "cut at {cut}");
    }
}

#[test]
fn mismatched_segment_bytes_are_invalid_data() {
    let store: SoaEnsemble<f64> = build_ensemble(7, SEED);
    let good = ColumnSegment::from_store(&store, 0, 7).to_bytes();
    // Wrong magic: not a segment stream at all.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    let err = ColumnSegment::from_bytes(&bad_magic).expect_err("bad magic");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    // Trailing bytes: a stream whose declared length mismatches its
    // payload must not be silently accepted.
    let mut trailing = good;
    trailing.push(0);
    let err = ColumnSegment::from_bytes(&trailing).expect_err("trailing");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}
