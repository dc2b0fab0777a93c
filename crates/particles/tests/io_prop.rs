//! Property tests for the ensemble text format: round-trips are exact
//! for arbitrary finite particles in both layouts and both precisions,
//! and truncated/corrupted inputs fail loudly with `InvalidData` rather
//! than silently yielding a short ensemble.

use pic_math::{Real, Vec3};
use pic_particles::io::{read_ensemble, write_ensemble, HEADER};
use pic_particles::sort::invert_perm;
use pic_particles::{
    AosEnsemble, ColumnSegment, Particle, ParticleAccess, ParticleStore, SoaEnsemble, SpeciesId,
};
use proptest::prelude::*;
use std::io::ErrorKind;

/// Finite, sign-mixed magnitudes spanning the scales the benchmark
/// actually uses (positions ~1e-5 m, momenta ~1e-18 kg·m/s) and far
/// beyond: mantissa in (-1, 1), decimal exponent in [-30, 30].
fn field() -> impl Strategy<Value = f64> {
    ((-30i32..31), (-1.0f64..1.0)).prop_map(|(e, m)| m * 10f64.powi(e))
}

fn triple() -> impl Strategy<Value = Vec3<f64>> {
    (field(), field(), field()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn particle() -> impl Strategy<Value = Particle<f64>> {
    (triple(), triple(), field(), (1.0f64..1e3), (0u16..u16::MAX)).prop_map(
        |(position, momentum, weight, gamma, species)| Particle {
            position,
            momentum,
            weight,
            gamma,
            species: SpeciesId(species),
        },
    )
}

fn particles() -> impl Strategy<Value = Vec<Particle<f64>>> {
    proptest::collection::vec(particle(), 0..32)
}

fn write_to_string<R: Real, A: ParticleAccess<R>>(store: &A) -> String {
    let mut buf = Vec::new();
    write_ensemble(store, &mut buf).expect("write to Vec cannot fail");
    String::from_utf8(buf).expect("text format is UTF-8")
}

/// `ps` narrowed to `R`, in layout `S`.
fn store_of<R: Real, S: ParticleStore<R>>(ps: &[Particle<f64>]) -> S {
    S::from_particles(ps.iter().map(|p| Particle {
        position: Vec3::from_f64(p.position),
        momentum: Vec3::from_f64(p.momentum),
        weight: R::from_f64(p.weight),
        gamma: R::from_f64(p.gamma),
        species: p.species,
    }))
}

/// Capturing through a permutation and splicing through its inverse is
/// the identity, and a captured segment's text is the store's dump.
fn segment_round_trips<R: Real, S: ParticleStore<R>>(
    ps: &[Particle<f64>],
    perm: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let store: S = store_of(ps);
    let n = store.len();
    let shuffled = ColumnSegment::capture(&store, 0, n, Some(perm));
    let mut back: S = store_of(&vec![Particle::default(); n]);
    shuffled.splice_into(&mut back, 0, Some(&invert_perm(perm)));
    for i in 0..n {
        prop_assert_eq!(store.get(i), back.get(i));
    }
    let mut text = format!("{HEADER}\n").into_bytes();
    ColumnSegment::from_store(&store, 0, n)
        .write_text(&mut text)
        .expect("write to Vec cannot fail");
    prop_assert_eq!(
        String::from_utf8(text).expect("UTF-8"),
        write_to_string(&store)
    );
    Ok(())
}

proptest! {
    #[test]
    fn segments_round_trip_through_any_order(
        ps in particles(),
        keys in proptest::collection::vec(0u32..u32::MAX, 32),
    ) {
        // A random permutation of 0..n: the argsort of random keys.
        let mut perm: Vec<usize> = (0..ps.len()).collect();
        perm.sort_by_key(|&i| keys[i]);
        segment_round_trips::<f64, AosEnsemble<f64>>(&ps, &perm)?;
        segment_round_trips::<f64, SoaEnsemble<f64>>(&ps, &perm)?;
        segment_round_trips::<f32, AosEnsemble<f32>>(&ps, &perm)?;
        segment_round_trips::<f32, SoaEnsemble<f32>>(&ps, &perm)?;
    }

    #[test]
    fn aos_f64_roundtrip_is_exact(ps in particles()) {
        let ens: AosEnsemble<f64> = ps.iter().copied().collect();
        let text = write_to_string(&ens);
        let back: AosEnsemble<f64> = read_ensemble(text.as_bytes()).expect("parse");
        prop_assert_eq!(&ens, &back);
    }

    #[test]
    fn soa_f64_roundtrip_is_exact(ps in particles()) {
        let ens: SoaEnsemble<f64> = ps.iter().copied().collect();
        let text = write_to_string(&ens);
        let back: SoaEnsemble<f64> = read_ensemble(text.as_bytes()).expect("parse");
        prop_assert_eq!(back.len(), ens.len());
        for i in 0..ens.len() {
            prop_assert_eq!(ens.get(i), back.get(i));
        }
    }

    #[test]
    fn layouts_agree_on_the_same_text(ps in particles()) {
        let aos: AosEnsemble<f64> = ps.iter().copied().collect();
        let text = write_to_string(&aos);
        let soa: SoaEnsemble<f64> = read_ensemble(text.as_bytes()).expect("parse");
        for i in 0..aos.len() {
            prop_assert_eq!(aos.get(i), soa.get(i));
        }
    }

    // An f32 widens to f64 exactly, `{:e}` round-trips the f64, and
    // the final f64→f32 conversion recovers the original bits — so even
    // float ensembles round-trip exactly, not just approximately.
    #[test]
    fn f32_roundtrip_is_exact_in_both_layouts(ps in particles()) {
        let aos: AosEnsemble<f32> = ps
            .iter()
            .map(|p| Particle {
                position: Vec3::from_f64(p.position),
                momentum: Vec3::from_f64(p.momentum),
                weight: p.weight as f32,
                gamma: p.gamma as f32,
                species: p.species,
            })
            .collect();
        let text = write_to_string(&aos);
        let back_aos: AosEnsemble<f32> = read_ensemble(text.as_bytes()).expect("parse");
        prop_assert_eq!(&aos, &back_aos);
        let back_soa: SoaEnsemble<f32> = read_ensemble(text.as_bytes()).expect("parse");
        for i in 0..aos.len() {
            prop_assert_eq!(aos.get(i), back_soa.get(i));
        }
    }

    // Truncation that cuts fields off a record must surface as
    // InvalidData — never as a silently shorter ensemble.
    #[test]
    fn truncated_records_are_invalid_data(
        ps in proptest::collection::vec(particle(), 1..16),
        victim in (0usize..1_000_000),
        keep in 1usize..9,
    ) {
        let ens: AosEnsemble<f64> = ps.iter().copied().collect();
        let text = write_to_string(&ens);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        // lines[0] is the header; pick a data line and drop fields.
        let line = 1 + victim % ens.len();
        let fields: Vec<&str> = lines[line].split_whitespace().collect();
        lines[line] = fields[..keep].join(" ");
        let mangled = lines.join("\n");
        let err = read_ensemble::<f64, AosEnsemble<f64>, _>(mangled.as_bytes())
            .expect_err("truncated record must not parse");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_numbers_are_invalid_data(
        ps in proptest::collection::vec(particle(), 1..8),
        victim in (0usize..1_000_000),
        column in 0usize..9,
    ) {
        let ens: AosEnsemble<f64> = ps.iter().copied().collect();
        let text = write_to_string(&ens);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line = 1 + victim % ens.len();
        let mut fields: Vec<String> =
            lines[line].split_whitespace().map(str::to_owned).collect();
        fields[column] = "bogus".to_string();
        lines[line] = fields.join(" ");
        let mangled = lines.join("\n");
        let err = read_ensemble::<f64, AosEnsemble<f64>, _>(mangled.as_bytes())
            .expect_err("corrupted field must not parse");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
