//! Property tests for the ensemble text format: a segment's text is the
//! rows `{:e}` prints, whatever the row count, the mix of values and the
//! runs of repeated column blocks;
//! round-trips are exact for arbitrary finite particles in both layouts
//! and both precisions; and truncated/corrupted inputs fail loudly with
//! `InvalidData` rather than silently yielding a short ensemble.

use pic_math::{Real, Vec3};
use pic_particles::io::{read_ensemble, write_ensemble, RowEnd, HEADER};
use pic_particles::{
    AosEnsemble, ColumnSegment, Particle, ParticleAccess, ParticleStore, SoaEnsemble, SpeciesId,
};
use proptest::prelude::*;
use std::fmt::LowerExp;
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

/// A finite `f32` of either sign from its bit pattern: every exponent
/// below the non-finite one, subnormals and zero included.
fn finite_f32() -> impl Strategy<Value = f32> {
    ((0u32..0x7f80_0000), (0u32..2)).prop_map(|(bits, sign)| f32::from_bits(bits | sign << 31))
}

/// A particle row of arbitrary finite `f32`s and any species id.
fn f32_row() -> impl Strategy<Value = ([f32; 8], u16)> {
    (
        proptest::collection::vec(finite_f32(), 8..9),
        (0u16..u16::MAX),
    )
        .prop_map(|(reals, species)| {
            let mut row = [0.0; 8];
            row.copy_from_slice(&reals);
            (row, species)
        })
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

/// Capturing a store and splicing the segment into another is the
/// identity, and a captured segment's text is the store's dump.
fn segment_round_trips<R: Real, S: ParticleStore<R>>(
    ps: &[Particle<f64>],
) -> Result<(), proptest::TestCaseError> {
    let store: S = store_of(ps);
    let n = store.len();
    let segment = ColumnSegment::from_store(&store, 0, n);
    let mut back: S = store_of(&vec![Particle::default(); n]);
    segment.splice_into(&mut back, 0);
    for i in 0..n {
        prop_assert_eq!(store.get(i), back.get(i));
    }
    let mut text = format!("{HEADER}\n").into_bytes();
    segment
        .write_text(&mut text, RowEnd::Newline)
        .expect("write to Vec cannot fail");
    prop_assert_eq!(
        String::from_utf8(text).expect("UTF-8"),
        write_to_string(&store)
    );
    Ok(())
}

/// One real from a random word: most of the time a value of a class
/// the text spells out or lays out at an edge — ±0, a subnormal, NaN,
/// ±inf, ±MAX — otherwise any bit pattern of the width. `bits` reads a
/// pattern of the width; `sign` is its sign bit and `inf` the pattern of
/// +inf, whose fraction bits are those below its lowest set bit.
fn special<R>(word: u64, bits: fn(u64) -> R, sign: u64, inf: u64) -> R {
    let sign = if word & 1 << 7 != 0 { sign } else { 0 };
    let fraction = (inf & inf.wrapping_neg()) - 1;
    let random = word >> 8;
    bits(match word % 12 {
        0 => sign,
        1 => sign | random & fraction,
        2 => sign | inf | random & fraction | 1,
        3 => sign | inf,
        4 => sign | (inf - 1),
        _ => random,
    })
}

fn special_f32(word: u64) -> f32 {
    special(word, |b| f32::from_bits(b as u32), 1 << 31, 0x7f80_0000)
}

fn special_f64(word: u64) -> f64 {
    special(word, f64::from_bits, 1 << 63, 0x7ff0_0000_0000_0000)
}

/// The first `rows` particles of `words` (nine words a particle: eight
/// reals through `real`, a species) in layout `S`: a captured segment's
/// text with `end` is every row as `format!` prints it with `{:e}`,
/// joined.
fn text_is_the_fmt_join<R, S>(
    words: &[u64],
    rows: usize,
    end: RowEnd,
    real: fn(u64) -> R,
) -> Result<(), proptest::TestCaseError>
where
    R: Real + LowerExp,
    S: ParticleStore<R>,
{
    let store = S::from_particles(words.chunks_exact(9).take(rows).map(|w| {
        let reals = [w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]].map(real);
        Particle::from_row((reals, SpeciesId(w[8] as u16)))
    }));
    let mut expect = String::new();
    for i in 0..store.len() {
        let (r, species) = store.get(i).to_row();
        expect += &format!(
            "{:e} {:e} {:e} {:e} {:e} {:e} {:e} {:e} {}",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], species.0
        );
        expect += std::str::from_utf8(end.bytes()).expect("ASCII");
    }
    let mut text = Vec::new();
    ColumnSegment::from_store(&store, 0, store.len())
        .write_text(&mut text, end)
        .expect("write to Vec cannot fail");
    prop_assert_eq!(String::from_utf8(text).expect("ASCII"), expect);
    Ok(())
}

/// Rows in a block of the text writer (`pic_math::decimal::EXP_BLOCK`).
const BLOCK_ROWS: usize = 16;
/// Words a block of rows takes: nine a row.
const BLOCK_WORDS: usize = 9 * BLOCK_ROWS;

/// Bit patterns of one block of rows per op, nine words a row, each
/// block made from the one before by its op, so that the columns hold
/// runs of equal blocks and blocks one lane apart: `0..=2` copies it,
/// `3` copies it and redraws one lane, `4` copies it and flips the sign
/// of one column (±0, ±NaN), `5` copies it and makes one lane a NaN of
/// another payload, and anything else (and the first block) draws a
/// fresh block. Draws go through `special` (`sign` and `inf` are the
/// width's); block `b` draws from `words[b·BLOCK_WORDS ..]`.
fn block_runs(words: &[u64], ops: &[u8], sign: u64, inf: u64) -> Vec<u64> {
    let fraction = (inf & inf.wrapping_neg()) - 1;
    let mut out: Vec<u64> = Vec::new();
    for (b, (&op, draw)) in ops.iter().zip(words.chunks_exact(BLOCK_WORDS)).enumerate() {
        let (column, lane) = (draw[0] as usize % 9, (draw[0] >> 8) as usize % BLOCK_ROWS);
        let mut block: Vec<u64> = match b {
            0 => Vec::new(),
            _ => out[out.len() - BLOCK_WORDS..].to_vec(),
        };
        let at = 9 * lane + column;
        match (op, block.is_empty()) {
            (0..=2, false) => {}
            (3, false) => block[at] = special(draw[1], |w| w, sign, inf),
            (4, false) => (column..BLOCK_WORDS)
                .step_by(9)
                .for_each(|i| block[i] ^= sign),
            (5, false) => block[at] = (block[at] & sign) | inf | ((block[at] & fraction) ^ 2) | 1,
            _ => block = draw.iter().map(|&w| special(w, |w| w, sign, inf)).collect(),
        }
        out.extend(block);
    }
    out
}

proptest! {
    // Every row count from none through three blocks and a part one,
    // both row ends, both widths, both layouts; the columns mix every
    // class of value the text names or lays out at an edge.
    #[test]
    fn segment_text_is_the_rows_fmt_prints(
        words in proptest::collection::vec(proptest::any::<u64>(), 9 * 53..9 * 53 + 1),
        rows in 0usize..54,
        escaped in 0u8..2,
    ) {
        let end = if escaped == 1 { RowEnd::Escaped } else { RowEnd::Newline };
        text_is_the_fmt_join::<f32, SoaEnsemble<f32>>(&words, rows, end, special_f32)?;
        text_is_the_fmt_join::<f32, AosEnsemble<f32>>(&words, rows, end, special_f32)?;
        text_is_the_fmt_join::<f64, SoaEnsemble<f64>>(&words, rows, end, special_f64)?;
        text_is_the_fmt_join::<f64, AosEnsemble<f64>>(&words, rows, end, special_f64)?;
    }

    // Columns made of runs of equal blocks, blocks equal but for one
    // lane, a sign (±0) or a NaN's payload, and a last block that may be
    // partial and equal to its predecessor's prefix: a block that
    // reuses the text of the one before still prints what `{:e}` prints.
    #[test]
    fn repeated_blocks_render_as_the_rows_fmt_prints(
        words in proptest::collection::vec(proptest::any::<u64>(), 6 * BLOCK_WORDS..6 * BLOCK_WORDS + 1),
        ops in proptest::collection::vec(0u8..7, 6..7),
        cut in 0usize..BLOCK_ROWS,
        escaped in 0u8..2,
    ) {
        let end = if escaped == 1 { RowEnd::Escaped } else { RowEnd::Newline };
        let rows = ops.len() * BLOCK_ROWS - cut;
        let narrow = block_runs(&words, &ops, 1 << 31, 0x7f80_0000);
        let wide = block_runs(&words, &ops, 1 << 63, 0x7ff0_0000_0000_0000);
        let f32_of = |w: u64| f32::from_bits(w as u32);
        text_is_the_fmt_join::<f32, SoaEnsemble<f32>>(&narrow, rows, end, f32_of)?;
        text_is_the_fmt_join::<f32, AosEnsemble<f32>>(&narrow, rows, end, f32_of)?;
        text_is_the_fmt_join::<f64, SoaEnsemble<f64>>(&wide, rows, end, f64::from_bits)?;
        text_is_the_fmt_join::<f64, AosEnsemble<f64>>(&wide, rows, end, f64::from_bits)?;
    }

    #[test]
    fn segments_round_trip_in_store_order(ps in particles()) {
        segment_round_trips::<f64, AosEnsemble<f64>>(&ps)?;
        segment_round_trips::<f64, SoaEnsemble<f64>>(&ps)?;
        segment_round_trips::<f32, AosEnsemble<f32>>(&ps)?;
        segment_round_trips::<f32, SoaEnsemble<f32>>(&ps)?;
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

    // An f32 is printed at f32's shortest round-trip digits and parsed
    // back as an f32 (correctly rounded), so float ensembles round-trip
    // exactly, not just approximately.
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

    // Every finite f32 bit pattern, subnormals and both zeros included,
    // in every column: the dump reads back bit for bit in both layouts.
    // Parsing it as f64 and narrowing would not (`7.038531e-26`).
    #[test]
    fn f32_bit_patterns_round_trip_bit_for_bit(
        rows in proptest::collection::vec(f32_row(), 0..32),
    ) {
        let ps: Vec<Particle<f32>> = rows
            .iter()
            .map(|&(reals, species)| Particle::from_row((reals, SpeciesId(species))))
            .collect();
        let aos = AosEnsemble::<f32>::from_particles(ps.iter().copied());
        let soa = SoaEnsemble::<f32>::from_particles(ps.iter().copied());
        let text = write_to_string(&aos);
        prop_assert_eq!(&text, &write_to_string(&soa));
        let back_aos: AosEnsemble<f32> = read_ensemble(text.as_bytes()).expect("parse");
        let back_soa: SoaEnsemble<f32> = read_ensemble(text.as_bytes()).expect("parse");
        prop_assert_eq!(back_aos.len(), ps.len());
        prop_assert_eq!(back_soa.len(), ps.len());
        for (i, p) in ps.iter().enumerate() {
            let bits = |q: Particle<f32>| (q.to_row().0.map(f32::to_bits), q.species);
            prop_assert_eq!(bits(back_aos.get(i)), bits(*p));
            prop_assert_eq!(bits(back_soa.get(i)), bits(*p));
        }
    }

    // The binary segment codec against a hostile sender: whatever the
    // header claims, `from_bytes` answers `InvalidData` — it never
    // panics, and never allocates for a count the buffer cannot back.
    // Bits 0..136 are the magic, the count and the width byte.
    #[test]
    fn segment_header_bit_flips_are_invalid_data(ps in particles(), bit in 0usize..136) {
        let store: AosEnsemble<f64> = ps.iter().copied().collect();
        let mut bytes = ColumnSegment::from_store(&store, 0, store.len()).to_bytes();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let err = ColumnSegment::from_bytes(&bytes).expect_err("a flipped header must not decode");
        prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn segment_counts_the_buffer_cannot_back_are_invalid_data(
        ps in particles(),
        pick in 0usize..6,
        noise in 0u64..u64::MAX,
    ) {
        let store: SoaEnsemble<f64> = ps.iter().copied().collect();
        let n = store.len() as u64;
        let mut bytes = ColumnSegment::from_store(&store, 0, store.len()).to_bytes();
        // One more than the buffer holds, far more, counts whose byte
        // size wraps `usize` (66 bytes a row), and anything at all.
        let claimed = [n + 1, n + (1 << 40), u64::MAX / 66 + 1, u64::MAX / 8, u64::MAX, noise][pick];
        bytes[8..16].copy_from_slice(&claimed.to_le_bytes());
        match ColumnSegment::from_bytes(&bytes) {
            Ok(segment) => prop_assert_eq!((claimed, segment.len() as u64), (n, n)),
            Err(err) => prop_assert_eq!(err.kind(), ErrorKind::InvalidData),
        }
    }

    #[test]
    fn arbitrary_segment_bytes_never_panic(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
        magic in 0usize..2,
    ) {
        let mut bytes = bytes;
        if magic == 1 && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"PICSEG02");
        }
        if let Err(err) = ColumnSegment::from_bytes(&bytes) {
            prop_assert_eq!(err.kind(), ErrorKind::InvalidData);
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
