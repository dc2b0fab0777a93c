//! `pic_math::decimal::exp_block` and `exp_block_f32` are held to the
//! bytes of `{:e}` at their own width, every value through the block
//! API: over random and structured inputs (a million each in
//! `--release`, ten thousand in a debug build), over a committed list of
//! hard cases whose expected text does not come from the toolchain under
//! test, over every 65 521st `f32`, and — `#[ignore]`d, minutes in
//! `--release` — over every `f32`. A value checked alone sits in lane
//! `bits % 16` of its block, so every lane sees every exponent; the
//! sweeps fill blocks with consecutive patterns, which puts each in that
//! lane too. Every text is put into a buffer of exactly
//! `ExpBlock::PUT_LEN` bytes.

use pic_math::decimal::{exp_block, exp_block_f32, uint_block, ExpBlock, EXP_BLOCK};
use std::fmt::Write;

const CASES: usize = if cfg!(debug_assertions) {
    10_000
} else {
    1_000_000
};

/// Lane `lane`'s text of `block`.
fn lane_text(block: &ExpBlock, lane: usize) -> String {
    let mut buf = [0u8; ExpBlock::PUT_LEN];
    let n = block.put(lane, &mut buf);
    String::from_utf8(buf[..n].to_vec()).expect("ASCII")
}

/// `x`'s text, from lane `bits % 16` of a block whose other lanes hold
/// their own lane numbers.
fn exp_text(x: f64) -> String {
    let lane = (x.to_bits() % EXP_BLOCK as u64) as usize;
    let mut values: [f64; EXP_BLOCK] = std::array::from_fn(|l| l as f64);
    values[lane] = x;
    lane_text(&exp_block(&values), lane)
}

/// [`exp_text`] of an `f32`.
fn exp_text_f32(x: f32) -> String {
    let lane = (x.to_bits() % EXP_BLOCK as u32) as usize;
    let mut values: [f32; EXP_BLOCK] = std::array::from_fn(|l| l as f32);
    values[lane] = x;
    lane_text(&exp_block_f32(&values), lane)
}

#[track_caller]
fn assert_matches_core(x: f64) {
    assert_eq!(exp_text(x), format!("{x:e}"), "bits {:016x}", x.to_bits());
}

#[track_caller]
fn assert_matches_core_f32(x: f32) {
    assert_eq!(
        exp_text_f32(x),
        format!("{x:e}"),
        "bits {:08x}",
        x.to_bits()
    );
}

/// Every one of `values` through [`exp_block`], sixteen a block in
/// order (the last padded with zeros), held to `{:e}`.
#[track_caller]
fn assert_blocks_match_core(values: impl IntoIterator<Item = f64>) {
    let values: Vec<f64> = values.into_iter().collect();
    for chunk in values.chunks(EXP_BLOCK) {
        let mut block = [0.0; EXP_BLOCK];
        block[..chunk.len()].copy_from_slice(chunk);
        let texts = exp_block(&block);
        for (lane, x) in chunk.iter().enumerate() {
            assert_eq!(
                lane_text(&texts, lane),
                format!("{x:e}"),
                "bits {:016x}",
                x.to_bits()
            );
        }
    }
}

/// [`assert_blocks_match_core`] through [`exp_block_f32`].
#[track_caller]
fn assert_blocks_match_core_f32(values: impl IntoIterator<Item = f32>) {
    let values: Vec<f32> = values.into_iter().collect();
    for chunk in values.chunks(EXP_BLOCK) {
        let mut block = [0.0; EXP_BLOCK];
        block[..chunk.len()].copy_from_slice(chunk);
        let texts = exp_block_f32(&block);
        for (lane, x) in chunk.iter().enumerate() {
            assert_eq!(
                lane_text(&texts, lane),
                format!("{x:e}"),
                "bits {:08x}",
                x.to_bits()
            );
        }
    }
}

/// SplitMix64: a fixed stream, so a failure names a reproducible value.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn random_bit_patterns_print_as_core_prints_them() {
    let mut state = 1;
    assert_blocks_match_core((0..CASES).map(|_| f64::from_bits(next(&mut state))));
}

#[test]
fn widened_f32_values_print_as_core_prints_them() {
    // An f32 widened to f64: 24 significant bits, printed at f64's 17
    // digits.
    let mut state = 2;
    assert_blocks_match_core(
        (0..CASES).map(|_| f64::from(f32::from_bits(next(&mut state) as u32))),
    );
}

#[test]
fn integers_print_as_core_prints_them() {
    let mut state = 3;
    assert_blocks_match_core((0..CASES).map(|_| {
        let bits = next(&mut state);
        // Every width up to 2⁵³, so short integers are as common as long.
        ((bits >> 11) >> (bits % 53)) as f64
    }));
}

#[test]
fn short_decimals_print_as_core_prints_them() {
    let mut state = 4;
    assert_blocks_match_core((0..CASES).flat_map(|_| {
        let bits = next(&mut state);
        let digits = (bits % 100_000) as f64;
        let exponent = ((bits >> 32) % 61) as i32 - 30;
        [
            digits * 10f64.powi(exponent),
            -digits / 10f64.powi(exponent),
        ]
    }));
    // Every digit count an f64 prints, 1 to 17, each at one-, two- and
    // three-digit exponents of both signs.
    let mut counts = std::collections::BTreeSet::new();
    for count in 1..=17 {
        for exponent in [0, 7, -7, 42, -42, 300, -300] {
            let mantissa = &"1.2345678923456789"[..count + usize::from(count > 1)];
            let x: f64 = format!("{mantissa}e{exponent}").parse().unwrap();
            assert_matches_core(x);
            assert_matches_core(-x);
            let text = exp_text(x);
            counts.insert(text.split('e').next().unwrap().replace('.', "").len());
        }
    }
    assert_eq!(counts, (1..=17).collect());
}

#[test]
fn every_exponent_prints_as_core_prints_it() {
    // 0x7ff is the non-finite exponent: infinities and NaNs included.
    for exponent in 0..=0x7ffu64 {
        for fraction in [0, 1, 1 << 51, (1 << 52) - 1] {
            let x = f64::from_bits(exponent << 52 | fraction);
            assert_matches_core(x);
            assert_matches_core(-x);
        }
    }
    // The layout's edges: where the exponent gains its third digit, the
    // extremes, the named values, a fraction of exactly one and of
    // exactly two eight-digit words.
    let edges = [
        (1e99, "1e99"),
        (1e100, "1e100"),
        (1e-99, "1e-99"),
        (1e-100, "1e-100"),
        (5e-324, "5e-324"),
        (f64::MAX, "1.7976931348623157e308"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        (-0.0, "-0e0"),
        (f64::NAN, "NaN"),
        (f64::INFINITY, "inf"),
        (f64::NEG_INFINITY, "-inf"),
        (1.23456789, "1.23456789e0"),
        (-(0.1 + 0.2), "-3.0000000000000004e-1"),
    ];
    for (x, text) in edges {
        assert_eq!(exp_text(x), text);
        assert_matches_core(x);
    }
}

#[test]
fn subnormals_print_as_core_prints_them() {
    // Every subnormal with one bit set, and its neighbours (zero and the
    // smallest normal number among them).
    for bit in 0..=52 {
        for near in [-1i64, 0, 1] {
            assert_matches_core(f64::from_bits((1u64 << bit).wrapping_add_signed(near)));
        }
    }
}

#[test]
fn random_f32_bit_patterns_print_as_core_prints_them() {
    let mut state = 6;
    assert_blocks_match_core_f32((0..CASES).map(|_| f32::from_bits(next(&mut state) as u32)));
}

#[test]
fn every_f32_exponent_prints_as_core_prints_it() {
    // 0xff is the non-finite exponent: infinities and NaNs included.
    let mut state = 7;
    for exponent in 0..=0xffu32 {
        let random = (0..CASES / 512).map(|_| next(&mut state) as u32 & ((1 << 23) - 1));
        let fractions: Vec<u32> = [0, 1, 1 << 22, (1 << 23) - 1]
            .into_iter()
            .chain(random)
            .collect();
        for &fraction in &fractions[..4] {
            let x = f32::from_bits(exponent << 23 | fraction);
            assert_matches_core_f32(x);
            assert_matches_core_f32(-x);
        }
        assert_blocks_match_core_f32(fractions.iter().flat_map(|&fraction| {
            let x = f32::from_bits(exponent << 23 | fraction);
            [x, -x]
        }));
    }
    // The layout's edges at f32's width: where the exponent gains its
    // second digit, the extremes, the named values, a fraction of exactly
    // one eight-digit word.
    let edges = [
        (1e9, "1e9"),
        (1e10, "1e10"),
        (1e-9, "1e-9"),
        (1e-10, "1e-10"),
        (1e-45, "1e-45"),
        (f32::MAX, "3.4028235e38"),
        (f32::MIN_POSITIVE, "1.1754944e-38"),
        (-0.0, "-0e0"),
        (f32::NAN, "NaN"),
        (f32::INFINITY, "inf"),
        (f32::NEG_INFINITY, "-inf"),
        (-f32::from_bits(0x03aa_242d), "-1.00000075e-36"),
    ];
    for (x, text) in edges {
        assert_eq!(exp_text_f32(x), text);
        assert_matches_core_f32(x);
    }
}

#[test]
fn f32_subnormals_print_as_core_prints_them() {
    // Every subnormal with one bit set and its neighbours (zero and the
    // smallest normal number among them), then random ones.
    for bit in 0..=23 {
        for near in [-1i32, 0, 1] {
            assert_matches_core_f32(f32::from_bits((1u32 << bit).wrapping_add_signed(near)));
        }
    }
    let mut state = 8;
    assert_blocks_match_core_f32(
        (0..CASES).map(|_| f32::from_bits(next(&mut state) as u32 & ((1 << 23) - 1))),
    );
}

#[test]
fn f32_powers_of_two_and_their_neighbours_print_as_core_prints_them() {
    // Every power of two, 2⁻¹⁴⁹ to 2¹²⁷ (the narrowed interval), and the
    // patterns up to `span` steps either side of it.
    let span = (CASES / (277 * 2)) as u32;
    for power in (0..23)
        .map(|bit| 1u32 << bit)
        .chain((1..=254).map(|e| e << 23))
    {
        assert_matches_core_f32(f32::from_bits(power));
        assert_blocks_match_core_f32(
            (0..=span)
                .flat_map(|step| [power + step, power.saturating_sub(step)].map(f32::from_bits)),
        );
    }
}

#[test]
fn f32_text_is_not_f64_text_narrowed() {
    // The shortest text of f32 bits 0x15ae43fd reads back as them at f32
    // width, and one step above by way of f64: a reader must parse an f32
    // dump as f32.
    let x = f32::from_bits(0x15ae_43fd);
    let text = exp_text_f32(x);
    assert_eq!(text, "7.038531e-26");
    assert_eq!(text.parse::<f32>().map(f32::to_bits), Ok(0x15ae_43fd));
    let narrowed = text.parse::<f64>().expect("a number") as f32;
    assert_eq!(narrowed.to_bits(), 0x15ae_43fe);
    // And widened to f64 it still prints at f64's digits.
    assert_eq!(exp_text(f64::from(x)), format!("{:e}", f64::from(x)));
}

#[test]
fn hard_cases_match_the_committed_text() {
    let golden = include_str!("data/decimal_golden.txt");
    let mut cases = 0;
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let (bits, text) = line.split_once(' ').expect("`<bits> <text>`");
        let (ours, oracle) = if bits.len() == 8 {
            let x = f32::from_bits(u32::from_str_radix(bits, 16).expect("hex bits"));
            (exp_text_f32(x), format!("{x:e}"))
        } else {
            let x = f64::from_bits(u64::from_str_radix(bits, 16).expect("hex bits"));
            (exp_text(x), format!("{x:e}"))
        };
        assert_eq!(ours, text, "the digits drifted on {bits}");
        assert_eq!(
            oracle, text,
            "the oracle moved: this toolchain's `{{:e}}` prints {bits} differently"
        );
        cases += 1;
    }
    assert!(cases >= 490, "golden list truncated: {cases} cases");
}

/// Lane `lane` of `block`, rendered from the `f32` with bit pattern
/// `bits`, is what `{:e}` prints for it, and a correctly rounded `f32`
/// parse of that text gives the same bits back (every NaN prints `NaN`).
/// `want` is a scratch string.
fn check_f32_reads_back(block: &ExpBlock, lane: usize, bits: u32, want: &mut String) {
    let x = f32::from_bits(bits);
    let mut buf = [0u8; ExpBlock::PUT_LEN];
    let n = block.put(lane, &mut buf);
    want.clear();
    write!(want, "{x:e}").expect("write to a String");
    assert_eq!(&buf[..n], want.as_bytes(), "bits {bits:08x} in lane {lane}");
    if !x.is_nan() {
        let back: f32 = want.parse().expect("`{:e}` text parses");
        assert_eq!(back.to_bits(), x.to_bits(), "{want} read back");
    }
}

/// Every pattern of `patterns`, sixteen a block in order, through
/// [`check_f32_reads_back`]; returns how many. Pattern `i` of the
/// sequence is in lane `i % 16`.
fn check_blocks_read_back(patterns: impl Iterator<Item = u32>) -> u64 {
    let mut want = String::new();
    let mut bits = [0u32; EXP_BLOCK];
    let mut filled = 0;
    let mut checked = 0;
    let flush = |bits: &[u32], want: &mut String| {
        let mut values = [0.0f32; EXP_BLOCK];
        for (v, &b) in values.iter_mut().zip(bits) {
            *v = f32::from_bits(b);
        }
        let block = exp_block_f32(&values);
        for (lane, &b) in bits.iter().enumerate() {
            check_f32_reads_back(&block, lane, b, want);
        }
        bits.len() as u64
    };
    for pattern in patterns {
        bits[filled] = pattern;
        filled += 1;
        if filled == EXP_BLOCK {
            checked += flush(&bits, &mut want);
            filled = 0;
        }
    }
    checked + flush(&bits[..filled], &mut want)
}

#[test]
fn every_65521st_f32_prints_as_core_prints_it_and_reads_back() {
    // A prime stride: about 256 patterns in each of the 256 exponents,
    // at fractions spread over the whole range. 65 521 is 1 mod 16, so
    // the n-th pattern, in lane n % 16, is in lane `bits % 16`.
    let checked = check_blocks_read_back((0..=u32::MAX).step_by(65_521));
    assert_eq!(checked, 65_552);
}

/// Every one of the 2³² `f32` bit patterns through
/// [`check_f32_reads_back`], in blocks of sixteen consecutive ones (so
/// each in lane `bits % 16`). Minutes on two threads:
///
/// ```text
/// cargo test --release -p pic-math --test decimal -- --ignored every_f32
/// ```
#[test]
#[ignore = "exhaustive over 2^32 patterns: minutes in --release"]
fn every_f32_prints_as_core_prints_it_and_reads_back() {
    let lanes = std::thread::available_parallelism().map_or(2, usize::from) as u64;
    // Whole blocks per thread.
    let blocks = (1u64 << 32) / EXP_BLOCK as u64;
    let checked: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let range = lane * blocks / lanes..(lane + 1) * blocks / lanes;
                    let first = range.start * EXP_BLOCK as u64;
                    let last = range.end * EXP_BLOCK as u64;
                    check_blocks_read_back((first..last).map(|bits| bits as u32))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });
    assert_eq!(checked, 1u64 << 32);
}

#[test]
fn species_ids_print_as_display_prints_them() {
    let ids: Vec<u16> = (0..=u16::MAX).collect();
    for (first, chunk) in ids.chunks(EXP_BLOCK).enumerate() {
        let mut block = [0u16; EXP_BLOCK];
        block.copy_from_slice(chunk);
        let texts = uint_block(&block);
        for (lane, id) in chunk.iter().enumerate() {
            assert_eq!(lane_text(&texts, lane), id.to_string(), "block {first}");
        }
    }
}

#[test]
fn the_lanes_of_a_block_are_independent() {
    // Every lane of a block of mixed classes — named values of both
    // signs, subnormals, the extremes, digit counts 1 to 17 — prints as
    // the value does alone in lane 0.
    let mix = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -f64::MAX,
        1.0,
        -0.1,
        1.2345678901234567e-300,
        123.0,
        -(0.1 + 0.2),
        1e100,
        -1e-100,
        f64::MIN_POSITIVE,
    ];
    for rotate in 0..EXP_BLOCK {
        let mut values = mix;
        values.rotate_left(rotate);
        let texts = exp_block(&values);
        let narrow = exp_block_f32(&values.map(|x| x as f32));
        for (lane, &x) in values.iter().enumerate() {
            let mut alone = [0.0; EXP_BLOCK];
            alone[0] = x;
            assert_eq!(lane_text(&texts, lane), lane_text(&exp_block(&alone), 0));
            assert_eq!(lane_text(&texts, lane), format!("{x:e}"));
            assert_eq!(lane_text(&narrow, lane), format!("{:e}", x as f32));
        }
    }
}
