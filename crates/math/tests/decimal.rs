//! `pic_math::decimal::write_exp` and `write_exp_f32` are held to the
//! bytes of `{:e}` at their own width: over random and structured inputs
//! (a million each in `--release`, ten thousand in a debug build), over a
//! committed list of hard cases whose expected text does not come from
//! the toolchain under test, over every 65 521st `f32`, and —
//! `#[ignore]`d, minutes in `--release` — over every `f32`. Every text is
//! written into a buffer of exactly `MAX_EXP_LEN` (`MAX_EXP_LEN_F32`)
//! bytes: the writers may overwrite bytes after the text, never past that.

use pic_math::decimal::{
    write_exp, write_exp_f32, write_uint, MAX_EXP_LEN, MAX_EXP_LEN_F32, MAX_UINT_LEN,
};
use std::fmt::Write;

const CASES: usize = if cfg!(debug_assertions) {
    10_000
} else {
    1_000_000
};

fn exp_text(x: f64) -> String {
    let mut buf = [0u8; MAX_EXP_LEN];
    let n = write_exp(x, &mut buf);
    String::from_utf8(buf[..n].to_vec()).expect("ASCII")
}

fn exp_text_f32(x: f32) -> String {
    let mut buf = [0u8; MAX_EXP_LEN_F32];
    let n = write_exp_f32(x, &mut buf);
    String::from_utf8(buf[..n].to_vec()).expect("ASCII")
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
    for _ in 0..CASES {
        assert_matches_core(f64::from_bits(next(&mut state)));
    }
}

#[test]
fn widened_f32_values_print_as_core_prints_them() {
    // An f32 widened to f64: 24 significant bits, printed at f64's 17
    // digits.
    let mut state = 2;
    for _ in 0..CASES {
        assert_matches_core(f64::from(f32::from_bits(next(&mut state) as u32)));
    }
}

#[test]
fn integers_print_as_core_prints_them() {
    let mut state = 3;
    for _ in 0..CASES {
        let bits = next(&mut state);
        // Every width up to 2⁵³, so short integers are as common as long.
        assert_matches_core(((bits >> 11) >> (bits % 53)) as f64);
    }
}

#[test]
fn short_decimals_print_as_core_prints_them() {
    let mut state = 4;
    for _ in 0..CASES {
        let bits = next(&mut state);
        let digits = (bits % 100_000) as f64;
        let exponent = ((bits >> 32) % 61) as i32 - 30;
        assert_matches_core(digits * 10f64.powi(exponent));
        assert_matches_core(-digits / 10f64.powi(exponent));
    }
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
    for _ in 0..CASES {
        assert_matches_core_f32(f32::from_bits(next(&mut state) as u32));
    }
}

#[test]
fn every_f32_exponent_prints_as_core_prints_it() {
    // 0xff is the non-finite exponent: infinities and NaNs included.
    let mut state = 7;
    for exponent in 0..=0xffu32 {
        let random = (0..CASES / 512).map(|_| next(&mut state) as u32 & ((1 << 23) - 1));
        for fraction in [0, 1, 1 << 22, (1 << 23) - 1].into_iter().chain(random) {
            let x = f32::from_bits(exponent << 23 | fraction);
            assert_matches_core_f32(x);
            assert_matches_core_f32(-x);
        }
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
    for _ in 0..CASES {
        assert_matches_core_f32(f32::from_bits(next(&mut state) as u32 & ((1 << 23) - 1)));
    }
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
        for step in 0..=span {
            assert_matches_core_f32(f32::from_bits(power + step));
            assert_matches_core_f32(f32::from_bits(power.saturating_sub(step)));
        }
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

/// `write_exp_f32` prints the `f32` with bit pattern `bits` as `{:e}`
/// prints it, and a correctly rounded `f32` parse of that text gives the
/// same bits back (every NaN prints `NaN`). `want` is a scratch string.
fn check_f32_reads_back(bits: u32, want: &mut String) {
    let x = f32::from_bits(bits);
    let mut buf = [0u8; MAX_EXP_LEN_F32];
    let n = write_exp_f32(x, &mut buf);
    want.clear();
    write!(want, "{x:e}").expect("write to a String");
    assert_eq!(&buf[..n], want.as_bytes(), "bits {bits:08x}");
    if !x.is_nan() {
        let back: f32 = want.parse().expect("`{:e}` text parses");
        assert_eq!(back.to_bits(), x.to_bits(), "{want} read back");
    }
}

#[test]
fn every_65521st_f32_prints_as_core_prints_it_and_reads_back() {
    // A prime stride: about 256 patterns in each of the 256 exponents,
    // at fractions spread over the whole range.
    let mut want = String::new();
    let mut checked = 0;
    for bits in (0..=u32::MAX).step_by(65_521) {
        check_f32_reads_back(bits, &mut want);
        checked += 1;
    }
    assert_eq!(checked, 65_552);
}

/// Every one of the 2³² `f32` bit patterns through
/// [`check_f32_reads_back`]. Minutes on two threads:
///
/// ```text
/// cargo test --release -p pic-math --test decimal -- --ignored every_f32
/// ```
#[test]
#[ignore = "exhaustive over 2^32 patterns: minutes in --release"]
fn every_f32_prints_as_core_prints_it_and_reads_back() {
    let lanes = std::thread::available_parallelism().map_or(2, usize::from) as u64;
    let total = 1u64 << 32;
    let checked: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut want = String::new();
                    let range = lane * total / lanes..(lane + 1) * total / lanes;
                    for bits in range.clone() {
                        check_f32_reads_back(bits as u32, &mut want);
                    }
                    range.end - range.start
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("worker")).sum()
    });
    assert_eq!(checked, total);
}

#[test]
fn unsigned_integers_print_as_display_prints_them() {
    let mut state = 5;
    let check = |n: u64| {
        let mut buf = [0u8; MAX_UINT_LEN];
        let len = write_uint(n, &mut buf);
        assert_eq!(&buf[..len], n.to_string().as_bytes());
    };
    for n in (0..=u64::from(u16::MAX)).chain([u64::MAX, u64::MAX - 1, 10u64.pow(19)]) {
        check(n);
    }
    for _ in 0..CASES / 10 {
        let bits = next(&mut state);
        check(bits >> (bits % 64));
    }
}
