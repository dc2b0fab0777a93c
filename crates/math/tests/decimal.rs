//! `pic_math::decimal::write_exp` is held to the bytes of `{:e}`: over
//! random and structured inputs (a million each in `--release`, ten
//! thousand in a debug build), and over a committed list of hard cases
//! whose expected text does not come from the toolchain under test.

use pic_math::decimal::{write_exp, write_uint, MAX_EXP_LEN, MAX_UINT_LEN};

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

#[track_caller]
fn assert_matches_core(x: f64) {
    assert_eq!(exp_text(x), format!("{x:e}"), "bits {:016x}", x.to_bits());
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
    // What an f32 store's dump is made of: 24 significant bits, printed
    // at f64's 17 digits.
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
fn hard_cases_match_the_committed_text() {
    let golden = include_str!("data/decimal_golden.txt");
    let mut cases = 0;
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        let (bits, text) = line.split_once(' ').expect("`<bits> <text>`");
        let x = f64::from_bits(u64::from_str_radix(bits, 16).expect("hex bits"));
        assert_eq!(exp_text(x), text, "write_exp drifted on {bits}");
        assert_eq!(
            format!("{x:e}"),
            text,
            "the oracle moved: this toolchain's `{{:e}}` prints {bits} differently"
        );
        cases += 1;
    }
    assert!(cases >= 200, "golden list truncated: {cases} cases");
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
