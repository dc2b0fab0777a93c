//! Shortest round-trip decimal text of an `f64` or an `f32`, without
//! `core::fmt`.
//!
//! [`write_exp`] and [`write_exp_f32`] lay down exactly the bytes
//! `format!("{:e}", x)` would for a value of that width — `{:e}` is this
//! module's test oracle, and every golden, cached dump and wire
//! comparison in the workspace is defined by its bytes — at a fraction
//! of the cost: the digits come from Raffaello Giulietti's Schubfach
//! construction (*The Schubfach way to render doubles*, 2020), three
//! multiplications against one entry of a table of powers of ten. An
//! `f64` takes three 64×128-bit products against the whole 128-bit entry;
//! an `f32` takes the paper's float variant, three 64×64-bit products
//! against the entry's upper 64 bits. The shortest candidate is chosen by
//! compares and selects, not by branches on the value.
//!
//! One digit layout serves both widths: the digits are scaled to the
//! width's full count (9 for `f32`, 17 for `f64`), and the fraction is
//! written eight digits at a time, each eight converted inside one `u64`
//! by multiplies and shifts (SWAR) and stored whole; the text's length
//! comes from the count of zero bytes at the top of the last non-zero
//! word. So a writer may leave scratch bytes after the text it returns
//! the length of — never past [`MAX_EXP_LEN`] ([`MAX_EXP_LEN_F32`]) bytes
//! from the start, and it asks for that many.
//!
//! An `f32`'s text is the shortest that reads back as that `f32` under a
//! correctly rounded `f32` parse. Parsed as `f64` and then narrowed it can
//! land one step off (`7.038531e-26` is `f32` bits `0x15ae43fd`, but
//! `0x15ae43fe` by way of `f64`): read it at its own width.
//!
//! One rule is `core`'s and not the paper's: when two shortest
//! candidates are *exactly* equally near the value, `core` takes the
//! upper one where Schubfach rounds half to even (2⁻²⁵ is
//! `2.9802322387695313e-8`, not `…12e-8`). And `core` narrows the lower
//! half of the rounding interval for every power of two, the smallest
//! normal number included, although that one's lower neighbour is a full
//! step away.

use std::num::FpCategory;

/// Most bytes [`write_exp`] writes, scratch bytes included, and the
/// longest text: sign, 17 digits and the point, `e-` and three exponent
/// digits (`-1.2345678901234567e-308`).
pub const MAX_EXP_LEN: usize = 24;

/// Most bytes [`write_exp_f32`] writes, scratch bytes included, and the
/// longest text: sign, 9 digits and the point, `e-` and two exponent
/// digits (`-1.00000075e-36`).
pub const MAX_EXP_LEN_F32: usize = 15;

// Each is the longest text `lay_out` lays out at its width, and what it
// asks of `out`: sign, digits, point, `e-`, exponent.
const _: () = assert!(MAX_EXP_LEN == 1 + 17 + 3 + 3 && MAX_EXP_LEN_F32 == 1 + 9 + 3 + 2);

/// Most bytes [`write_uint`] writes (`u64::MAX` has 20 digits).
pub const MAX_UINT_LEN: usize = 20;

/// Smallest and largest power of ten in [`POW10`]: the `-k` of every
/// finite `f64`'s decimal exponent `k`.
const MIN_POW10: i32 = -292;
const MAX_POW10: i32 = 324;

/// Limbs of the exact integers the table is cut from: 10³²⁴ < 2¹⁰⁷⁷,
/// and ⌊2¹¹⁵¹ / 10²⁹²⌋ keeps 182 bits.
const LIMBS: usize = 18;

/// g(k) = ⌈10ᵏ · 2^(127 − ⌊log₂ 10ᵏ⌋)⌉ for k in
/// `MIN_POW10..=MAX_POW10`: the leading 128 bits of 10ᵏ, rounded up.
/// Evaluated by the compiler from exact integers; the `decimal` test
/// suite holds every entry against independent big-integer arithmetic.
static POW10: [u128; (MAX_POW10 - MIN_POW10 + 1) as usize] = pow10_table();

/// The leading 128 bits of the integer in `limbs` (little-endian,
/// non-zero), and whether any bit below them is set.
const fn leading_128(limbs: &[u64; LIMBS]) -> (u128, bool) {
    let mut top = LIMBS - 1;
    while limbs[top] == 0 {
        top -= 1;
    }
    let shift = limbs[top].leading_zeros();
    let second = if top >= 1 { limbs[top - 1] } else { 0 };
    let third = (if top >= 2 { limbs[top - 2] } else { 0 } as u128) << shift;
    let lead = ((((limbs[top] as u128) << 64) | second as u128) << shift) | (third >> 64);
    let mut sticky = third as u64 != 0;
    let mut i = 3;
    while i <= top {
        sticky |= limbs[top - i] != 0;
        i += 1;
    }
    (lead, sticky)
}

const fn pow10_table() -> [u128; (MAX_POW10 - MIN_POW10 + 1) as usize] {
    let mut table = [0u128; (MAX_POW10 - MIN_POW10 + 1) as usize];
    // Upward: 10ᵏ exactly, times ten per entry.
    let mut power = [0u64; LIMBS];
    power[0] = 1;
    let mut k = 0;
    while k <= MAX_POW10 {
        let (lead, sticky) = leading_128(&power);
        table[(k - MIN_POW10) as usize] = lead + sticky as u128;
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let wide = power[i] as u128 * 10 + carry;
            power[i] = wide as u64;
            carry = wide >> 64;
            i += 1;
        }
        k += 1;
    }
    // Downward: ⌊2¹¹⁵¹ / 10ʲ⌋, a floor division by ten per entry —
    // ⌊⌊x / a⌋ / b⌋ = ⌊x / ab⌋, so every quotient is exact. 10⁻ʲ is no
    // dyadic fraction: the ceiling is always one more than these bits.
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut j = 1;
    while j <= -MIN_POW10 {
        let mut rem = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let wide = (rem << 64) | quotient[i] as u128;
            quotient[i] = (wide / 10) as u64;
            rem = wide % 10;
        }
        table[(-j - MIN_POW10) as usize] = leading_128(&quotient).0 + 1;
        j += 1;
    }
    table
}

/// `"00" "01" … "99"`.
static PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// Writes `n` in decimal at the start of `out`, two digits at a time
/// from the last; returns the byte count (at most [`MAX_UINT_LEN`]).
///
/// # Panics
///
/// Panics when `out` is shorter than the digits.
pub fn write_uint(mut n: u64, out: &mut [u8]) -> usize {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut at = len;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        out[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        out[at] = b'0' + n as u8;
    }
    len
}

/// The high 64 bits of `g · cp / 2⁶⁴`, with every bit shifted out
/// folded into the last one ("round to odd"): enough to order the
/// product against any integer and to tell an exact one apart.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let low = (g as u64 as u128) * cp as u128;
    let high = (g >> 64) * cp as u128 + (low >> 64);
    (high >> 64) as u64 | u64::from(high as u64 > 1)
}

/// [`round_to_odd`] of the float variant: the integer part of
/// `g · cp / 2⁹⁶`, with the 32 bits below it folded into the last one
/// (the product's low 64 bits are below `g`'s own precision).
fn round_to_odd_f32(g: u64, cp: u64) -> u64 {
    let high = ((u128::from(g) * u128::from(cp)) >> 64) as u64;
    high >> 32 | u64::from(high as u32 != 0)
}

/// Where a positive finite value `c · 2^q` lands in the table:
/// `k = ⌊log₁₀ 2^q⌋` (of `¾·2^q` over an interval narrowed below a power
/// of two) and `h = ⌊log₂ 10^-k⌋ + q + 1`, in `1..=4`, the shift that
/// keeps two fraction bits below the integer part of `4c · 2^q · 10^-k`.
fn scale(q: i32, narrow_below: bool) -> (i32, i32) {
    let k = (q * 1_262_611 - if narrow_below { 524_031 } else { 0 }) >> 22;
    (k, q + ((-k * 1_741_647) >> 19) + 1)
}

/// The shortest decimal `digits · 10ᵏ` that reads back as the positive
/// finite `f64` with bit pattern `bits`, the nearest one when several
/// are that short, the upper one on an exact tie. `digits` may end in
/// zeros.
fn shortest(bits: u64) -> (u64, i32) {
    const FRACTION_BITS: u32 = 52;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let biased = (bits >> FRACTION_BITS) as i32;
    // value = c · 2^q
    let (c, q) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << FRACTION_BITS, biased - 1075),
    };
    // Below a power of two the neighbour is half a step away (`core`
    // says so of the smallest normal number too; see the module docs).
    let narrow_below = fraction == 0 && biased != 0;
    let (k, h) = scale(q, narrow_below);
    // bounds: -k is in MIN_POW10..=MAX_POW10 for every q in -1074..=971.
    let g = POW10[(-k - MIN_POW10) as usize];
    let odd = c & 1;
    let lower = round_to_odd(g, (4 * c - 2 + u64::from(narrow_below)) << h) + odd;
    let scaled = round_to_odd(g, (4 * c) << h);
    let upper = round_to_odd(g, (4 * c + 2) << h) - odd;
    (pick(lower, scaled, upper), k)
}

/// [`shortest`] of the positive finite `f32` with bit pattern `bits`:
/// at most 9 digits. Schubfach's float variant, on `g`'s upper 64 bits
/// rounded up (no table of its own) and a product window 32 bits wider.
fn shortest_f32(bits: u32) -> (u64, i32) {
    const FRACTION_BITS: u32 = 23;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let biased = (bits >> FRACTION_BITS) as i32;
    let (c, q) = match biased {
        0 => (fraction, -149),
        _ => (fraction | 1 << FRACTION_BITS, biased - 150),
    };
    let c = u64::from(c);
    let narrow_below = fraction == 0 && biased != 0;
    let (k, h) = scale(q, narrow_below);
    // bounds: -k is in -31..=45 for every q in -149..=104. No entry
    // there has an all-ones upper half (the table suite checks).
    let g = (POW10[(-k - MIN_POW10) as usize] >> 64) as u64 + 1;
    let h = h + 32;
    let odd = c & 1;
    let lower = round_to_odd_f32(g, (4 * c - 2 + u64::from(narrow_below)) << h) + odd;
    let scaled = round_to_odd_f32(g, (4 * c) << h);
    let upper = round_to_odd_f32(g, (4 * c + 2) << h) - odd;
    (pick(lower, scaled, upper), k)
}

/// The digits of the shortest decimal in the rounding interval `[lower,
/// upper] / 4 · 10ᵏ` around `scaled / 4 · 10ᵏ` (all three rounded to
/// odd), at the scale of `10ᵏ`: every candidate weighed and one taken by
/// selects, so no branch depends on the value.
#[inline(always)]
fn pick(lower: u64, scaled: u64, upper: u64) -> u64 {
    let s = scaled / 4;
    // One digit fewer: at most one multiple of ten lies in the interval.
    let tens = s / 10;
    let (tens_down, tens_up) = (lower <= 40 * tens, 40 * tens + 40 <= upper);
    let shorter = (s >= 10) & (tens_down != tens_up);
    // Otherwise one of `s` and `s + 1`: the one inside, or with both in,
    // the nearer one, the upper one when `scaled` is exactly the
    // midpoint (round-to-odd keeps an inexact product odd).
    let (down, up) = (lower <= 4 * s, 4 * s + 4 <= upper);
    let step = if down != up { up } else { scaled >= 4 * s + 2 };
    if shorter {
        10 * (tens + u64::from(tens_up))
    } else {
        s + u64::from(step)
    }
}

/// Writes `value` at the start of `out` as `format!("{value:e}")` does —
/// the shortest digits that read back as `value`, `d[.ddd]e[-]x`, `NaN`,
/// `inf`, `-inf` — and returns the byte count. The bytes of `out` after
/// the count, up to [`MAX_EXP_LEN`], may be overwritten.
///
/// # Panics
///
/// Panics when `out` is shorter than [`MAX_EXP_LEN`].
///
/// # Example
///
/// ```
/// use pic_math::decimal::{write_exp, MAX_EXP_LEN};
///
/// let mut buf = [0u8; MAX_EXP_LEN];
/// let n = write_exp(-1.5e-7, &mut buf);
/// assert_eq!(&buf[..n], b"-1.5e-7");
/// ```
pub fn write_exp(value: f64, out: &mut [u8]) -> usize {
    let magnitude = value.to_bits() & (u64::MAX >> 1);
    lay_out::<17, 3>(
        value.is_sign_negative(),
        value.classify(),
        || shortest(magnitude),
        out,
    )
}

/// [`write_exp`] of an `f32`: the bytes `format!("{value:e}")` prints
/// for the `f32` itself (where the value widened to `f64` would print up
/// to 17 digits). The bytes of `out` after the count, up to
/// [`MAX_EXP_LEN_F32`], may be overwritten.
///
/// # Panics
///
/// Panics when `out` is shorter than [`MAX_EXP_LEN_F32`].
///
/// # Example
///
/// ```
/// use pic_math::decimal::{write_exp_f32, MAX_EXP_LEN_F32};
///
/// let mut buf = [0u8; MAX_EXP_LEN_F32];
/// let n = write_exp_f32(0.1, &mut buf);
/// assert_eq!(&buf[..n], b"1e-1");
/// ```
pub fn write_exp_f32(value: f32, out: &mut [u8]) -> usize {
    let magnitude = value.to_bits() & (u32::MAX >> 1);
    lay_out::<9, 2>(
        value.is_sign_negative(),
        value.classify(),
        || shortest_f32(magnitude),
        out,
    )
}

/// 10ⁿ for every `n` a `u64` holds, `0..=19`.
static POW10_U64: [u64; 20] = {
    let mut powers = [1u64; 20];
    let mut n = 1;
    while n < 20 {
        powers[n] = powers[n - 1] * 10;
        n += 1;
    }
    powers
};

/// The number of decimal digits of `n ≥ 1`: `⌊log₁₀ n⌋ + 1`, with the
/// logarithm first taken from the bit length (1233 / 2¹² ≈ log₁₀ 2,
/// which lands on it or one below) and then corrected by one compare.
#[inline(always)]
fn digit_count(n: u64) -> u32 {
    let guess = ((64 - n.leading_zeros()) * 1233) >> 12;
    // bounds: guess ≤ 64 · 1233 >> 12 = 19.
    guess + u32::from(n >= POW10_U64[guess as usize])
}

/// `0x30` (`'0'`) in every byte of a word.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// The eight decimal digits of `n < 10⁸`, one a byte, the first in the
/// lowest: `n`'s text once [`ASCII_ZEROS`] is added, stored little-endian.
/// Each split — into halves of four digits, quarters of two, single
/// digits — divides every lane of the word at once by a multiply and
/// shift that is exact over the lane's range (x · 5243 >> 19 = ⌊x / 100⌋
/// below 43 699, x · 103 >> 10 = ⌊x / 10⌋ below 179) and whose product
/// stays inside the lane.
#[inline(always)]
fn eight_digits(n: u64) -> u64 {
    // Two 32-bit lanes: the first four digits low, the last four high.
    let halves = (n / 10_000) | ((n % 10_000) << 32);
    let hundreds = ((halves * 5243) >> 19) & 0x0000_007f_0000_007f;
    // Four 16-bit lanes of two digits each.
    let pairs = hundreds | ((halves - hundreds * 100) << 16);
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    tens | ((pairs - tens * 10) << 8)
}

/// `{:e}`'s text of a float of either width at the start of `out`: the
/// sign, then `NaN`, `0e0`, `inf`, or the finite value's `digits · 10ᵏ`
/// as `d[.ddd]e[-]x`. `digits` runs for a finite non-zero value only.
///
/// `DIGITS` is the width's longest shortest text (9 for `f32`, 17 for
/// `f64`) and `EXP_DIGITS` its longest exponent (2 and 3). The digits are
/// scaled to exactly `DIGITS` of them; the fraction goes out eight digits
/// a store, whole, and its trailing zeros — the high zero bytes of the
/// last non-zero word — are then left out of the count, as are an
/// exponent's leading zeros. So every write lands inside the width's
/// longest text, and the bytes after the count are scratch.
#[inline(always)]
fn lay_out<const DIGITS: u32, const EXP_DIGITS: usize>(
    negative: bool,
    class: FpCategory,
    digits: impl FnOnce() -> (u64, i32),
    out: &mut [u8],
) -> usize {
    // Sign, digits, point, `e-`, exponent.
    let out = &mut out[..DIGITS as usize + 4 + EXP_DIGITS];
    let name = |text: &[u8], out: &mut [u8]| {
        out[..text.len()].copy_from_slice(text);
        text.len()
    };
    if class == FpCategory::Nan {
        return name(b"NaN", out);
    }
    // A non-negative value writes its first character over the sign.
    out[0] = b'-';
    let at = usize::from(negative);
    let (digits, k) = match class {
        FpCategory::Zero => return at + name(b"0e0", &mut out[at..]),
        FpCategory::Infinite => return at + name(b"inf", &mut out[at..]),
        _ => digits(),
    };
    let count = digit_count(digits);
    // bounds: `digits` has 1..=DIGITS digits.
    let full = digits * POW10_U64[(DIGITS - count) as usize];
    let unit = POW10_U64[DIGITS as usize - 1];
    let lead = full / unit;
    let mut fraction = full - lead * unit;
    out[at] = b'0' + lead as u8;
    out[at + 1] = b'.';
    // Eight fraction digits a word, from the last; trailing zero digits
    // are counted while every word after this one is zero.
    let words = (DIGITS as usize - 1) / 8;
    let (mut zeros, mut tail) = (0, true);
    for word in (0..words).rev() {
        let digits = eight_digits(fraction % 100_000_000);
        fraction /= 100_000_000;
        zeros += (digits.leading_zeros() as usize / 8) * usize::from(tail);
        tail &= digits == 0;
        let from = at + 2 + 8 * word;
        out[from..from + 8].copy_from_slice(&(digits | ASCII_ZEROS).to_le_bytes());
    }
    // `d.ddd`, or `d` alone when the fraction is all zeros.
    let shown = 8 * words - zeros;
    let mut end = at + 1 + if shown > 0 { shown + 1 } else { 0 };
    out[end] = b'e';
    out[end + 1] = b'-';
    let exponent = k + count as i32 - 1;
    end += 1 + usize::from(exponent < 0);
    // The exponent's digits right-aligned in three bytes of a word,
    // shifted down past its leading zeros.
    let e = exponent.unsigned_abs() as usize;
    let pair = 2 * (e % 100);
    let word = u32::from(b'0' + (e / 100) as u8)
        | u32::from(PAIRS[pair]) << 8
        | u32::from(PAIRS[pair + 1]) << 16;
    let length = 1 + usize::from(e >= 10) + usize::from(e >= 100);
    let word = (word >> (8 * (3 - length))).to_le_bytes();
    out[end..end + EXP_DIGITS].copy_from_slice(&word[..EXP_DIGITS]);
    end + length
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// A non-negative integer, little-endian base 2³², no leading zero
    /// limbs: just enough exact arithmetic to hold the table to its
    /// definition by multiplication (the table itself is built by
    /// repeated division).
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(mut n: u128) -> Big {
            let mut limbs = Vec::new();
            while n > 0 {
                limbs.push(n as u32);
                n >>= 32;
            }
            Big(limbs)
        }

        fn pow2(bits: usize) -> Big {
            let mut limbs = vec![0; bits / 32];
            limbs.push(1 << (bits % 32));
            Big(limbs)
        }

        fn times(&self, other: &Big) -> Big {
            let mut limbs = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let wide = u64::from(a) * u64::from(b) + u64::from(limbs[i + j]) + carry;
                    limbs[i + j] = wide as u32;
                    carry = wide >> 32;
                }
                limbs[i + other.0.len()] = carry as u32;
            }
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            Big(limbs)
        }

        fn bit_len(&self) -> usize {
            let top = self.0.last().expect("non-zero");
            self.0.len() * 32 - top.leading_zeros() as usize
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> Ordering {
            (self.0.len().cmp(&other.0.len()))
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn every_table_entry_is_the_rounded_up_leading_128_bits_of_its_power() {
        let ten = Big::from_u128(10);
        let mut power = Big::from_u128(1);
        for k in 0..=MAX_POW10.max(-MIN_POW10) {
            let bits = power.bit_len();
            if k <= MAX_POW10 {
                // (g − 1)·2^r < 10ᵏ ≤ g·2^r with r = ⌊log₂ 10ᵏ⌋ − 127,
                // both sides scaled by 2^-r while r is negative.
                let g = POW10[(k - MIN_POW10) as usize];
                assert!(g >= 1 << 127, "10^{k} is not normalised");
                let (up, down) = (bits.saturating_sub(128), 128usize.saturating_sub(bits));
                let scaled_power = power.times(&Big::pow2(down));
                assert!(
                    scaled_power <= Big::from_u128(g).times(&Big::pow2(up)),
                    "10^{k}"
                );
                assert!(
                    Big::from_u128(g - 1).times(&Big::pow2(up)) < scaled_power,
                    "10^{k}"
                );
            }
            if (1..=-MIN_POW10).contains(&k) {
                // (g − 1)·10ʲ < 2^-r ≤ g·10ʲ with r = ⌊log₂ 10⁻ʲ⌋ − 127
                // = −bits − 127 (10ʲ is no power of two).
                let g = POW10[(-k - MIN_POW10) as usize];
                assert!(g >= 1 << 127, "10^-{k} is not normalised");
                let one = Big::pow2(bits + 127);
                assert!(one <= Big::from_u128(g).times(&power), "10^-{k}");
                assert!(Big::from_u128(g - 1).times(&power) < one, "10^-{k}");
            }
            power = power.times(&ten);
        }
    }

    #[test]
    fn the_table_spans_every_finite_exponent() {
        // `shortest` indexes with -k, k = ⌊log₁₀ 2^q⌋ (or of ¾·2^q).
        let k_of = |q: i32, narrow: i32| (q * 1_262_611 - narrow) >> 22;
        assert_eq!(-k_of(-1074, 524_031), MAX_POW10);
        assert_eq!(-k_of(971, 0), MIN_POW10);
        // `shortest_f32`'s range, whose entries it rounds up at 64 bits.
        assert_eq!(-k_of(-149, 524_031), 45);
        assert_eq!(-k_of(104, 0), -31);
        for k in -31..=45 {
            assert_ne!(POW10[(k - MIN_POW10) as usize] >> 64, u64::MAX as u128);
        }
        // The two spot values every description of the table gives.
        assert_eq!(POW10[-MIN_POW10 as usize], 1 << 127, "10^0");
        assert_eq!(POW10[(1 - MIN_POW10) as usize], 10 << 124, "10^1");
    }
}
