//! Shortest round-trip decimal text of `f64`s and `f32`s, sixteen at a
//! time, without `core::fmt`.
//!
//! [`exp_block`] and [`exp_block_f32`] lay down, for each value of a
//! block of [`EXP_BLOCK`], exactly the bytes `format!("{:e}", x)` would
//! for a value of that width — `{:e}` is this module's test oracle, and
//! every golden, cached dump and wire comparison in the workspace is
//! defined by its bytes — at a fraction of the cost: the digits come
//! from Raffaello Giulietti's Schubfach construction (*The Schubfach way
//! to render doubles*, 2020), three multiplications against one entry of
//! a table of powers of ten. An `f64` takes three 64×128-bit products
//! against the whole 128-bit entry, one lane at a time; an `f32` takes the
//! paper's float variant, whose three products against the entry's upper
//! 64 bits split into 32×32-bit ones, so a block's digits are computed as
//! plain per-lane array code that the compiler vectorizes, the way the
//! Boris kernel's `lane_block` is written.
//!
//! Everything after the digits is lane code at both widths, with one
//! layout for both: the digits are scaled to the width's full count (9
//! for `f32`, 17 for `f64`), the fraction is converted four digits at a
//! time inside one `u32` by multiplies and shifts (SWAR), its trailing
//! zeros are read off the zero bytes at the top of the last non-zero
//! word, and the text is assembled as whole little-endian words, each
//! piece shifted to its byte offset. The shortest candidate, the digit
//! count, the point, the exponent's sign and width, and the names of
//! `NaN`, `inf` and zero are all picked by selects per lane: there is no
//! branch on a value and no scalar fallback. An [`ExpBlock`] holds the
//! finished texts; [`ExpBlock::put`] copies one whole, so a caller laying
//! texts one after another overwrites the scratch bytes after each.
//!
//! The compiler keeps lane code vector code only while each loop over
//! the lanes is plain: fixed-size arrays indexed by the lane, and one
//! integer width per loop where it can be (32-bit lanes are twice as many
//! a register as 64-bit ones). Two harmless-looking rewrites of the
//! layout's 32-bit loop — a `zip` over the digit groups, a `flatten` of
//! their words — each made it scalar, with branches, at twice the time of
//! a block; no test notices, so read the object code (`objdump -d`) of
//! [`exp_block_f32`] after touching it.
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

/// Longest text of an `f64`: sign, 17 digits and the point, `e-` and
/// three exponent digits (`-1.2345678901234567e-308`).
pub const MAX_EXP_LEN: usize = 24;

/// Longest text of an `f32`: sign, 9 digits and the point, `e-` and two
/// exponent digits (`-1.00000075e-36`).
pub const MAX_EXP_LEN_F32: usize = 15;

// Each is the longest text `lay_out_block` lays out at its width: sign,
// digits, point, `e-`, exponent.
const _: () = assert!(MAX_EXP_LEN == 1 + 17 + 3 + 3 && MAX_EXP_LEN_F32 == 1 + 9 + 3 + 2);

/// Values an [`ExpBlock`] holds the text of: the lanes of the block code.
pub const EXP_BLOCK: usize = 16;

/// Words of text an [`ExpBlock`] keeps for each lane: the longest text
/// of either width.
const EXP_WORDS: usize = MAX_EXP_LEN.div_ceil(8);

use std::ops::{Div, Mul, Sub};

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
const POW10_TABLE: [u128; (MAX_POW10 - MIN_POW10 + 1) as usize] = pow10_table();
static POW10: [u128; (MAX_POW10 - MIN_POW10 + 1) as usize] = POW10_TABLE;

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

/// Smallest and largest `-k` of an `f32`'s decimal exponent `k`: the
/// span of [`G32`].
const MIN_POW10_F32: i32 = -31;
const MAX_POW10_F32: i32 = 45;

/// [`POW10`]'s entries for k in `MIN_POW10_F32..=MAX_POW10_F32`, cut to
/// their upper 64 bits and rounded up by one: the float variant's table
/// (no entry there has an all-ones upper half; the table suite checks).
static G32: [u64; (MAX_POW10_F32 - MIN_POW10_F32 + 1) as usize] = {
    let mut table = [0u64; (MAX_POW10_F32 - MIN_POW10_F32 + 1) as usize];
    let mut i = 0;
    while i < table.len() {
        table[i] = (POW10_TABLE[(MIN_POW10_F32 - MIN_POW10) as usize + i] >> 64) as u64 + 1;
        i += 1;
    }
    table
};

/// The high 64 bits of `g · cp / 2⁶⁴`, with every bit shifted out
/// folded into the last one ("round to odd"): enough to order the
/// product against any integer and to tell an exact one apart.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let low = (g as u64 as u128) * cp as u128;
    let high = (g >> 64) * cp as u128 + (low >> 64);
    (high >> 64) as u64 | u64::from(high as u64 > 1)
}

/// [`round_to_odd`] of the float variant, for `cp = m << (h + 32)`: the
/// integer part of `g · cp / 2⁹⁶`, with the 32 bits below it folded into
/// the last one (the product's low 64 bits are below `g`'s own
/// precision). With `g` split into 32-bit halves that is
/// `(g_hi · m << h) + (g_lo · m >> (32 − h))` exactly, two 32×32→64-bit
/// products (`m < 2²⁶`, `h` in `1..=4`, so neither term overflows).
#[inline(always)]
fn round_to_odd_f32(g: u64, m: u32, h: u32) -> u64 {
    let m = u64::from(m);
    let high = (((g >> 32) * m) << h) + (((g & 0xffff_ffff) * m) >> (32 - h));
    high >> 32 | u64::from(high as u32 != 0)
}

/// Where a positive finite value `c · 2^q` lands in the table:
/// `k = ⌊log₁₀ 2^q⌋` (of `¾·2^q` over an interval narrowed below a power
/// of two) and `h = ⌊log₂ 10^-k⌋ + q + 1`, in `1..=4`, the shift that
/// keeps two fraction bits below the integer part of `4c · 2^q · 10^-k`.
#[inline(always)]
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
    (pick(lower, scaled, upper, |s| s / 10), k)
}

/// The digits of the shortest decimal in the rounding interval `[lower,
/// upper] / 4 · 10ᵏ` around `scaled / 4 · 10ᵏ` (all three rounded to
/// odd), at the scale of `10ᵏ`: every candidate weighed and one taken by
/// selects. `div10` is `⌊s / 10⌋` over the width's range of `s`.
#[inline(always)]
fn pick(lower: u64, scaled: u64, upper: u64, div10: impl Fn(u64) -> u64) -> u64 {
    let s = scaled / 4;
    // One digit fewer: at most one multiple of ten lies in the interval.
    let tens = div10(s);
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

/// The text of [`EXP_BLOCK`] values, one a lane, as [`exp_block`],
/// [`exp_block_f32`] and [`uint_block`] lay it out: lane `l`'s bytes are
/// the little-endian words `words[0][l]`, `words[1][l]`, …, of which the
/// first `len[l]` are the text and the rest scratch.
#[derive(Clone, Debug, Default)]
pub struct ExpBlock {
    words: [[u64; EXP_BLOCK]; EXP_WORDS],
    len: [u8; EXP_BLOCK],
}

impl ExpBlock {
    /// Bytes [`put`](Self::put) writes: a lane's every word, at least
    /// the longest text of either width.
    pub const PUT_LEN: usize = 8 * EXP_WORDS;

    /// Copies lane `lane`'s text to the start of `out`, whole words, and
    /// returns its length. The bytes of `out` after the text, up to
    /// [`PUT_LEN`](Self::PUT_LEN), are overwritten with scratch.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not below [`EXP_BLOCK`] or `out` is shorter
    /// than [`PUT_LEN`](Self::PUT_LEN).
    ///
    /// # Example
    ///
    /// ```
    /// use pic_math::decimal::{exp_block_f32, ExpBlock, EXP_BLOCK};
    ///
    /// let mut values = [0.0f32; EXP_BLOCK];
    /// values[3] = 0.1;
    /// let block = exp_block_f32(&values);
    /// let mut buf = [0u8; ExpBlock::PUT_LEN];
    /// let n = block.put(3, &mut buf);
    /// assert_eq!(&buf[..n], b"1e-1");
    /// ```
    #[inline(always)]
    pub fn put(&self, lane: usize, out: &mut [u8]) -> usize {
        let out = &mut out[..Self::PUT_LEN];
        for (to, words) in out.chunks_exact_mut(8).zip(&self.words) {
            to.copy_from_slice(&words[lane].to_le_bytes());
        }
        usize::from(self.len[lane])
    }
}

/// What the text of each lane's finite non-zero value is made of, and
/// which lanes print a name instead: the layout's input at either width.
/// `GROUPS` is the fraction's eight-digit groups (1 for `f32`, 2 for
/// `f64`).
struct Parts<const GROUPS: usize> {
    /// 1 where the value is negative.
    negative: [u32; EXP_BLOCK],
    /// The value's [`name`], 0 where it has digits.
    named: [u32; EXP_BLOCK],
    /// The first digit, `1..=9`.
    lead: [u32; EXP_BLOCK],
    /// The digits after the first, eight a group, the first group first.
    groups: [[u32; EXP_BLOCK]; GROUPS],
    /// The decimal exponent of the first digit.
    exponent: [i32; EXP_BLOCK],
}

impl<const GROUPS: usize> Parts<GROUPS> {
    fn new() -> Parts<GROUPS> {
        Parts {
            negative: [0; EXP_BLOCK],
            named: [0; EXP_BLOCK],
            lead: [0; EXP_BLOCK],
            groups: [[0; EXP_BLOCK]; GROUPS],
            exponent: [0; EXP_BLOCK],
        }
    }
}

/// The greedy binary sequence that scales `f32` digits (1 to 9 of them)
/// to exactly 9: `(limit, factor, shift)`, multiply by `factor` = 10^shift
/// where the digits are below `limit`, so that they stay below 10⁹. The
/// shifts 8, 4, 2, 1 sum to every count 0..=8 of missing digits.
const F32_STEPS: [(u32, u32, i32); 4] = [
    (10, 100_000_000, 8),
    (100_000, 10_000, 4),
    (10_000_000, 100, 2),
    (100_000_000, 10, 1),
];

/// [`F32_STEPS`] for `f64` digits (1 to 17 of them), scaled to 17.
const F64_STEPS: [(u64, u64, i32); 5] = [
    (10, 10_000_000_000_000_000, 16),
    (1_000_000_000, 100_000_000, 8),
    (10_000_000_000_000, 10_000, 4),
    (1_000_000_000_000_000, 100, 2),
    (10_000_000_000_000_000, 10, 1),
];

/// `digits · 10ᵏ` as its parts: the digits scaled by `steps` to exactly
/// `1 + 8 · GROUPS` of them (`unit` is 10^(8 · GROUPS), the first digit's
/// place), then the first digit, the eight-digit groups after it, and the
/// first digit's exponent. `T` is `u32` for `f32` digits, so that a lane
/// of them is a 32-bit lane, and `u64` for `f64` ones.
#[inline(always)]
fn split<T, const GROUPS: usize>(
    digits: T,
    k: i32,
    steps: &[(T, T, i32)],
    unit: T,
) -> (u32, [u32; GROUPS], i32)
where
    T: Copy + PartialOrd + Mul<Output = T> + Div<Output = T> + Sub<Output = T> + Into<u64>,
{
    let (mut full, mut exponent) = (digits, k + 8 * GROUPS as i32);
    for &(limit, factor, shift) in steps {
        let short = full < limit;
        full = if short { full * factor } else { full };
        exponent -= if short { shift } else { 0 };
    }
    let lead = full / unit;
    let mut fraction: u64 = (full - lead * unit).into();
    let mut groups = [0u32; GROUPS];
    for group in (1..GROUPS).rev() {
        groups[group] = (fraction % 100_000_000) as u32;
        fraction /= 100_000_000;
    }
    groups[0] = fraction as u32;
    (lead.into() as u32, groups, exponent)
}

/// `{:e}`'s text of each value of `values`, as `format!("{x:e}")` prints
/// an `f64`: the shortest digits that read back as it, `d[.ddd]e[-]x`,
/// `NaN`, `inf`, `-inf`, `0e0`, `-0e0`. At most [`MAX_EXP_LEN`] bytes a
/// lane. The digits are [`shortest`]'s, one lane at a time; the text is
/// laid out as lane code.
///
/// # Example
///
/// ```
/// use pic_math::decimal::{exp_block, ExpBlock, EXP_BLOCK};
///
/// let mut values = [1.0f64; EXP_BLOCK];
/// values[0] = -1.5e-7;
/// let block = exp_block(&values);
/// let mut buf = [0u8; ExpBlock::PUT_LEN];
/// let n = block.put(0, &mut buf);
/// assert_eq!(&buf[..n], b"-1.5e-7");
/// let n = block.put(1, &mut buf);
/// assert_eq!(&buf[..n], b"1e0");
/// ```
pub fn exp_block(values: &[f64; EXP_BLOCK]) -> ExpBlock {
    const INF: u64 = 0x7ff0_0000_0000_0000;
    let mut parts = Parts::<2>::new();
    // bounds: every index in this fn is `[l]` with `l in 0..EXP_BLOCK`
    // into `[_; EXP_BLOCK]` arrays — in range by construction.
    for (l, value) in values.iter().enumerate() {
        let bits = value.to_bits();
        let magnitude = bits & (u64::MAX >> 1);
        parts.negative[l] = (bits >> 63) as u32;
        parts.named[l] = name(magnitude == 0, magnitude == INF, magnitude > INF);
        // A named value's digits are those of 1 and go unused.
        let magnitude = if parts.named[l] != 0 {
            1f64.to_bits()
        } else {
            magnitude
        };
        let (digits, k) = shortest(magnitude);
        let (lead, [first, last], exponent) = split(digits, k, &F64_STEPS, 10_u64.pow(16));
        parts.lead[l] = lead;
        parts.groups[0][l] = first;
        parts.groups[1][l] = last;
        parts.exponent[l] = exponent;
    }
    lay_out_block::<2, 3>(&parts)
}

/// [`exp_block`] of `f32`s: the bytes `format!("{x:e}")` prints for the
/// `f32` itself (where the value widened to `f64` would print up to 17
/// digits). At most [`MAX_EXP_LEN_F32`] bytes a lane.
///
/// The digits are Schubfach's float variant on `g`'s upper 64 bits
/// rounded up ([`G32`]), with a product window 32 bits wider than the
/// value's: [`round_to_odd_f32`]'s two 32×32-bit products a candidate,
/// and `⌊s / 10⌋ = s · 0xCCCCCCCD >> 35` (`s < 2²⁸`) — per-lane array code
/// with no branch, as is the layout after it.
///
/// # Example
///
/// ```
/// use pic_math::decimal::{exp_block_f32, ExpBlock, EXP_BLOCK};
///
/// let mut values = [f32::NAN; EXP_BLOCK];
/// values[15] = -3.0e38;
/// let block = exp_block_f32(&values);
/// let mut buf = [0u8; ExpBlock::PUT_LEN];
/// let n = block.put(15, &mut buf);
/// assert_eq!(&buf[..n], b"-3e38");
/// let n = block.put(14, &mut buf);
/// assert_eq!(&buf[..n], b"NaN");
/// ```
pub fn exp_block_f32(values: &[f32; EXP_BLOCK]) -> ExpBlock {
    const FRACTION_BITS: u32 = 23;
    const INF: u32 = 0x7f80_0000;
    let mut parts = Parts::<1>::new();
    let mut digits = [0u32; EXP_BLOCK];
    let mut k = [0i32; EXP_BLOCK];
    // bounds: every index in this fn is `[l]` with `l in 0..EXP_BLOCK`
    // into `[_; EXP_BLOCK]` arrays, and a clamped one into `G32`.
    for l in 0..EXP_BLOCK {
        let bits = values[l].to_bits();
        let magnitude = bits & (u32::MAX >> 1);
        parts.negative[l] = bits >> 31;
        parts.named[l] = name(magnitude == 0, magnitude == INF, magnitude > INF);
        // A named value's digits are those of 1 and go unused.
        let magnitude = if parts.named[l] != 0 {
            1f32.to_bits()
        } else {
            magnitude
        };
        let fraction = magnitude & ((1 << FRACTION_BITS) - 1);
        let biased = magnitude >> FRACTION_BITS;
        // value = c · 2^q; a subnormal's exponent is the smallest normal one.
        let c = fraction | u32::from(biased != 0) << FRACTION_BITS;
        let q = biased.max(1) as i32 - 150;
        let narrow_below = (fraction == 0) & (biased != 0);
        let (k_l, h) = scale(q, narrow_below);
        k[l] = k_l;
        // -k is in MIN_POW10_F32..=MAX_POW10_F32 for every q in
        // -149..=104; the clamp only proves it.
        let g = G32[(-k_l - MIN_POW10_F32).clamp(0, MAX_POW10_F32 - MIN_POW10_F32) as usize];
        let h = h as u32;
        let odd = u64::from(c & 1);
        let lower = round_to_odd_f32(g, 4 * c - 2 + u32::from(narrow_below), h) + odd;
        let scaled = round_to_odd_f32(g, 4 * c, h);
        let upper = round_to_odd_f32(g, 4 * c + 2, h) - odd;
        digits[l] = pick(lower, scaled, upper, |s| (s * 0xcccc_cccd) >> 35) as u32;
    }
    // Its own loop, in 32-bit lanes throughout.
    for l in 0..EXP_BLOCK {
        let (lead, [group], exponent) = split(digits[l], k[l], &F32_STEPS, 100_000_000);
        parts.lead[l] = lead;
        parts.groups[0][l] = group;
        parts.exponent[l] = exponent;
    }
    lay_out_block::<1, 2>(&parts)
}

/// The decimal text of each species id of `values`, as `{}` prints a
/// `u16`, in an [`ExpBlock`] of the same layout: at most 5 bytes a lane.
///
/// # Example
///
/// ```
/// use pic_math::decimal::{uint_block, ExpBlock, EXP_BLOCK};
///
/// let block = uint_block(&[65_535; EXP_BLOCK]);
/// let mut buf = [0u8; ExpBlock::PUT_LEN];
/// let n = block.put(0, &mut buf);
/// assert_eq!(&buf[..n], b"65535");
/// ```
pub fn uint_block(values: &[u16; EXP_BLOCK]) -> ExpBlock {
    let mut block = ExpBlock::default();
    // bounds: every index is `[l]` with `l in 0..EXP_BLOCK`.
    for (l, &id) in values.iter().enumerate() {
        let n = u32::from(id);
        let count = 1 + u32::from(n >= 10) + u32::from(n >= 100);
        let count = count + u32::from(n >= 1_000) + u32::from(n >= 10_000);
        // Five digits with leading zeros, first in the lowest byte,
        // shifted down past the zeros.
        let high = n / 10_000;
        let five = u64::from(u32::from(b'0') + high)
            | u64::from(four_digits(n - high * 10_000) | ASCII_ZEROS) << 8;
        block.words[0][l] = five >> (8 * (5 - count));
        block.len[l] = count as u8;
    }
    block
}

/// The texts of the values with no digits, as little-endian words:
/// `NaN` (never signed), `inf` and `0e0` (signed).
const NAN_TEXT: u32 = u32::from_le_bytes(*b"NaN\0");
const INF_TEXT: u32 = u32::from_le_bytes(*b"inf\0");
const ZERO_TEXT: u32 = u32::from_le_bytes(*b"0e0\0");

/// A value's text when it has no digits, 0 for a finite non-zero one.
#[inline(always)]
fn name(zero: bool, infinite: bool, nan: bool) -> u32 {
    if nan {
        NAN_TEXT
    } else if infinite {
        INF_TEXT
    } else if zero {
        ZERO_TEXT
    } else {
        0
    }
}

/// `0x30` (`'0'`) in every byte of a word.
const ASCII_ZEROS: u32 = 0x3030_3030;

/// The low `n` bytes of a word set, `n` clamped to `0..=4`.
#[inline(always)]
fn low_bytes(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        u32::MAX >> (32 - 8 * n.min(4))
    }
}

/// The four decimal digits of `n < 10⁴`, one a byte, the first in the
/// lowest: `n`'s text once [`ASCII_ZEROS`] is added, stored little-endian.
/// Each split — into halves of two digits, then single digits — divides
/// every lane of the word at once by a multiply and shift that is exact
/// over the lane's range (x · 5243 >> 19 = ⌊x / 100⌋ below 43 699,
/// x · 103 >> 10 = ⌊x / 10⌋ below 179) and whose product stays inside the
/// lane (SWAR).
#[inline(always)]
fn four_digits(n: u32) -> u32 {
    // Two 16-bit lanes: the first two digits low, the last two high.
    let hundreds = (n * 5243) >> 19;
    let pairs = hundreds | (n - hundreds * 100) << 16;
    let tens = ((pairs * 103) >> 10) & 0x000f_000f;
    tens | (pairs - tens * 10) << 8
}

/// `{:e}`'s text of a block of floats of either width from its parts:
/// per lane the sign, then the `named` text, or else the first digit, the
/// point, the fraction up to its last non-zero digit, `e`, the exponent's
/// sign and one to `EXP_DIGITS` digits.
///
/// Two loops over the lanes. The first works in 32-bit lanes: each
/// eight-digit group becomes two SWAR words of four digits, whose high
/// zero bytes are the fraction's trailing zeros, and only the shown
/// digits are made ASCII, so the bytes after them stay zero; it lays out
/// the head (sign, first digit, point) and the exponent's text, and the
/// offsets of the fraction and the exponent. The second works in 64-bit
/// lanes: it ORs each piece into the lane's text words at its offset and
/// puts a name in place of the first word where there is one. Every
/// choice is a select.
#[inline(always)]
fn lay_out_block<const GROUPS: usize, const EXP_DIGITS: u32>(parts: &Parts<GROUPS>) -> ExpBlock {
    // Sign, first digit, point, fraction, `e-`, exponent.
    let text_words = (3 + 8 * GROUPS + 2 + EXP_DIGITS as usize).div_ceil(8);
    // bounds: every `[l]` below is `l in 0..EXP_BLOCK` into
    // `[_; EXP_BLOCK]` arrays; the word indices are below `text_words`,
    // which is at most EXP_WORDS (the const assert on MAX_EXP_LEN).
    let mut fraction = [[[0u32; EXP_BLOCK]; 2]; GROUPS];
    let mut head = [0u32; EXP_BLOCK];
    let mut fraction_at = [0u32; EXP_BLOCK];
    let mut exp_text = [0u32; EXP_BLOCK];
    let mut exp_at = [0u32; EXP_BLOCK];
    let mut len = [0u32; EXP_BLOCK];
    for l in 0..EXP_BLOCK {
        let mut halves = [[0u32; 2]; GROUPS];
        for (group, half) in halves.iter_mut().enumerate() {
            let digits = parts.groups[group][l];
            let high = digits / 10_000;
            *half = [four_digits(high), four_digits(digits - high * 10_000)];
        }
        // Zero bytes at the top of the last non-zero word, and every
        // word after it.
        let (mut zeros, mut tail) = (0, true);
        for half in halves.iter().rev() {
            for &word in half.iter().rev() {
                zeros += (word.leading_zeros() / 8) * u32::from(tail);
                tail &= word == 0;
            }
        }
        let shown = 8 * GROUPS as u32 - zeros;
        for (group, half) in halves.iter().enumerate() {
            for (i, &word) in half.iter().enumerate() {
                let ascii = low_bytes(shown.saturating_sub(8 * group as u32 + 4 * i as u32));
                fraction[group][i][l] = word | (ASCII_ZEROS & ascii);
            }
        }
        let sign = parts.negative[l];
        let point = if shown > 0 { u32::from(b'.') } else { 0 };
        let lead = (u32::from(b'0') + parts.lead[l]) | point << 8;
        head[l] = if sign != 0 {
            u32::from(b'-') | lead << 8
        } else {
            lead
        };
        fraction_at[l] = 2 + sign;
        exp_at[l] = 1 + sign + u32::from(shown > 0) + shown;
        // One to three digits: the three right-aligned in a word and
        // shifted down past the leading zeros.
        let e = parts.exponent[l].unsigned_abs();
        let count = 1 + u32::from(e >= 10) + u32::from(e >= 100);
        let hundreds = if EXP_DIGITS == 3 { e / 100 } else { 0 };
        let three = (u32::from(b'0') + hundreds)
            | (u32::from(b'0') + e / 10 % 10) << 8
            | (u32::from(b'0') + e % 10) << 16;
        let digits = three >> (8 * (3 - count));
        let below = parts.exponent[l] < 0;
        exp_text[l] = if below {
            u32::from(b'-') | digits << 8
        } else {
            digits
        };
        len[l] = exp_at[l] + 1 + u32::from(below) + count;
    }

    let mut block = ExpBlock::default();
    for l in 0..EXP_BLOCK {
        let mut words = [0u64; EXP_WORDS];
        words[0] = u64::from(head[l]);
        // A group lands two or three bytes into its word: what does not
        // fit spills into the next.
        let at = 8 * fraction_at[l];
        for (group, half) in fraction.iter().enumerate() {
            let digits = u64::from(half[0][l]) | u64::from(half[1][l]) << 32;
            words[group] |= digits << at;
            words[group + 1] |= digits >> (64 - at);
        }
        // `e` and the exponent land anywhere: each word takes the part of
        // them that falls in it.
        let tail = u64::from(b'e') | u64::from(exp_text[l]) << 8;
        let at = 8 * exp_at[l] as i32;
        for (w, word) in words.iter_mut().enumerate().take(text_words) {
            let ahead = at - 64 * w as i32;
            let left = tail.checked_shl(ahead as u32).unwrap_or(0);
            let right = tail.checked_shr(ahead.wrapping_neg() as u32).unwrap_or(0);
            *word |= if ahead >= 0 { left } else { right };
        }
        // A named value's text replaces the first word; the rest is
        // scratch.
        let named = parts.named[l] != 0;
        let signed = (parts.negative[l] != 0) & (parts.named[l] != NAN_TEXT);
        let text = u64::from(parts.named[l]);
        let text = if signed {
            u64::from(b'-') | text << 8
        } else {
            text
        };
        words[0] = if named { text } else { words[0] };
        for (to, &word) in block.words.iter_mut().zip(&words).take(text_words) {
            to[l] = word;
        }
        block.len[l] = if named {
            3 + u8::from(signed)
        } else {
            len[l] as u8
        };
    }
    block
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
        // `exp_block_f32`'s range, whose entries `G32` rounds up at 64 bits.
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
