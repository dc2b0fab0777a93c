//! The floating-point abstraction (`FP` in the paper's Hi-Chi code).
//!
//! The paper (§3) stresses that Hi-Chi "can easily switch between using
//! single and double precision data types" by abstracting the scalar type
//! as `FP`. [`Real`] is the Rust equivalent: a sealed trait implemented for
//! exactly `f32` and `f64`, carrying every scalar operation the pushers,
//! field evaluators and solvers need.

use crate::decimal;
use std::fmt::{Debug, Display, LowerExp};
use std::iter::Sum;
use std::num::ParseFloatError;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

mod private {
    /// Prevents downstream implementations so new methods can be added
    /// without a breaking change (C-SEALED).
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Abstraction over `f32`/`f64`, mirroring the paper's `FP` typedef.
///
/// This trait is sealed: it is implemented for `f32` and `f64` only and
/// cannot be implemented outside this crate.
///
/// # Example
///
/// ```
/// use pic_math::Real;
///
/// fn kinetic_energy<R: Real>(gamma: R, mc2: R) -> R {
///     (gamma - R::ONE) * mc2
/// }
/// assert_eq!(kinetic_energy(2.0_f32, 1.0), 1.0);
/// assert_eq!(kinetic_energy(2.0_f64, 1.0), 1.0);
/// ```
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + LowerExp
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + FromStr<Err = ParseFloatError>
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The constant 2.
    const TWO: Self;
    /// The constant 1/2.
    const HALF: Self;
    /// Archimedes' constant π.
    const PI: Self;
    /// Machine epsilon of the underlying type.
    const EPSILON: Self;
    /// Largest finite value.
    const MAX: Self;
    /// Number of bytes in the in-memory representation (4 or 8).
    const BYTES: usize;
    /// Human-readable name matching the paper's tables: `"float"`/`"double"`.
    const NAME: &'static str;
    /// Largest `|x|` [`sin_cos_poly`](Self::sin_cos_poly) is accurate for:
    /// 8192 in `f32`, 2²⁰ in `f64` — the reach of its three-constant
    /// argument reduction.
    const SIN_COS_POLY_MAX: Self;
    /// Longest text [`exp_block`](Self::exp_block) lays out for one
    /// value: 15 bytes for `f32`, 24 for `f64`.
    const MAX_EXP_LEN: usize;

    /// The text of each of a block of values as `format!("{:e}")` prints
    /// it at this precision — the shortest digits that read back as the
    /// value at this width ([`crate::decimal`]) — computed as lane code,
    /// one value a lane.
    fn exp_block(values: &[Self; decimal::EXP_BLOCK]) -> decimal::ExpBlock;

    /// Lossy conversion from `f64` (used for literals and constants).
    fn from_f64(x: f64) -> Self;
    /// Lossless widening to `f64` (used by diagnostics and statistics).
    fn to_f64(self) -> f64;
    /// Conversion from an index or count.
    fn from_usize(n: usize) -> Self;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Sine (radians).
    fn sin(self) -> Self;
    /// Cosine (radians).
    fn cos(self) -> Self;
    /// Simultaneous sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// Simultaneous sine and cosine as straight-line code: no call, no
    /// branch, no table — the form a loop over lanes needs to compile to
    /// vertical SIMD (rustc has no vector libm to widen
    /// [`sin_cos`](Self::sin_cos) with).
    ///
    /// `|x|` is reduced to `r ∈ [−π/4, π/4]` by Cody–Waite: the quadrant
    /// `q = round(|x|·2/π)` comes from adding and subtracting 1.5·2ᵖ⁻¹
    /// (which also leaves `q mod 4` in the low mantissa bits), and
    /// `r = |x| − q·π/2` is taken in three fused steps against a π/2 split
    /// so that the first two products are exact. Two fixed-degree Horner
    /// polynomials (the Cephes `sincof`/`coscof` minimax fits) give
    /// `sin r` and `cos r`; the quadrant swaps them with a select and
    /// flips signs by xor on the sign bit, as does the sign of `x`.
    ///
    /// For `|x| ≤` [`SIN_COS_POLY_MAX`](Self::SIN_COS_POLY_MAX) each
    /// result is within 2 ulp of the exact value plus an absolute
    /// `|x|·2⁻⁴⁸` (`f32`) / `|x|·2⁻¹²⁰` (`f64`) left by the reduction —
    /// that is, within 3 ulp wherever the value is at least `|x|·2⁻²⁴` /
    /// `|x|·2⁻⁶⁷`; only that close to a zero crossing does the relative
    /// error grow (measured over every `f32` in range: 893 of 2.3·10⁹
    /// results beyond 2 ulp, absolute error never above 9.3·10⁻⁸).
    /// `sin(−x) = −sin(x)` and `cos(−x) = cos(x)` hold bit for bit.
    /// Beyond the bound, and for NaN and ±∞, the value is meaningless
    /// (never a panic): callers guard the range and fall back to
    /// [`sin_cos`](Self::sin_cos).
    fn sin_cos_poly(self) -> (Self, Self);
    /// Exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Reciprocal `1/self`.
    fn recip(self) -> Self;
    /// Largest integer ≤ `self`.
    fn floor(self) -> Self;
    /// Rounds half away from zero.
    fn round(self) -> Self;
    /// Minimum of two values (propagates the non-NaN operand).
    fn min(self, other: Self) -> Self;
    /// Maximum of two values (propagates the non-NaN operand).
    fn max(self, other: Self) -> Self;
    /// `true` if the value is finite.
    fn is_finite(self) -> bool;
    /// `true` if the value is NaN.
    fn is_nan(self) -> bool;

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    fn clamp(self, lo: Self, hi: Self) -> Self {
        debug_assert!(lo <= hi, "clamp: lo > hi");
        self.max(lo).min(hi)
    }
}

/// Constants of [`Real::sin_cos_poly`] for one precision. Polynomial
/// coefficients are listed highest power first.
struct TrigPoly<T, const N: usize> {
    /// Largest accurate `|x|`.
    max: T,
    /// 1.5·2ᵖ⁻¹ for a `p`-bit significand.
    magic: T,
    two_over_pi: T,
    /// π/2 = `pio2[0] + pio2[1] + pio2[2]`; the first two are short
    /// enough that `q·pio2[i]` is exact for every quadrant count in range.
    pio2: [T; 3],
    /// `sin r = r + r·z·S(z)`, `z = r²`.
    sin: [T; N],
    /// `cos r = 1 − z/2 + z²·C(z)`.
    cos: [T; N],
}

/// π/2 split 11 + 11 + 24 bits (quadrant counts below 2¹³).
#[allow(clippy::excessive_precision)]
const TRIG_F32: TrigPoly<f32, 3> = TrigPoly {
    max: 8192.0,
    magic: 12_582_912.0,
    two_over_pi: std::f32::consts::FRAC_2_PI,
    pio2: [
        1.570_312_5,
        4.837_512_969_970_703e-4,
        7.549_790_126_404_332e-8,
    ],
    sin: [-1.9515295891e-4, 8.3321608736e-3, -1.6666654611e-1],
    cos: [
        2.443315711809948e-5,
        -1.388731625493765e-3,
        4.166664568298827e-2,
    ],
};

/// π/2 split 33 + 33 + 53 bits (quadrant counts below 2²⁰).
// The Cephes coefficients are kept with every digit of the source table.
#[allow(clippy::excessive_precision)]
const TRIG_F64: TrigPoly<f64, 6> = TrigPoly {
    max: 1_048_576.0,
    magic: 6_755_399_441_055_744.0,
    two_over_pi: std::f64::consts::FRAC_2_PI,
    pio2: [
        1.570_796_326_734_125_6,
        6.077_100_506_303_966e-11,
        2.022_266_248_795_950_6e-21,
    ],
    sin: [
        1.58962301576546568060e-10,
        -2.50507477628578072866e-8,
        2.75573136213857245213e-6,
        -1.98412698295895385996e-4,
        8.33333333332211858878e-3,
        -1.66666666666666307295e-1,
    ],
    cos: [
        -1.13585365213876817300e-11,
        2.08757008419747316778e-9,
        -2.75573141792967388112e-7,
        2.48015872888517045348e-5,
        -1.38888888888730564116e-3,
        4.16666666666665929218e-2,
    ],
};

macro_rules! impl_real {
    ($t:ty, $name:expr, $bytes:expr, $pi:expr, $trig:expr, $exp_len:expr, $exp_block:path) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;
            const PI: Self = $pi;
            const EPSILON: Self = <$t>::EPSILON;
            const MAX: Self = <$t>::MAX;
            const BYTES: usize = $bytes;
            const NAME: &'static str = $name;
            const SIN_COS_POLY_MAX: Self = $trig.max;
            const MAX_EXP_LEN: usize = $exp_len;

            #[inline(always)]
            fn exp_block(values: &[Self; decimal::EXP_BLOCK]) -> decimal::ExpBlock {
                $exp_block(values)
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_usize(n: usize) -> Self {
                n as $t
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn sin_cos(self) -> (Self, Self) {
                self.sin_cos()
            }
            #[inline(always)]
            fn sin_cos_poly(self) -> (Self, Self) {
                let t = &$trig;
                let sign_bit = (-0.0 as $t).to_bits();
                let ax = self.abs();
                // The sum lands in [2ᵖ⁻¹, 2ᵖ), where one ulp is 1: it is
                // rounded to an integer, whose low bits are its own.
                let shifted = ax.mul_add(t.two_over_pi, t.magic);
                let quadrant = shifted.to_bits();
                let q = shifted - t.magic;
                let [hi, mid, lo] = t.pio2;
                let r = q.mul_add(-hi, ax);
                let r = q.mul_add(-mid, r);
                let r = q.mul_add(-lo, r);
                let z = r * r;
                let [s0, s_rest @ ..] = t.sin;
                let [c0, c_rest @ ..] = t.cos;
                let s_poly = s_rest.iter().fold(s0, |acc, &c| acc.mul_add(z, c));
                let c_poly = c_rest.iter().fold(c0, |acc, &c| acc.mul_add(z, c));
                let sin_r = (s_poly * z).mul_add(r, r);
                let cos_r = (c_poly * z).mul_add(z, z.mul_add(-0.5, 1.0));
                // Odd quadrants swap the pair; sin is negated in quadrants
                // 2, 3 and for negative x, cos in quadrants 1, 2.
                let (s, c) = if quadrant & 1 == 0 {
                    (sin_r, cos_r)
                } else {
                    (cos_r, sin_r)
                };
                let to_sign = sign_bit.trailing_zeros() - 1;
                let s_flip = ((quadrant & 2) << to_sign) ^ (self.to_bits() & sign_bit);
                let c_flip = (quadrant.wrapping_add(1) & 2) << to_sign;
                (
                    <$t>::from_bits(s.to_bits() ^ s_flip),
                    <$t>::from_bits(c.to_bits() ^ c_flip),
                )
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                self.recip()
            }
            #[inline(always)]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline(always)]
            fn round(self) -> Self {
                self.round()
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
        }
    };
}

impl_real!(
    f32,
    "float",
    4,
    std::f32::consts::PI,
    TRIG_F32,
    decimal::MAX_EXP_LEN_F32,
    decimal::exp_block_f32
);
impl_real!(
    f64,
    "double",
    8,
    std::f64::consts::PI,
    TRIG_F64,
    decimal::MAX_EXP_LEN,
    decimal::exp_block
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Real>() {
        assert_eq!(R::from_f64(0.0), R::ZERO);
        assert_eq!(R::from_f64(1.0), R::ONE);
        assert_eq!(R::ONE + R::ONE, R::TWO);
        assert_eq!(R::ONE / R::TWO, R::HALF);
        assert_eq!(R::from_usize(7).to_f64(), 7.0);
    }

    #[test]
    fn identities_f32() {
        roundtrip::<f32>();
    }

    #[test]
    fn identities_f64() {
        roundtrip::<f64>();
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(f32::NAME, "float");
        assert_eq!(f64::NAME, "double");
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn trig_and_sqrt() {
        fn check<R: Real>(tol: f64) {
            let x = R::from_f64(0.7);
            let (s, c) = x.sin_cos();
            assert!((s.to_f64() - 0.7f64.sin()).abs() < tol);
            assert!((c.to_f64() - 0.7f64.cos()).abs() < tol);
            assert!(((s * s + c * c).to_f64() - 1.0).abs() < tol);
            assert!((R::from_f64(2.0).sqrt().to_f64() - 2.0f64.sqrt()).abs() < tol);
        }
        check::<f32>(1e-6);
        check::<f64>(1e-14);
    }

    /// Spacing of `R` at `|v|` (at least at 10⁻³⁰, so exact zeros have one).
    fn ulp<R: Real>(v: f64) -> f64 {
        2f64.powi(v.abs().max(1e-30).log2().floor() as i32) * R::EPSILON.to_f64()
    }

    /// Checks one argument of `sin_cos_poly` against `f64` libm: the
    /// documented bound — `ulps` ulp of the reference plus `|x|·reduction`
    /// — and the properties that hold exactly.
    fn check_sin_cos<R: Real>(x: R, ulps: f64, reduction: f64) {
        let (s, c) = x.sin_cos_poly();
        let (want_s, want_c) = x.to_f64().sin_cos();
        for (got, want, what) in [(s, want_s, "sin"), (c, want_c, "cos")] {
            let err = (got.to_f64() - want).abs();
            let bound = ulps * ulp::<R>(want) + x.to_f64().abs() * reduction;
            assert!(
                err <= bound,
                "{what}({x:e}) = {got:e}, libm {want:e}: off by {:.2} ulp",
                err / ulp::<R>(want)
            );
        }
        assert!(
            s.abs() <= R::ONE && c.abs() <= R::ONE,
            "|sin|, |cos| <= 1 at {x:e}"
        );
        let norm = (s * s + c * c).to_f64();
        assert!(
            (norm - 1.0).abs() <= 4.0 * R::EPSILON.to_f64(),
            "s²+c² = {norm} at {x:e}"
        );
        // Odd and even, bit for bit (also tells −0.0 from +0.0).
        let (ns, nc) = (-x).sin_cos_poly();
        assert_eq!(
            (ns.to_f64().to_bits(), nc.to_f64().to_bits()),
            ((-s).to_f64().to_bits(), c.to_f64().to_bits()),
            "symmetry at {x:e}"
        );
    }

    /// `x`, its two neighbours, and all three negated.
    fn check_around<R: Real>(x: R, ulps: f64, reduction: f64) {
        let step = R::from_f64(ulp::<R>(x.to_f64()));
        for x in [x - step, x, x + step] {
            if x.abs() <= R::SIN_COS_POLY_MAX {
                check_sin_cos(x, ulps, reduction);
                check_sin_cos(-x, ulps, reduction);
            }
        }
    }

    /// The accuracy sweep of `sin_cos_poly` over its whole range. `ulps`
    /// is 2 plus what the reference itself may be off by.
    fn sin_cos_poly_sweep<R: Real>(ulps: f64, reduction: f64) {
        let max = R::SIN_COS_POLY_MAX.to_f64();
        // A dense grid of [0, max], denser near 0 (the square of a uniform
        // grid), both signs.
        let grid = 200_000;
        for i in 0..=grid {
            let t = i as f64 / grid as f64;
            check_sin_cos(R::from_f64(t * max), ulps, reduction);
            check_sin_cos(R::from_f64(-t * t * max), ulps, reduction);
        }
        // Every multiple of π/4 up to 10⁵ and every 61st beyond — where one
        // of the pair crosses zero or the quadrant changes — ± 1 ulp.
        let quarter = std::f64::consts::FRAC_PI_4;
        let mut k = 0usize;
        while k as f64 * quarter <= max {
            check_around(R::from_f64(k as f64 * quarter), ulps, reduction);
            k += if k < 100_000 { 1 } else { 61 };
        }
        // Zeros, subnormals, powers of two up to the bound.
        check_sin_cos(R::ZERO, ulps, reduction);
        check_sin_cos(-R::ZERO, ulps, reduction);
        let (s, c) = (-R::ZERO).sin_cos_poly();
        assert!(
            s == R::ZERO && (R::ONE / s) < R::ZERO && c == R::ONE,
            "sin(−0) = −0"
        );
        let mut x = R::SIN_COS_POLY_MAX;
        while x > R::ZERO {
            check_around(x, ulps, reduction);
            x *= R::HALF;
        }
    }

    #[test]
    fn sin_cos_poly_meets_its_bound_in_f32() {
        // The f64 reference is exact to f32 accuracy.
        sin_cos_poly_sweep::<f32>(2.0, 2f64.powi(-48));
    }

    #[test]
    fn sin_cos_poly_meets_its_bound_in_f64() {
        // libm's own result may be an ulp off the exact value.
        sin_cos_poly_sweep::<f64>(3.0, 2f64.powi(-120));
    }

    #[test]
    fn sin_cos_poly_returns_for_every_input() {
        // Out of range is meaningless, never a panic (callers guard it).
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, 2e6] {
            let _ = x.sin_cos_poly();
            let _ = (x as f32).sin_cos_poly();
        }
        assert!(f32::NAN.sin_cos_poly().0.is_nan());
        assert!(f64::INFINITY.sin_cos_poly().1.is_nan());
    }

    #[test]
    fn clamp_orders() {
        assert_eq!(5.0f64.clamp(0.0, 1.0), 1.0);
        assert_eq!((-5.0f64).clamp(0.0, 1.0), 0.0);
        assert_eq!(0.5f32.clamp(0.0, 1.0), 0.5);
    }

    #[test]
    fn mul_add_matches() {
        let r = 2.0f64.mul_add(3.0, 4.0);
        assert_eq!(r, 10.0);
    }

    #[test]
    fn min_max_behave() {
        assert_eq!(Real::min(1.0f32, 2.0), 1.0);
        assert_eq!(Real::max(1.0f32, 2.0), 2.0);
    }
}
