//! Radial functions of the standing m-dipole wave (paper Eq. 15).
//!
//! The benchmark field (paper §5.2) is built from three radial functions
//!
//! ```text
//! f1(x) = sin(x)/x² − cos(x)/x                                  (= j₁(x))
//! f2(x) = (3/x³ − 1/x)·sin(x) − 3·cos(x)/x²                     (= j₂(x))
//! f3(x) = (1/x − 1/x³)·sin(x) + cos(x)/x²                       (= j₀(x) − j₁(x)/x)
//! ```
//!
//! with `x = kR`. The field needs them as `f₁/x`, `f₂/x²` and `f₃`, all
//! finite at the focus, and [`radial`] is the one body that computes that
//! triple; every other function here is an expression over it.
//!
//! The body is straight-line code — one [`Real::sin_cos_poly`] pair, one
//! reciprocal, three fixed-length Horner sums, a select — so that a loop
//! over lanes ([`radial_lanes`]) compiles to vertical SIMD and the scalar
//! and the blocked field samplers run the same operations per lane:
//!
//! * away from the focus, with `j₀ = sin x / x`, the spherical Bessel
//!   recurrences give `f₁/x = (j₀ − cos x)/x²`, `f₂/x² = (3·f₁/x − j₀)/x²`
//!   and `f₃ = j₀ − f₁/x`;
//! * near the focus (`x < 1`) those forms cancel catastrophically — `f₂`
//!   subtracts `O(1/x³)` terms to produce an `O(x²)` result — so the power
//!   series `jₗ(x)/xˡ = Σₙ (−x²/2)ⁿ / (n!·(2l+2n+1)!!)` are summed instead,
//!   to a fixed number of terms that reaches machine precision at `x = 1`.
//!
//! [`radial`] evaluates both sides for every argument and selects one, so
//! no lane ever branches, and so does [`radial_lanes`] for a block with a
//! lane below [`SERIES_THRESHOLD`]. A block with none — most blocks of an
//! ensemble that reaches beyond `kR = 1` — evaluates the closed forms
//! alone: the operations the select would keep for each of its lanes, so
//! the bits are the same either way.

use crate::real::Real;

/// Below this argument the series expansions are used instead of the
/// closed forms. At `x = 1` both sides agree to ~10⁻¹⁴ relative in
/// double precision, so the hand-over is seamless.
pub const SERIES_THRESHOLD: f64 = 1.0;

/// Series terms kept in double precision: at `x = 1` the first dropped
/// term of the slowest series (j₀) is 1/21! ≈ 2·10⁻²⁰.
const SERIES_TERMS: usize = 10;
/// Series terms kept in single precision (first dropped: 1/13! ≈ 2·10⁻¹⁰).
const SERIES_TERMS_F32: usize = 6;

/// Coefficients of `jₗ(x)/xˡ` in powers of `x²`, lowest first:
/// `c₀ = 1/(2l+1)!!`, `cₙ₊₁ = −cₙ / ((2n+2)(2n+2l+3))`.
const fn taylor_coefficients(l: usize) -> [f64; SERIES_TERMS] {
    let mut c = [0.0; SERIES_TERMS];
    let mut first = 1.0;
    let mut odd = 1;
    while odd <= 2 * l + 1 {
        first /= odd as f64;
        odd += 2;
    }
    c[0] = first;
    let mut n = 0;
    while n + 1 < SERIES_TERMS {
        c[n + 1] = -c[n] / ((2 * n + 2) * (2 * n + 2 * l + 3)) as f64;
        n += 1;
    }
    c
}

const J0: [f64; SERIES_TERMS] = taylor_coefficients(0);
const J1_OVER_X: [f64; SERIES_TERMS] = taylor_coefficients(1);
const J2_OVER_X2: [f64; SERIES_TERMS] = taylor_coefficients(2);

/// `Σ cₙ zⁿ` over the terms this precision keeps, by Horner's rule.
#[inline(always)]
fn horner_sum<R: Real>(z: R, coefficients: &[f64; SERIES_TERMS]) -> R {
    let terms = if R::BYTES == 4 {
        SERIES_TERMS_F32
    } else {
        SERIES_TERMS
    };
    let mut kept = coefficients.iter().take(terms).rev();
    match kept.next() {
        Some(&top) => kept.fold(R::from_f64(top), |sum, &c| sum.mul_add(z, R::from_f64(c))),
        None => R::ZERO,
    }
}

/// The closed forms of the radial triple from `x` and its sine and
/// cosine: the side [`radial_from`] keeps at `|x| ≥ SERIES_THRESHOLD`.
#[inline(always)]
fn closed_forms<R: Real>(x: R, (sin, cos): (R, R)) -> (R, R, R) {
    let inv = x.recip();
    let inv2 = inv * inv;
    let j0 = sin * inv;
    let far1 = (j0 - cos) * inv2;
    let far2 = (R::from_f64(3.0) * far1 - j0) * inv2;
    (far1, far2, j0 - far1)
}

/// The series side of the radial triple: the one [`radial_from`] keeps
/// at `|x| < SERIES_THRESHOLD`.
#[inline(always)]
fn series<R: Real>(x: R) -> (R, R, R) {
    let z = x * x;
    let near0 = horner_sum(z, &J0);
    let near1 = horner_sum(z, &J1_OVER_X);
    let near2 = horner_sum(z, &J2_OVER_X2);
    (near1, near2, near0 - near1)
}

/// Whether `x` takes the series side. False for NaN, which stays NaN on
/// the closed-form side.
#[inline(always)]
fn near_focus<R: Real>(x: R) -> bool {
    x.abs() < R::from_f64(SERIES_THRESHOLD)
}

/// The radial triple from `x` and its sine and cosine: both sides, then
/// a select.
#[inline(always)]
fn radial_from<R: Real>(x: R, sin_cos: (R, R)) -> (R, R, R) {
    let far = closed_forms(x, sin_cos);
    let near = series(x);
    if near_focus(x) {
        near
    } else {
        far
    }
}

#[inline(always)]
fn in_poly_range<R: Real>(x: R) -> bool {
    x.abs() <= R::SIN_COS_POLY_MAX
}

/// `(f₁(x)/x, f₂(x)/x², f₃(x))`, continuous at the focus (limits 1/3,
/// 1/15, 2/3) — the three factors the dipole field components are built
/// from (paper Eq. 14 divides f₁ by `R` and f₂ by `R²`).
///
/// Total: finite arguments beyond [`Real::SIN_COS_POLY_MAX`] (and NaN,
/// which stays NaN) take their sine and cosine from libm; ±∞ — what `kR`
/// reads when a finite position's `R²` overflows — gives the limit
/// `(0, 0, 0)` every factor decays to, where libm's sine would be NaN.
///
/// # Example
///
/// ```
/// use pic_math::special::radial;
/// let (f1_over_x, f2_over_x2, f3) = radial(0.0_f64);
/// assert!((f1_over_x - 1.0 / 3.0).abs() < 1e-15);
/// assert!((f2_over_x2 - 1.0 / 15.0).abs() < 1e-15);
/// assert!((f3 - 2.0 / 3.0).abs() < 1e-15);
/// ```
#[inline]
pub fn radial<R: Real>(x: R) -> (R, R, R) {
    if in_poly_range(x) {
        radial_from(x, x.sin_cos_poly())
    } else {
        radial_beyond_poly(x)
    }
}

/// [`radial`] outside the polynomial sin/cos range. Out of line: no
/// physical `kR` gets here, and the callers' in-range code stays as
/// small as it is without this arm.
#[cold]
#[inline(never)]
fn radial_beyond_poly<R: Real>(x: R) -> (R, R, R) {
    if x.abs() > R::MAX {
        (R::ZERO, R::ZERO, R::ZERO)
    } else {
        radial_from(x, x.sin_cos())
    }
}

/// [`radial`] of every lane, as three arrays — each lane bit for bit what
/// [`radial`] returns for it.
///
/// Two guards are taken once for the block. With every lane inside
/// [`Real::SIN_COS_POLY_MAX`] (any physical `kR`) the loop body has no
/// call and no branch, which is what lets it vectorise; one lane outside
/// sends the block through [`radial`] lane by lane. A block in range
/// with no lane below [`SERIES_THRESHOLD`] runs the closed forms alone —
/// the very operations the select keeps for those lanes — and skips the
/// three series; a block with a lane below it computes both sides.
#[inline]
pub fn radial_lanes<R: Real, const N: usize>(x: &[R; N]) -> ([R; N], [R; N], [R; N]) {
    // `&` and `|`, not `&&` and `||`: no early exit, so each guard is a
    // vector compare too.
    let all_in_range = x.iter().fold(true, |ok, &x| ok & in_poly_range(x));
    let any_near = x.iter().fold(false, |near, &x| near | near_focus(x));
    match (all_in_range, any_near) {
        (true, false) => each_lane(x, |x| closed_forms(x, x.sin_cos_poly())),
        (true, true) => each_lane(x, |x| radial_from(x, x.sin_cos_poly())),
        (false, _) => each_lane(x, radial),
    }
}

/// `lane` of every element of `x`, as three arrays: one loop per arm of
/// [`radial_lanes`], each with a body of its own.
#[inline(always)]
fn each_lane<R: Real, const N: usize>(
    x: &[R; N],
    lane: impl Fn(R) -> (R, R, R),
) -> ([R; N], [R; N], [R; N]) {
    let mut out = ([R::ZERO; N], [R::ZERO; N], [R::ZERO; N]);
    // bounds: `l < N` indexes `[R; N]` arrays only.
    for (l, &x) in x.iter().enumerate() {
        (out.0[l], out.1[l], out.2[l]) = lane(x);
    }
    out
}

/// Spherical Bessel function j₀(x) = sin(x)/x, continuous at 0.
///
/// # Example
///
/// ```
/// use pic_math::special::j0;
/// assert_eq!(j0(0.0_f64), 1.0);
/// assert!((j0(3.0_f64) - 3.0f64.sin() / 3.0).abs() < 1e-15);
/// ```
#[inline]
pub fn j0<R: Real>(x: R) -> R {
    let (f1_over_x, _, f3) = radial(x);
    f3 + f1_over_x
}

/// Dipole radial function f₁(x) = sin(x)/x² − cos(x)/x (paper Eq. 15; = j₁).
///
/// # Example
///
/// ```
/// use pic_math::special::f1;
/// // Leading behaviour near the focus: f1(x) ≈ x/3.
/// assert!((f1(1e-4_f64) - 1e-4 / 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn f1<R: Real>(x: R) -> R {
    radial(x).0 * x
}

/// Dipole radial function f₂(x) = (3/x³ − 1/x)·sin(x) − 3cos(x)/x² (= j₂).
///
/// # Example
///
/// ```
/// use pic_math::special::f2;
/// // Leading behaviour near the focus: f2(x) ≈ x²/15.
/// assert!((f2(1e-3_f64) - 1e-6 / 15.0).abs() < 1e-13);
/// ```
#[inline]
pub fn f2<R: Real>(x: R) -> R {
    radial(x).1 * (x * x)
}

/// Dipole radial function f₃(x) = (1/x − 1/x³)·sin(x) + cos(x)/x² (Eq. 15).
///
/// Equals j₀(x) − j₁(x)/x; tends to 2/3 at the focus.
///
/// # Example
///
/// ```
/// use pic_math::special::f3;
/// assert!((f3(1e-6_f64) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[inline]
pub fn f3<R: Real>(x: R) -> R {
    radial(x).2
}

/// f₁(x)/x, continuous at the focus (limit 1/3).
#[inline]
pub fn f1_over_x<R: Real>(x: R) -> R {
    radial(x).0
}

/// f₂(x)/x², continuous at the focus (limit 1/15).
#[inline]
pub fn f2_over_x2<R: Real>(x: R) -> R {
    radial(x).1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed forms evaluated in f64 well away from the cancellation zone.
    fn f1_ref(x: f64) -> f64 {
        x.sin() / (x * x) - x.cos() / x
    }
    fn f2_ref(x: f64) -> f64 {
        (3.0 / x.powi(3) - 1.0 / x) * x.sin() - 3.0 * x.cos() / (x * x)
    }
    fn f3_ref(x: f64) -> f64 {
        (1.0 / x - 1.0 / x.powi(3)) * x.sin() + x.cos() / (x * x)
    }

    /// The parent implementation's near-focus side: `first · Σ tₙ` with
    /// `t₀ = 1`, `tₙ₊₁ = −tₙ·x²/((2n+2)(2n+2l+3))`, summed in f64 until the
    /// terms stop contributing.
    fn converged_sum(x: f64, first: f64, l: usize) -> f64 {
        let (mut term, mut sum) = (1.0, 1.0);
        for n in 0..32 {
            term = -term * x * x / ((2 * n + 2) * (2 * n + 2 * l + 3)) as f64;
            if sum + term == sum {
                break;
            }
            sum += term;
        }
        first * sum
    }

    /// `(f₁/x, f₂/x², f₃)` the way the parent computed them: series below
    /// the threshold, libm closed forms above.
    fn radial_ref(x: f64) -> [f64; 3] {
        if x.abs() < SERIES_THRESHOLD {
            let g1 = converged_sum(x, 1.0 / 3.0, 1);
            [
                g1,
                converged_sum(x, 1.0 / 15.0, 2),
                converged_sum(x, 1.0, 0) - g1,
            ]
        } else {
            [f1_ref(x) / x, f2_ref(x) / (x * x), f3_ref(x)]
        }
    }

    /// Asserts `radial(x)` is within `tol` of `want`, relative to the
    /// larger of the value and its envelope (1/x², 1/x³, 1/x away from the
    /// focus — the functions cross zero there).
    fn assert_radial_close<R: Real>(x: R, want: [f64; 3], tol: f64) {
        let (g1, g2, g3) = radial(x);
        let far = x.to_f64().abs().max(1.0);
        let envelope = [far.powi(-2), far.powi(-3), far.powi(-1)];
        for (i, got) in [g1, g2, g3].into_iter().enumerate() {
            let scale = want[i].abs().max(envelope[i]);
            let err = (got.to_f64() - want[i]).abs() / scale;
            assert!(
                err <= tol,
                "component {i} at x = {x:e}: {got:e} vs {:e} ({err:e})",
                want[i]
            );
        }
    }

    #[test]
    fn radial_matches_the_closed_forms_and_the_series() {
        // 0 to 50 in steps of 1/512, plus a fine pass over the hand-over.
        for i in 0..=(50 * 512) {
            let x = i as f64 / 512.0;
            assert_radial_close(x, radial_ref(x), 1e-12);
            assert_radial_close(-x, radial_ref(x), 1e-12);
            assert_radial_close(x as f32, radial_ref(x as f32 as f64), 2e-5);
        }
        for i in -2000..=2000 {
            let x = 1.0 + i as f64 * 1e-6;
            assert_radial_close(x, radial_ref(x), 1e-12);
            assert_radial_close(x as f32, radial_ref(x as f32 as f64), 2e-5);
        }
    }

    #[test]
    fn radial_is_continuous_across_the_handover() {
        // The last argument of the series side against the first of the
        // closed-form side: one ulp apart in x, so equal to rounding.
        fn check<R: Real>(tol: f64) {
            let above = R::ONE;
            let below = R::ONE - R::EPSILON * R::HALF;
            assert!(below < above);
            let (a, b) = (radial(below), radial(above));
            for (lo, hi) in [(a.0, b.0), (a.1, b.1), (a.2, b.2)] {
                let rel = ((lo - hi) / hi).to_f64().abs();
                assert!(rel < tol, "{lo:e} vs {hi:e}");
            }
        }
        check::<f64>(1e-13);
        check::<f32>(1e-5);
    }

    #[test]
    fn radial_is_total() {
        let (g1, g2, g3) = radial(f64::NAN);
        assert!(g1.is_nan() && g2.is_nan() && g3.is_nan());
        let (g1, g2, g3) = radial(f32::NAN);
        assert!(g1.is_nan() && g2.is_nan() && g3.is_nan());
        // kR = ±∞ is a finite position whose R² overflowed: the limit of
        // every factor, not libm's sin(∞) = NaN.
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(radial(x), (0.0, 0.0, 0.0), "radial({x})");
            assert_eq!(radial(x as f32), (0.0, 0.0, 0.0), "radial({x}f32)");
        }
        // Just inside the polynomial range and just outside it (libm).
        fn edge<R: Real>(tol: f64) {
            let max = R::SIN_COS_POLY_MAX;
            for x in [
                max * (R::ONE - R::EPSILON),
                max,
                max * (R::ONE + R::EPSILON),
            ] {
                assert_radial_close(x, radial_ref(x.to_f64()), tol);
            }
            assert_radial_close(max * R::from_f64(1e3), radial_ref(max.to_f64() * 1e3), tol);
        }
        edge::<f64>(1e-12);
        edge::<f32>(2e-5);
    }

    #[test]
    fn radial_lanes_equal_radial_bit_for_bit() {
        fn check<R: Real>() {
            let bits = |(a, b, c): (R, R, R)| [a, b, c].map(|v| v.to_f64().to_bits());
            // All lanes in range (the straight-line arm), then with one lane
            // beyond it, one NaN and one infinite (the lane-by-lane arm).
            let mut x = [0.0, 1e-3, 0.5, 0.999, 1.0, 1.001, 7.25, 49.0].map(R::from_f64);
            for _ in 0..2 {
                let (g1, g2, g3) = radial_lanes(&x);
                for l in 0..x.len() {
                    assert_eq!(bits((g1[l], g2[l], g3[l])), bits(radial(x[l])), "lane {l}");
                }
                x[2] = R::SIN_COS_POLY_MAX * R::TWO;
                x[5] = R::from_f64(f64::NAN);
                x[6] = R::from_f64(f64::INFINITY);
            }
        }
        check::<f64>();
        check::<f32>();
    }

    /// Asserts every lane of `radial_lanes(x)` is bit for bit `radial`
    /// of that lane.
    fn assert_lanes_are_radial<R: Real, const N: usize>(x: [R; N], case: &str) {
        let bits = |(a, b, c): (R, R, R)| [a, b, c].map(|v| v.to_f64().to_bits());
        let (g1, g2, g3) = radial_lanes(&x);
        for l in 0..N {
            let want = bits(radial(x[l]));
            assert_eq!(
                bits((g1[l], g2[l], g3[l])),
                want,
                "{case}: lane {l}, x = {:e}",
                x[l]
            );
        }
    }

    #[test]
    fn radial_lanes_skip_the_series_and_keep_every_bit() {
        fn check<R: Real>() {
            let above_one = R::ONE + R::EPSILON;
            let below_one = R::ONE - R::EPSILON * R::HALF;
            let max = R::SIN_COS_POLY_MAX;
            // No lane below the threshold: the closed forms alone,
            // from exactly 1 and the next value above it to the edge of
            // the polynomial range, both signs.
            let far: [R; 16] = [
                R::ONE,
                above_one,
                -R::ONE,
                -above_one,
                R::from_f64(1.001),
                R::from_f64(1.5),
                R::from_f64(2.0),
                R::from_f64(3.25),
                R::from_f64(7.25),
                R::from_f64(12.5),
                R::from_f64(-20.0),
                R::from_f64(49.0),
                R::from_f64(100.0),
                max * R::HALF,
                -max,
                max,
            ];
            assert_lanes_are_radial(far, "all far");
            // Every lane below the threshold, ±0 among them.
            let near: [R; 16] = [
                R::ZERO,
                -R::ZERO,
                R::from_f64(1e-30),
                R::from_f64(1e-6),
                R::from_f64(1e-3),
                R::from_f64(0.1),
                R::from_f64(0.25),
                R::from_f64(-0.3),
                R::from_f64(0.5),
                R::from_f64(0.7),
                R::from_f64(-0.8),
                R::from_f64(0.9),
                R::from_f64(0.99),
                R::from_f64(0.999),
                below_one,
                -below_one,
            ];
            assert_lanes_are_radial(near, "all near");
            // One near lane in each position of an otherwise far block,
            // which then takes both sides and the select.
            for p in 0..16 {
                for lane in [R::from_f64(0.5), below_one, R::ZERO, -R::ZERO] {
                    let mut x = far;
                    x[p] = lane;
                    assert_lanes_are_radial(x, &format!("near lane {p} = {lane:e}"));
                }
            }
            // NaN and a lane beyond the polynomial range each send the
            // block lane by lane; the rest stay far.
            let odd = [
                R::from_f64(f64::NAN),
                max * R::TWO,
                max * (R::ONE + R::EPSILON),
                R::from_f64(f64::INFINITY),
                R::from_f64(f64::NEG_INFINITY),
            ];
            for p in [0, 7, 15] {
                for lane in odd {
                    let mut x = far;
                    x[p] = lane;
                    assert_lanes_are_radial(x, &format!("odd lane {p} = {lane:e}"));
                    x[(p + 1) % 16] = R::from_f64(0.5);
                    assert_lanes_are_radial(x, &format!("odd lane {p} = {lane:e}, one near"));
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn handover_sides_match_the_closed_forms() {
        // Both branches must agree near the threshold from either side.
        for &x in &[0.5, 0.8, 0.99, 1.01, 1.5, 3.0] {
            assert!((f1(x) - f1_ref(x)).abs() < 1e-13, "f1({x})");
            assert!((f2(x) - f2_ref(x)).abs() < 1e-13, "f2({x})");
            assert!((f3(x) - f3_ref(x)).abs() < 1e-13, "f3({x})");
        }
    }

    #[test]
    fn limits_at_focus() {
        assert_eq!(f1(0.0_f64), 0.0);
        assert_eq!(f2(0.0_f64), 0.0);
        assert!((f3(0.0_f64) - 2.0 / 3.0).abs() < 1e-15);
        assert!((f1_over_x(0.0_f64) - 1.0 / 3.0).abs() < 1e-15);
        assert!((f2_over_x2(0.0_f64) - 1.0 / 15.0).abs() < 1e-15);
        assert_eq!(j0(0.0_f64), 1.0);
    }

    #[test]
    fn no_cancellation_blowup_in_f32() {
        // The closed form of f2 in f32 loses everything below x ~ 3e-2;
        // the series branch must stay accurate.
        for &x in &[1e-6_f32, 1e-4, 1e-2, 0.1, 0.5, 0.9] {
            let exact = f2(x as f64) as f32;
            let got = f2(x);
            let denom = exact.abs().max(1e-30);
            assert!(
                (got - exact).abs() / denom < 1e-5,
                "f2({x}) = {got}, want {exact}"
            );
        }
    }

    #[test]
    fn f3_is_j0_minus_j1_over_x() {
        for &x in &[0.3_f64, 0.7, 2.0, 5.0] {
            let expect = j0(x) - f1(x) / x;
            assert!((f3(x) - expect).abs() < 1e-14, "x = {x}");
        }
    }

    #[test]
    fn odd_even_symmetry() {
        // f1 is odd; f2, f3 and j0 are even.
        for &x in &[0.2_f64, 0.9, 2.5] {
            assert!((f1(-x) + f1(x)).abs() < 1e-15);
            assert!((f2(-x) - f2(x)).abs() < 1e-15);
            assert!((f3(-x) - f3(x)).abs() < 1e-15);
            assert!((j0(-x) - j0(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn asymptotics_far_from_focus() {
        // For large x the functions decay like 1/x.
        for &x in &[50.0_f64, 500.0] {
            assert!(f1(x).abs() < 2.0 / x);
            assert!(f2(x).abs() < 2.0 / x);
            assert!(f3(x).abs() < 2.0 / x);
        }
    }
}
