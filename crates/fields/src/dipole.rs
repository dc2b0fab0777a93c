//! The standing magnetic-dipole (m-dipole) wave — the paper's benchmark
//! field (Eq. 14–15, §5.2).
//!
//! # Relation to the published formulas
//!
//! The wave is the exact source-free standing solution with magnetic-dipole
//! symmetry (Gonoskov et al., "Dipole pulse theory", PRA 86, 053836):
//!
//! ```text
//! E  =  2A₀ · cos(ω₀t) · f₁(kR)/R · (−y, x, 0)
//! Bx = −2A₀ · sin(ω₀t) · f₂(kR) · xz/R²
//! By = −2A₀ · sin(ω₀t) · f₂(kR) · yz/R²
//! Bz = −2A₀ · sin(ω₀t) · (f₂(kR)·z²/R² + f₃(kR))
//! ```
//!
//! with `A₀ = k·√(3P/c)` and the radial functions of
//! [`pic_math::special`]. Two formulas printed in the paper differ from
//! this: the PDF shows `By ∝ xy/R²` and an extra `z²/R²` factor in `Bz`.
//! Both are extraction/typesetting artifacts: with them **B** is neither
//! divergence-free nor axisymmetric and does not satisfy Faraday's law for
//! the printed **E**. The forms above are the unique completion that is an
//! exact vacuum Maxwell solution (the unit tests verify ∇·B = 0,
//! ∇×E = −(1/c)∂B/∂t and ∇×B = (1/c)∂E/∂t numerically).
//!
//! The three radial factors the components need — `f₁(kR)/kR`,
//! `f₂(kR)/(kR)²`, `f₃(kR)`, all finite at `R = 0` where the closed forms
//! are 0/0 — come from one evaluator, [`pic_math::special::radial`]:
//! straight-line code (polynomial sin/cos, series near the focus, a
//! select), so the per-point sampler and the blocked one are the same
//! operations per lane and the blocked one is vertical SIMD.

use crate::sampler::{BatchSampler, EbSlices, FieldSampler, EB};
use pic_math::constants::LIGHT_VELOCITY;
use pic_math::special::{radial, radial_lanes};
use pic_math::{Real, Vec3};

/// The standing m-dipole wave of paper Eq. (14), dipole axis along z.
///
/// # Example
///
/// ```
/// use pic_fields::{DipoleStandingWave, FieldSampler};
/// use pic_math::constants::{BENCH_OMEGA, BENCH_POWER};
/// use pic_math::Vec3;
///
/// let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
/// // At the focus the electric field vanishes and B is purely axial.
/// let f = wave.sample(Vec3::zero(), 1.0e-15);
/// assert_eq!(f.e, Vec3::zero());
/// assert_eq!(f.b.x, 0.0);
/// assert!(f.b.z.abs() > 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DipoleStandingWave<R> {
    /// Field amplitude A₀ = k√(3P/c), statvolt/cm.
    amplitude: R,
    /// Angular frequency ω₀, s⁻¹.
    omega: R,
    /// Wave number k = ω₀/c, cm⁻¹.
    k: R,
}

impl<R: Real> DipoleStandingWave<R> {
    /// Creates the wave from total power `power` (erg/s) and angular
    /// frequency `omega` (s⁻¹), per the paper: `A₀ = k√(3P/c)`.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or `omega` is not positive.
    pub fn new(power: f64, omega: f64) -> DipoleStandingWave<R> {
        assert!(power >= 0.0, "DipoleStandingWave: negative power");
        assert!(omega > 0.0, "DipoleStandingWave: non-positive omega");
        let k = omega / LIGHT_VELOCITY;
        let a0 = k * (3.0 * power / LIGHT_VELOCITY).sqrt();
        DipoleStandingWave {
            amplitude: R::from_f64(a0),
            omega: R::from_f64(omega),
            k: R::from_f64(k),
        }
    }

    /// Field amplitude A₀, statvolt/cm.
    pub fn amplitude(&self) -> R {
        self.amplitude
    }

    /// Angular frequency ω₀, s⁻¹.
    pub fn omega(&self) -> R {
        self.omega
    }

    /// Wave number k = ω₀/c, cm⁻¹.
    pub fn wave_number(&self) -> R {
        self.k
    }

    /// Wavelength λ = 2π/k, cm.
    pub fn wavelength(&self) -> R {
        R::TWO * R::PI / self.k
    }

    /// Magnitude of **B** at the focus at peak phase: (4/3)·A₀.
    pub fn focal_field(&self) -> R {
        R::from_f64(4.0 / 3.0) * self.amplitude
    }
}

/// Lanes `sample_into` evaluates together: one 256-bit register of `f32`,
/// two of `f64` — the Boris kernel's block, of which it hands over a
/// whole number per call.
const LANES: usize = 8;

impl<R: Real> DipoleStandingWave<R> {
    /// The factors that depend on time only: `(2A₀·cos ω₀t, 2A₀·sin ω₀t)`.
    /// The one libm call of a sample — once per call on the batch path.
    #[inline(always)]
    fn phase(&self, time: R) -> (R, R) {
        let two_a0 = R::TWO * self.amplitude;
        let (sin_t, cos_t) = (self.omega * time).sin_cos();
        (two_a0 * cos_t, two_a0 * sin_t)
    }

    /// `kR` at a point.
    #[inline(always)]
    fn k_r(&self, x: R, y: R, z: R) -> R {
        self.k * Vec3::new(x, y, z).norm2().sqrt()
    }

    /// (**E**, **B**) at one point, given the time factors.
    #[inline(always)]
    fn at(&self, phase: (R, R), x: R, y: R, z: R) -> EB<R> {
        self.assemble(phase, x, y, z, radial(self.k_r(x, y, z)))
    }

    /// Assembles (**E**, **B**) at a point from the time factors and the
    /// radial triple `(f₁(u)/u, f₂(u)/u², f₃(u))`, `u = kR` — the one body
    /// behind both samplers.
    #[inline(always)]
    fn assemble(&self, (e_t, b_t): (R, R), x: R, y: R, z: R, radial: (R, R, R)) -> EB<R> {
        let (f1_over_u, f2_over_u2, f3) = radial;
        // E = 2A₀·cos(ωt)·(f1(kR)/R)·(−y, x, 0), and f1(kR)/R = k·f1(u)/u.
        let e_coef = e_t * self.k * f1_over_u;
        // B = −2A₀·sin(ωt)·(f2(kR)/R²)·(xz, yz, z²) with the f3 term added
        // to Bz, and f2(kR)/R² = k²·f2(u)/u².
        let b_coef = -b_t * self.k * self.k * f2_over_u2;
        EB {
            e: Vec3::new(-y * e_coef, x * e_coef, R::ZERO),
            b: Vec3::new(b_coef * x * z, b_coef * y * z, b_coef * z * z - b_t * f3),
        }
    }
}

impl<R: Real> FieldSampler<R> for DipoleStandingWave<R> {
    #[inline]
    fn sample(&self, pos: Vec3<R>, time: R) -> EB<R> {
        self.at(self.phase(time), pos.x, pos.y, pos.z)
    }
}

impl<R: Real> BatchSampler<R> for DipoleStandingWave<R> {
    /// [`FieldSampler::sample`] a block of [`LANES`] at a time: the same
    /// `k_r` → radial triple → `assemble` per lane, so every element is
    /// bitwise what `sample` returns, with the time factors hoisted and
    /// the triple taken through [`radial_lanes`], whose per-lane body has
    /// no call and no branch — each of the three loops below compiles to
    /// vertical SIMD. The `len % LANES` tail goes lane by lane.
    ///
    /// `#[inline]` so every codegen unit that calls this gets its own
    /// copy and the blocked kernel's call can inline whichever unit the
    /// partitioner puts the kernel in. The libm `sin_cos` is once per
    /// call, so what a caller pays for it per point is set by how many
    /// points it hands over at a time.
    #[inline]
    fn sample_into(&self, xs: &[R], ys: &[R], zs: &[R], time: R, out: &mut EbSlices<'_, R>) {
        let phase = self.phase(time);
        let n = xs.len();
        let full = n - n % LANES;
        // bounds: the runtime slices xs/ys/zs and every EbSlices lane to the
        // same length `n`; blocks start at multiples of LANES below `full`,
        // so `start + LANES <= n`, and `[l]` has `l < LANES` into
        // LANES-long slices and arrays.
        for start in (0..full).step_by(LANES) {
            let block = start..start + LANES;
            let (x, y, z) = (&xs[block.clone()], &ys[block.clone()], &zs[block.clone()]);
            let mut u = [R::ZERO; LANES];
            for l in 0..LANES {
                u[l] = self.k_r(x[l], y[l], z[l]);
            }
            let (f1_over_u, f2_over_u2, f3) = radial_lanes(&u);
            // Into block-local arrays first: unlike the six output slices,
            // they provably alias nothing, so this loop vectorises too.
            let mut e = [[R::ZERO; LANES]; 3];
            let mut b = [[R::ZERO; LANES]; 3];
            for l in 0..LANES {
                let radial = (f1_over_u[l], f2_over_u2[l], f3[l]);
                let f = self.assemble(phase, x[l], y[l], z[l], radial);
                (e[0][l], e[1][l], e[2][l]) = (f.e.x, f.e.y, f.e.z);
                (b[0][l], b[1][l], b[2][l]) = (f.b.x, f.b.y, f.b.z);
            }
            out.ex[block.clone()].copy_from_slice(&e[0]);
            out.ey[block.clone()].copy_from_slice(&e[1]);
            out.ez[block.clone()].copy_from_slice(&e[2]);
            out.bx[block.clone()].copy_from_slice(&b[0]);
            out.by[block.clone()].copy_from_slice(&b[1]);
            out.bz[block].copy_from_slice(&b[2]);
        }
        for i in full..n {
            let f = self.at(phase, xs[i], ys[i], zs[i]);
            (out.ex[i], out.ey[i], out.ez[i]) = (f.e.x, f.e.y, f.e.z);
            (out.bx[i], out.by[i], out.bz[i]) = (f.b.x, f.b.y, f.b.z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
    use proptest::prelude::*;

    fn wave() -> DipoleStandingWave<f64> {
        DipoleStandingWave::new(BENCH_POWER, BENCH_OMEGA)
    }

    /// Central-difference spatial derivative of a field component.
    fn partial(
        w: &DipoleStandingWave<f64>,
        pos: Vec3<f64>,
        t: f64,
        axis: usize,
        comp: impl Fn(&EB<f64>) -> f64,
        h: f64,
    ) -> f64 {
        let mut hi = pos;
        let mut lo = pos;
        hi[axis] += h;
        lo[axis] -= h;
        (comp(&w.sample(hi, t)) - comp(&w.sample(lo, t))) / (2.0 * h)
    }

    fn curl(
        w: &DipoleStandingWave<f64>,
        pos: Vec3<f64>,
        t: f64,
        field: impl Fn(&EB<f64>) -> Vec3<f64> + Copy,
        h: f64,
    ) -> Vec3<f64> {
        let d = |axis: usize, comp: usize| partial(w, pos, t, axis, |f| field(f)[comp], h);
        Vec3::new(d(1, 2) - d(2, 1), d(2, 0) - d(0, 2), d(0, 1) - d(1, 0))
    }

    fn test_points() -> Vec<Vec3<f64>> {
        let l = BENCH_WAVELENGTH;
        vec![
            Vec3::new(0.21 * l, -0.13 * l, 0.33 * l),
            Vec3::new(-0.42 * l, 0.17 * l, -0.08 * l),
            Vec3::new(0.05 * l, 0.04 * l, 0.02 * l),
            Vec3::new(0.9 * l, 0.6 * l, -0.7 * l),
        ]
    }

    #[test]
    fn divergence_of_b_vanishes() {
        let w = wave();
        let t = 0.37 / BENCH_OMEGA + std::f64::consts::FRAC_PI_2 / BENCH_OMEGA;
        let h = BENCH_WAVELENGTH * 1e-4;
        for pos in test_points() {
            let div = partial(&w, pos, t, 0, |f| f.b.x, h)
                + partial(&w, pos, t, 1, |f| f.b.y, h)
                + partial(&w, pos, t, 2, |f| f.b.z, h);
            let scale = w.sample(pos, t).b.norm() / BENCH_WAVELENGTH + 1.0;
            assert!(div.abs() / scale < 1e-4, "∇·B = {div} at {pos}");
        }
    }

    #[test]
    fn divergence_of_e_vanishes() {
        let w = wave();
        let t = 0.11 / BENCH_OMEGA;
        let h = BENCH_WAVELENGTH * 1e-4;
        for pos in test_points() {
            let div = partial(&w, pos, t, 0, |f| f.e.x, h)
                + partial(&w, pos, t, 1, |f| f.e.y, h)
                + partial(&w, pos, t, 2, |f| f.e.z, h);
            let scale = w.sample(pos, t).e.norm() / BENCH_WAVELENGTH + 1.0;
            assert!(div.abs() / scale < 1e-4, "∇·E = {div} at {pos}");
        }
    }

    #[test]
    fn faraday_law_holds() {
        // ∇×E = −(1/c)∂B/∂t, with B ∝ sin(ωt): ∂B/∂t = ω·B(t)/tan(ωt)…
        // easier: evaluate ∂B/∂t by central difference in time.
        let w = wave();
        let t = 0.23 / BENCH_OMEGA;
        let h = BENCH_WAVELENGTH * 1e-4;
        let dt = 1e-4 / BENCH_OMEGA;
        for pos in test_points() {
            let curl_e = curl(&w, pos, t, |f| f.e, h);
            let db_dt = (w.sample(pos, t + dt).b - w.sample(pos, t - dt).b) / (2.0 * dt);
            let rhs = -db_dt / LIGHT_VELOCITY;
            let scale = curl_e.norm().max(rhs.norm()).max(1e-30);
            assert!(
                (curl_e - rhs).norm() / scale < 1e-4,
                "Faraday violated at {pos}: {curl_e} vs {rhs}"
            );
        }
    }

    #[test]
    fn ampere_law_holds_in_vacuum() {
        // ∇×B = (1/c)∂E/∂t away from sources (the standing wave is
        // source-free everywhere).
        let w = wave();
        let t = 0.41 / BENCH_OMEGA;
        let h = BENCH_WAVELENGTH * 1e-4;
        let dt = 1e-4 / BENCH_OMEGA;
        for pos in test_points() {
            let curl_b = curl(&w, pos, t, |f| f.b, h);
            let de_dt = (w.sample(pos, t + dt).e - w.sample(pos, t - dt).e) / (2.0 * dt);
            let rhs = de_dt / LIGHT_VELOCITY;
            let scale = curl_b.norm().max(rhs.norm()).max(1e-30);
            assert!(
                (curl_b - rhs).norm() / scale < 1e-4,
                "Ampère violated at {pos}: {curl_b} vs {rhs}"
            );
        }
    }

    #[test]
    fn focus_field_is_axial_b() {
        let w = wave();
        let quarter_period = 0.5 * std::f64::consts::PI / BENCH_OMEGA;
        let f = w.sample(Vec3::zero(), quarter_period);
        assert_eq!(f.e, Vec3::zero());
        assert_eq!(f.b.x, 0.0);
        assert_eq!(f.b.y, 0.0);
        // |Bz| = (4/3)A₀·sin(ωt) = (4/3)A₀ at the quarter period.
        assert!((f.b.z.abs() - w.focal_field()).abs() / w.focal_field() < 1e-9);
    }

    #[test]
    fn field_is_axisymmetric() {
        // Rotating the observation point about z rotates E and the
        // transverse B accordingly; |E|, |B| are invariant.
        let w = wave();
        let t = 0.19 / BENCH_OMEGA;
        let p = Vec3::new(0.3 * BENCH_WAVELENGTH, 0.0, 0.2 * BENCH_WAVELENGTH);
        let a = w.sample(p, t);
        let (s, c) = (1.1f64).sin_cos();
        let q = Vec3::new(c * p.x, s * p.x, p.z);
        let b = w.sample(q, t);
        assert!((a.e.norm() - b.e.norm()).abs() / (a.e.norm() + 1e-30) < 1e-12);
        assert!((a.b.norm() - b.b.norm()).abs() / (a.b.norm() + 1e-30) < 1e-12);
        assert!((a.b.z - b.b.z).abs() / (a.b.z.abs() + 1e-30) < 1e-12);
    }

    #[test]
    fn amplitude_matches_paper_formula() {
        let w = wave();
        let k = BENCH_OMEGA / LIGHT_VELOCITY;
        let expect = k * (3.0 * BENCH_POWER / LIGHT_VELOCITY).sqrt();
        assert!((w.amplitude() - expect).abs() / expect < 1e-14);
        // Sanity: for 0.1 PW the focal field is in the relativistic regime
        // (a₀ ≫ 1 for a 0.9 µm wave) but below the Schwinger field.
        assert!(w.focal_field() > 1e9);
        assert!(w.focal_field() < 4.4e13);
    }

    #[test]
    fn continuity_across_series_handover() {
        // kR = 1 is the series/closed-form boundary; the field must be
        // continuous through it.
        let w = wave();
        let t = 0.3 / BENCH_OMEGA;
        let k = w.wave_number();
        let dir = Vec3::new(0.6, 0.5, 0.624695).normalized();
        let a = w.sample(dir * (0.999999 / k), t);
        let b = w.sample(dir * (1.000001 / k), t);
        assert!((a.e - b.e).norm() / (a.e.norm() + 1e-30) < 1e-4);
        assert!((a.b - b.b).norm() / (a.b.norm() + 1e-30) < 1e-4);
    }

    #[test]
    fn single_precision_is_close_to_double() {
        let wd = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let wf = DipoleStandingWave::<f32>::new(BENCH_POWER, BENCH_OMEGA);
        let t = 0.27 / BENCH_OMEGA;
        for pos in test_points() {
            let d = wd.sample(pos, t);
            let f = wf.sample(
                Vec3::new(pos.x as f32, pos.y as f32, pos.z as f32),
                t as f32,
            );
            let scale = d.e.norm().max(d.b.norm());
            assert!((d.e.x - f.e.x as f64).abs() / scale < 1e-4);
            assert!((d.b.z - f.b.z as f64).abs() / scale < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "negative power")]
    fn negative_power_panics() {
        let _ = DipoleStandingWave::<f64>::new(-1.0, BENCH_OMEGA);
    }

    type Point = (f64, f64, f64);

    /// The x, y and z columns of `points`, each coordinate times `scale`.
    fn columns<R: Real>(points: &[Point], scale: f64) -> [Vec<R>; 3] {
        let axes: [fn(&Point) -> f64; 3] = [|p| p.0, |p| p.1, |p| p.2];
        axes.map(|axis| {
            let column = points.iter().map(|p| R::from_f64(axis(p) * scale));
            column.collect()
        })
    }

    /// `sample_into` over the points, as its six output lanes.
    fn batch<R: Real>(w: &DipoleStandingWave<R>, [xs, ys, zs]: [&[R]; 3], t: R) -> [Vec<R>; 6] {
        let mut lanes: [Vec<R>; 6] = std::array::from_fn(|_| vec![R::ZERO; xs.len()]);
        let [ex, ey, ez, bx, by, bz] = &mut lanes;
        let mut out = EbSlices {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        };
        w.sample_into(xs, ys, zs, t, &mut out);
        lanes
    }

    /// `sample_into` over `points` (positions in units of 1/k, so their
    /// norm is kR) against `sample` point by point, compared as bits.
    fn assert_batch_matches_scalar<R: Real>(points: &[(f64, f64, f64)], time_scale: f64) {
        let w = DipoleStandingWave::<R>::new(BENCH_POWER, BENCH_OMEGA);
        let t = R::from_f64(time_scale / BENCH_OMEGA);
        let n = points.len();
        let [xs, ys, zs] = columns::<R>(points, 1.0 / w.wave_number().to_f64());
        let lanes = batch(&w, [&xs, &ys, &zs], t);
        let bits = |v: R| v.to_f64().to_bits();
        for i in 0..n {
            let f = w.sample(Vec3::new(xs[i], ys[i], zs[i]), t);
            let want = [f.e.x, f.e.y, f.e.z, f.b.x, f.b.y, f.b.z].map(bits);
            let got = lanes.each_ref().map(|lane| bits(lane[i]));
            assert_eq!(got, want, "lane {i} of {n} at kR = {:?}", points[i]);
        }
    }

    /// Both samplers over finite `points` (cm) at the finite time `t`:
    /// every component of every field must be finite.
    fn assert_fields_finite<R: Real>(points: &[Point], t: f64) {
        let w = DipoleStandingWave::<R>::new(BENCH_POWER, BENCH_OMEGA);
        let t = R::from_f64(t);
        let [xs, ys, zs] = columns::<R>(points, 1.0);
        let inputs = xs.iter().chain(&ys).chain(&zs).chain([&t]);
        assert!(inputs.into_iter().all(|v| v.is_finite()), "{points:?} {t}");
        let lanes = batch(&w, [&xs, &ys, &zs], t);
        for i in 0..points.len() {
            let f = w.sample(Vec3::new(xs[i], ys[i], zs[i]), t);
            let scalar = [f.e.x, f.e.y, f.e.z, f.b.x, f.b.y, f.b.z];
            let batched = lanes.each_ref().map(|lane| lane[i]);
            assert!(
                scalar.iter().chain(&batched).all(|v| v.is_finite()),
                "{} at {:?}, t = {t}: sample {scalar:?}, sample_into {batched:?}",
                R::NAME,
                (xs[i], ys[i], zs[i]),
            );
        }
    }

    /// `points` and `t` scaled into `R`'s range: a coordinate or time of
    /// magnitude `m` ≥ 1 becomes `MAX^(m − 1)` for `m` in `1..2` — log-uniform
    /// up to the largest finite value, where `R²` overflows — and smaller
    /// magnitudes are kept as they are. Times stop where `ω₀t` would
    /// overflow: the phase has no limit to fall back on there.
    fn stretched<R: Real>(points: &[Point], t: f64) -> (Vec<Point>, f64) {
        let stretch = |v: f64, max: f64| {
            if v.abs() < 1.0 {
                v
            } else {
                max.powf(v.abs() - 1.0).copysign(v)
            }
        };
        let max = R::MAX.to_f64();
        let points = points
            .iter()
            .map(|p| (stretch(p.0, max), stretch(p.1, max), stretch(p.2, max)))
            .collect();
        (points, stretch(t, 0.5 * max / BENCH_OMEGA))
    }

    /// Scales a direction to the norm `k_r`.
    fn at_radius(dir: (f64, f64, f64), k_r: f64) -> (f64, f64, f64) {
        let norm = (dir.0 * dir.0 + dir.1 * dir.1 + dir.2 * dir.2)
            .sqrt()
            .max(1e-300);
        (dir.0 / norm * k_r, dir.1 / norm * k_r, dir.2 / norm * k_r)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `sample_into` == `sample` bit for bit: kR on the series side, at
        /// the hand-over, on the closed-form side and — one lane — beyond
        /// the polynomial sin/cos range, in blocks of `LANES` (one full
        /// block), `LANES + 3` (block and tail) and 1 (tail only).
        #[test]
        fn batched_dipole_sampling_is_bitwise_identical(
            dirs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), LANES + 3),
            near in prop::collection::vec(0.0f64..1.0, LANES + 3),
            edge in prop::collection::vec(-1e-6f64..1e-6, LANES + 3),
            far in prop::collection::vec(1.0f64..50.0, LANES + 3),
            beyond_lane in 0usize..LANES + 3,
            time_scale in 0.0f64..7.0,
        ) {
            let mut points = Vec::new();
            for (i, &dir) in dirs.iter().enumerate() {
                let k_r = match i % 3 {
                    0 => near[i],
                    1 => 1.0 + edge[i],
                    _ => far[i],
                };
                points.push(at_radius(dir, k_r));
            }
            for with_beyond in [false, true] {
                if with_beyond {
                    // Past both precisions' range: the whole block must take
                    // the lane-by-lane arm and still agree.
                    points[beyond_lane] = at_radius(dirs[beyond_lane], 3.0e6);
                }
                for len in [LANES, LANES + 3, 1] {
                    let block = &points[..len];
                    assert_batch_matches_scalar::<f64>(block, time_scale);
                    assert_batch_matches_scalar::<f32>(block, time_scale);
                }
            }
        }

        /// No finite position and time yields a non-finite field component,
        /// from either sampler in either precision: at the focus, on the
        /// series side, at the hand-over, on the closed-form side, beyond
        /// the polynomial sin/cos range, and out to coordinates whose
        /// square overflows.
        #[test]
        fn finite_inputs_sample_to_finite_fields(
            dirs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), LANES + 3),
            regimes in prop::collection::vec(0usize..5, LANES + 3),
            fracs in prop::collection::vec(0.0f64..1.0, LANES + 3),
            far in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), LANES + 3),
            t in -2.0f64..2.0,
        ) {
            let inv_k = LIGHT_VELOCITY / BENCH_OMEGA;
            let points: Vec<Point> = (0..LANES + 3)
                .map(|i| {
                    let k_r = match regimes[i] {
                        0 => return far[i],
                        1 => 0.0,
                        2 => fracs[i],
                        3 => 1.0 + 2e-6 * (fracs[i] - 0.5),
                        _ => 1.0 + 50.0 * fracs[i],
                    };
                    at_radius(dirs[i], k_r * inv_k)
                })
                .collect();
            for len in [LANES + 3, LANES, 1] {
                let (points32, t32) = stretched::<f32>(&points[..len], t);
                assert_fields_finite::<f32>(&points32, t32);
                let (points64, t64) = stretched::<f64>(&points[..len], t);
                assert_fields_finite::<f64>(&points64, t64);
            }
        }
    }

    /// Found by `finite_inputs_sample_to_finite_fields`: finite in `f32`,
    /// but `y²` is not, so `kR` reads ∞.
    #[test]
    fn a_position_whose_square_overflows_samples_to_zero_not_nan() {
        let far = (-3.942905e25, -6.863032e36, 0.94658756);
        assert_fields_finite::<f32>(&[far], -0.81744564);
        let w = DipoleStandingWave::<f32>::new(BENCH_POWER, BENCH_OMEGA);
        let f = w.sample(Vec3::new(far.0 as f32, far.1 as f32, far.2 as f32), 1.0e-15);
        assert_eq!((f.e, f.b), (Vec3::zero(), Vec3::zero()));
    }

    #[test]
    fn batched_dipole_sampling_handles_the_focus_and_time_zero() {
        let points = [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1), (2.0, 1.0, -4.0)];
        assert_batch_matches_scalar::<f64>(&points, 0.0);
        assert_batch_matches_scalar::<f32>(&points, 0.37);
    }
}
