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
//! Near the focus the implementation evaluates `f₁(kR)/R` and `f₂(kR)/R²`
//! through their series forms (`f1_over_x`, `f2_over_x2`), so the field is
//! finite and smooth at `R = 0` where the closed forms are 0/0.

use crate::sampler::{BatchSampler, EbSlices, FieldSampler, EB};
use pic_math::constants::LIGHT_VELOCITY;
use pic_math::special::{f1_over_x, f2_over_x2, f3};
use pic_math::tabulated::RadialTable;
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

impl<R: Real> DipoleStandingWave<R> {
    /// Builds a tabulated variant of this wave: the radial functions are
    /// precomputed on `nodes` points out to radius `r_max` (cm) and
    /// linearly interpolated — trading the sin/cos evaluations of the
    /// Analytical scenario for two loads and an FMA per function (the
    /// classic optimization between the paper's two scenarios).
    pub fn tabulated(&self, r_max: f64, nodes: usize) -> TabulatedDipoleWave<R> {
        let x_max = self.k.to_f64() * r_max;
        TabulatedDipoleWave {
            wave: *self,
            table: RadialTable::new(x_max, nodes),
        }
    }
}

/// [`DipoleStandingWave`] with table-interpolated radial functions.
///
/// Sampling beyond the tabulated radius clamps to the table edge; size
/// `r_max` generously (the benchmark uses a few wavelengths).
#[derive(Clone, Debug, PartialEq)]
pub struct TabulatedDipoleWave<R> {
    wave: DipoleStandingWave<R>,
    table: RadialTable<R>,
}

impl<R: Real> TabulatedDipoleWave<R> {
    /// The underlying analytical wave.
    pub fn wave(&self) -> &DipoleStandingWave<R> {
        &self.wave
    }

    /// Worst tabulation error of the radial functions (absolute, probed
    /// at interval midpoints).
    pub fn table_error(&self, probes: usize) -> f64 {
        self.table.max_error(probes)
    }
}

impl<R: Real> FieldSampler<R> for TabulatedDipoleWave<R> {
    #[inline]
    fn sample(&self, pos: Vec3<R>, time: R) -> EB<R> {
        let w = &self.wave;
        let two_a0 = R::TWO * w.amplitude;
        let (sin_t, cos_t) = (w.omega * time).sin_cos();
        let u = w.k * pos.norm2().sqrt();
        let e_coef = two_a0 * cos_t * w.k * self.table.f1_over_x(u);
        let e = Vec3::new(-pos.y * e_coef, pos.x * e_coef, R::ZERO);
        let b_coef = -two_a0 * sin_t * w.k * w.k * self.table.f2_over_x2(u);
        let b = Vec3::new(
            b_coef * pos.x * pos.z,
            b_coef * pos.y * pos.z,
            b_coef * pos.z * pos.z - two_a0 * sin_t * self.table.f3(u),
        );
        EB { e, b }
    }
}

impl<R: Real> FieldSampler<R> for DipoleStandingWave<R> {
    #[inline]
    fn sample(&self, pos: Vec3<R>, time: R) -> EB<R> {
        let two_a0 = R::TWO * self.amplitude;
        let (sin_t, cos_t) = (self.omega * time).sin_cos();
        let r2 = pos.norm2();
        let u = self.k * r2.sqrt(); // kR

        // E = 2A₀·cos(ωt)·k·(f1(u)/u)·(−y, x, 0); f1(u)/u = f1(kR)/(kR),
        // so f1(kR)/R = k·f1_over_x(u) — finite at the focus.
        let e_coef = two_a0 * cos_t * self.k * f1_over_x(u);
        let e = Vec3::new(-pos.y * e_coef, pos.x * e_coef, R::ZERO);

        // B transverse: −2A₀·sin(ωt)·k²·(f2(u)/u²)·(xz, yz, z²) with the
        // f3 term added to Bz. f2(kR)/R² = k²·f2_over_x2(u).
        let b_coef = -two_a0 * sin_t * self.k * self.k * f2_over_x2(u);
        let b = Vec3::new(
            b_coef * pos.x * pos.z,
            b_coef * pos.y * pos.z,
            b_coef * pos.z * pos.z - two_a0 * sin_t * f3(u),
        );
        EB { e, b }
    }
}

impl<R: Real> BatchSampler<R> for DipoleStandingWave<R> {
    /// Straight-line per-lane evaluation. The time-dependent factors
    /// (`2A₀`, `sin ωt`, `cos ωt`) are loop-invariant pure computations,
    /// so hoisting them keeps every per-element arithmetic sequence
    /// bitwise-identical to [`FieldSampler::sample`].
    ///
    /// `#[inline]` so every codegen unit that calls this gets its own
    /// copy: the blocked kernel's `LANES`-long call then inlines (constant
    /// trip count, `sin_cos` hoisted out of the block loop) whichever unit
    /// the partitioner puts the kernel in.
    #[inline]
    fn sample_into(&self, xs: &[R], ys: &[R], zs: &[R], time: R, out: &mut EbSlices<'_, R>) {
        let two_a0 = R::TWO * self.amplitude;
        let (sin_t, cos_t) = (self.omega * time).sin_cos();
        // bounds: the runtime slices xs/ys/zs and every EbSlices lane to the
        // same chunk length, so `i < xs.len()` indexes all of them in range.
        for i in 0..xs.len() {
            let (x, y, z) = (xs[i], ys[i], zs[i]);
            let r2 = Vec3::new(x, y, z).norm2();
            let u = self.k * r2.sqrt();
            let e_coef = two_a0 * cos_t * self.k * f1_over_x(u);
            out.ex[i] = -y * e_coef;
            out.ey[i] = x * e_coef;
            out.ez[i] = R::ZERO;
            let b_coef = -two_a0 * sin_t * self.k * self.k * f2_over_x2(u);
            out.bx[i] = b_coef * x * z;
            out.by[i] = b_coef * y * z;
            out.bz[i] = b_coef * z * z - two_a0 * sin_t * f3(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};

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
    fn tabulated_wave_matches_analytical() {
        let w = wave();
        let tab = w.tabulated(4.0 * BENCH_WAVELENGTH, 16384);
        assert!(tab.table_error(5000) < 1e-7);
        let t = 0.37 / BENCH_OMEGA;
        for pos in test_points() {
            let exact = w.sample(pos, t);
            let approx = tab.sample(pos, t);
            let scale = exact.e.norm().max(exact.b.norm()).max(1e-30);
            assert!(
                (exact.e - approx.e).norm() / scale < 1e-6,
                "E mismatch at {pos}"
            );
            assert!(
                (exact.b - approx.b).norm() / scale < 1e-6,
                "B mismatch at {pos}"
            );
        }
        assert_eq!(tab.wave(), &w);
    }

    #[test]
    #[should_panic(expected = "negative power")]
    fn negative_power_panics() {
        let _ = DipoleStandingWave::<f64>::new(-1.0, BENCH_OMEGA);
    }

    fn assert_batch_matches_scalar<R: Real>(time_scale: f64) {
        let w = DipoleStandingWave::<R>::new(BENCH_POWER, BENCH_OMEGA);
        let pts = test_points();
        let t = R::from_f64(time_scale / BENCH_OMEGA);
        let n = pts.len();
        let xs: Vec<R> = pts.iter().map(|p| R::from_f64(p.x)).collect();
        let ys: Vec<R> = pts.iter().map(|p| R::from_f64(p.y)).collect();
        let zs: Vec<R> = pts.iter().map(|p| R::from_f64(p.z)).collect();
        let mut comp = vec![R::ZERO; 6 * n];
        let (e_part, b_part) = comp.split_at_mut(3 * n);
        let (ex, eyz) = e_part.split_at_mut(n);
        let (ey, ez) = eyz.split_at_mut(n);
        let (bx, byz) = b_part.split_at_mut(n);
        let (by, bz) = byz.split_at_mut(n);
        let mut out = EbSlices {
            ex,
            ey,
            ez,
            bx,
            by,
            bz,
        };
        w.sample_into(&xs, &ys, &zs, t, &mut out);
        for i in 0..n {
            let f = w.sample(Vec3::new(xs[i], ys[i], zs[i]), t);
            assert_eq!(out.ex[i], f.e.x, "ex lane {i}");
            assert_eq!(out.ey[i], f.e.y, "ey lane {i}");
            assert_eq!(out.ez[i], f.e.z, "ez lane {i}");
            assert_eq!(out.bx[i], f.b.x, "bx lane {i}");
            assert_eq!(out.by[i], f.b.y, "by lane {i}");
            assert_eq!(out.bz[i], f.b.z, "bz lane {i}");
        }
    }

    #[test]
    fn batched_dipole_sampling_is_bitwise_identical() {
        assert_batch_matches_scalar::<f64>(0.37);
        assert_batch_matches_scalar::<f32>(0.37);
        assert_batch_matches_scalar::<f64>(0.0);
    }
}
