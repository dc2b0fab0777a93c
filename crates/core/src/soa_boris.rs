//! The production Boris kernel: one blocked update, two ways to reach
//! the lanes.
//!
//! The paper's C++ loop is auto-vectorized with AVX-512; [`SoaBorisKernel`]
//! mirrors that structure explicitly. Particles are processed a block of
//! [`LANES`] at a time by one straight-line per-lane body
//! (`lane_block`, driven by [`SoaBorisKernel::run_lanes`]); the store's
//! layout only decides which columns that body runs over:
//!
//! * **SoA** ([`ParticleAccess::columns_mut`] is `Some`) — the store's
//!   own component columns: unit-stride loads and stores, no gather, no
//!   scatter.
//! * **AoS** (no columns) — block-local columns: each block's particles
//!   are copied through their views into the single-particle proxies of
//!   a `ParticleColumns<[R; LANES], _>`, `run_lanes` advances it, and
//!   the results are copied back the same way.
//!
//! Both arms see the store through one type,
//! [`pic_particles::columns::ParticleColumns`]: the column list is named
//! once here, where `lane_block` destructures a block into the local
//! arrays its straight-line body works on.
//!
//! Fields are sampled a block at a time through
//! [`FieldSource::field_block`] on both arms. The arithmetic order per
//! lane is exactly that of [`BorisPusher`] (the hoisted species constants
//! and time factors are loop-invariant pure computations), so both arms
//! produce trajectories bitwise-identical to the scalar reference —
//! property-tested below for both layouts and precisions.

use crate::boris::BorisPusher;
use crate::kernel::FieldSource;
use crate::pusher::{half_kick_coef, Pusher};
use pic_fields::{map_components, EbSlices, FIELD_COLUMNS};
use pic_math::constants::LIGHT_VELOCITY;
use pic_math::Real;
use pic_particles::columns::{ColumnsMut, ParticleColumns, REAL_COLUMNS};
use pic_particles::{ParticleAccess, ParticleKernel, ParticleView, SpeciesId, SpeciesTable};

/// Vector width of the blocked kernel (AVX-512 double lanes).
pub const LANES: usize = 8;

/// The fixed-width array view of lanes `[start, start + LANES)` of one
/// column. Callers guarantee the block is in bounds (`run_lanes` iterates
/// full blocks only).
///
/// Narrowing every column to `&mut [_; LANES]` once per block makes the
/// hot loop's trip count a compile-time constant and removes all bounds
/// checks from its body — the difference between vertical SIMD and
/// scalar code on wide-FMA targets.
#[inline(always)]
fn lane_array<T>(col: &mut [T], start: usize) -> &mut [T; LANES] {
    // bounds: `run_lanes` only forms full blocks (`start + LANES <= len`),
    // so `col[start..]` holds at least LANES elements.
    match col[start..].first_chunk_mut::<LANES>() {
        Some(a) => a,
        // analyze: allow(purity-panic): cold branch — unreachable by the
        // full-block invariant above, kept as a loud guard.
        None => unreachable!("lane block out of bounds"),
    }
}

/// The blocked Boris kernel.
///
/// Being a [`ParticleKernel`], it drops into every place the scalar
/// [`crate::PushKernel`] fits — including the parallel runtime, which
/// invokes kernels through [`ParticleKernel::apply_chunk`] so this
/// kernel's whole-chunk override picks the direct-slice or the gathered
/// arm from the chunk's layout automatically.
#[derive(Clone, Copy, Debug)]
pub struct SoaBorisKernel<'a, R, F> {
    source: &'a F,
    table: &'a SpeciesTable<R>,
    dt: R,
    time: R,
}

impl<'a, R: Real, F: FieldSource<R>> SoaBorisKernel<'a, R, F> {
    /// Creates a kernel for one sweep at simulation time `time`.
    pub fn new(source: &'a F, table: &'a SpeciesTable<R>, dt: R, time: R) -> Self {
        SoaBorisKernel {
            source,
            table,
            dt,
            time,
        }
    }

    /// Advances every particle behind `lanes` by one step, operating
    /// directly on the component columns; row 0 is global particle
    /// `base`. Full blocks of [`LANES`] particles run the straight-line
    /// vectorizable loop; the `len % LANES` remainder runs the reference
    /// scalar path through the single-particle proxy.
    pub fn run_lanes(&self, base: usize, lanes: &mut ColumnsMut<'_, R>) {
        let n = lanes.len();
        let blocks = n / LANES;
        for b in 0..blocks {
            self.lane_block(base, lanes, b * LANES);
        }
        for i in (blocks * LANES)..n {
            self.push_view(base + i, &mut lanes.proxy_at(i));
        }
    }

    /// Advances every particle of a store that has no component columns
    /// (AoS): each full block of [`LANES`] particles is copied, view to
    /// view, into block-local columns — what a pusher reads on the way
    /// in, what it writes on the way out; the weight, which no pusher
    /// touches, stays behind — and advanced by
    /// [`run_lanes`](Self::run_lanes), the SoA arm itself, over one block.
    /// The `len % LANES` remainder runs the reference scalar path.
    fn run_gathered<A: ParticleAccess<R>>(&self, chunk: &mut A) {
        // bounds: the block-local columns are full-range slices of
        // `[_; LANES]` arrays and every lane `l` is below LANES; particle
        // indices `start + l` and the tail's `i` stay strictly below
        // `chunk.len()`.
        let n = chunk.len();
        let base = chunk.base_index();
        let blocks = n / LANES;
        for b in 0..blocks {
            let start = b * LANES;
            let mut block = ParticleColumns {
                reals: [[R::ZERO; LANES]; REAL_COLUMNS],
                species: [SpeciesId(0); LANES],
            };
            let mut lanes = block.each_column_mut(|c| &mut c[..], |s| &mut s[..]);
            for l in 0..LANES {
                let (from, mut to) = (chunk.view_mut(start + l), lanes.proxy_at(l));
                to.set_position(from.position());
                to.set_momentum(from.momentum());
                to.set_species(from.species());
            }
            self.run_lanes(base + start, &mut lanes);
            for l in 0..LANES {
                let (from, mut to) = (lanes.proxy_at(l), chunk.view_mut(start + l));
                to.set_momentum(from.momentum());
                to.set_gamma(from.gamma());
                to.set_position(from.position());
            }
        }
        for i in (blocks * LANES)..n {
            let mut view = chunk.view_mut(i);
            self.push_view(base + i, &mut view);
        }
    }

    /// One full block of [`LANES`] particles starting at column index
    /// `start`: species constants, then a blocked field sample, then the
    /// straight-line Boris update written back in place.
    ///
    /// Every column is narrowed to a `&mut [R; LANES]` array view first:
    /// with the trip count a compile-time constant and no bounds checks
    /// left in the loop body, the update loop below compiles to pure
    /// vertical SIMD on targets with wide FMA.
    #[inline]
    fn lane_block(&self, base: usize, lanes: &mut ColumnsMut<'_, R>, start: usize) {
        // bounds: every index in this fn is `[l]` with `l in 0..LANES` into
        // `[R; LANES]` block-local arrays or the LANES-sized column views —
        // in range by construction.
        let ParticleColumns {
            reals: [x, y, z, px, py, pz, _weight, gamma],
            species,
        } = lanes.each_column_mut(|c| lane_array(c, start), |s| lane_array(s, start));
        // Loop-invariant species constants, one lane each. These are the
        // exact expressions the scalar helpers evaluate per particle.
        let mut eps = [R::ZERO; LANES];
        let mut inv_mc = [R::ZERO; LANES];
        let mut mc = [R::ZERO; LANES];
        let mut mass = [R::ZERO; LANES];
        for l in 0..LANES {
            let sp = self.table.get(species[l]);
            eps[l] = half_kick_coef(sp, self.dt);
            inv_mc[l] = (sp.mass * R::from_f64(LIGHT_VELOCITY)).recip();
            mc[l] = sp.mass * R::from_f64(LIGHT_VELOCITY);
            mass[l] = sp.mass;
        }

        // Blocked field sample straight out of the position columns.
        let mut eb = [[R::ZERO; LANES]; FIELD_COLUMNS];
        {
            let mut out = EbSlices::from_columns(map_components(eb.each_mut(), |c| &mut c[..]));
            self.source
                .field_block(base + start, &x[..], &y[..], &z[..], self.time, &mut out);
        }
        let [ex, ey, ez, bx, by, bz] = eb;

        // Load: u = p/(mc), straight out of the momentum columns at unit
        // stride into block-local arrays.
        let mut ux = [R::ZERO; LANES];
        let mut uy = [R::ZERO; LANES];
        let mut uz = [R::ZERO; LANES];
        for l in 0..LANES {
            ux[l] = px[l] * inv_mc[l];
            uy[l] = py[l] * inv_mc[l];
            uz[l] = pz[l] * inv_mc[l];
        }

        // Compute: straight-line per-lane Boris over block-local arrays
        // only — no column references in the body, which is what lets the
        // compiler turn the unrolled block into vertical SIMD. Same op
        // order as BorisPusher::push, lane by lane.
        let mut unx = [R::ZERO; LANES];
        let mut uny = [R::ZERO; LANES];
        let mut unz = [R::ZERO; LANES];
        let mut gam = [R::ZERO; LANES];
        for l in 0..LANES {
            // Half electric kick: u⁻ = u + ε·E.
            let umx = ex[l].mul_add(eps[l], ux[l]);
            let umy = ey[l].mul_add(eps[l], uy[l]);
            let umz = ez[l].mul_add(eps[l], uz[l]);
            let gamma_n = (R::ONE + (umx * umx + umy * umy + umz * umz)).sqrt();
            let coef = eps[l] / gamma_n;
            let tx = bx[l] * coef;
            let ty = by[l] * coef;
            let tz = bz[l] * coef;
            let t2 = tx * tx + ty * ty + tz * tz;
            let sc = R::TWO / (R::ONE + t2);
            let sx = tx * sc;
            let sy = ty * sc;
            let sz = tz * sc;
            // u' = u⁻ + u⁻ × t
            let upx = umx + (umy * tz - umz * ty);
            let upy = umy + (umz * tx - umx * tz);
            let upz = umz + (umx * ty - umy * tx);
            // u⁺ = u⁻ + u' × s
            let uqx = umx + (upy * sz - upz * sy);
            let uqy = umy + (upz * sx - upx * sz);
            let uqz = umz + (upx * sy - upy * sx);
            // Second half kick.
            unx[l] = ex[l].mul_add(eps[l], uqx);
            uny[l] = ey[l].mul_add(eps[l], uqy);
            unz[l] = ez[l].mul_add(eps[l], uqz);
            gam[l] = (R::ONE + (unx[l] * unx[l] + uny[l] * uny[l] + unz[l] * unz[l])).sqrt();
        }

        // Store: p = u·mc, v = p/(γm), x += v·dt — written straight back
        // to the columns at unit stride.
        for l in 0..LANES {
            let pnx = unx[l] * mc[l];
            let pny = uny[l] * mc[l];
            let pnz = unz[l] * mc[l];
            let denom = gam[l] * mass[l];
            let vx = pnx / denom;
            let vy = pny / denom;
            let vz = pnz / denom;
            px[l] = pnx;
            py[l] = pny;
            pz[l] = pnz;
            gamma[l] = gam[l];
            x[l] += vx * self.dt;
            y[l] += vy * self.dt;
            z[l] += vz * self.dt;
        }
    }

    /// Scalar reference update of one particle through its view — the
    /// same sequence [`BorisPusher::push`] performs.
    #[inline(always)]
    fn push_view<V: ParticleView<R>>(&self, index: usize, view: &mut V) {
        let field = self.source.field(index, view.position(), self.time);
        let species = self.table.get(view.species());
        BorisPusher.push(view, &field, species, self.dt);
    }
}

impl<R: Real, F: FieldSource<R>> ParticleKernel<R> for SoaBorisKernel<'_, R, F> {
    #[inline(always)]
    fn apply<V: ParticleView<R>>(&mut self, index: usize, view: &mut V) {
        self.push_view(index, view);
    }

    fn apply_chunk<A: ParticleAccess<R>>(&mut self, chunk: &mut A) {
        let base = chunk.base_index();
        match chunk.columns_mut() {
            Some(mut lanes) => self.run_lanes(base, &mut lanes),
            None => self.run_gathered(chunk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AnalyticalSource, PrecalculatedSource, PushKernel};
    use crate::pusher::{gamma_of_u, momentum_from_u};
    use pic_fields::{DipoleStandingWave, PrecalculatedFields};
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
    use pic_math::Vec3;
    use pic_particles::{AosEnsemble, Particle, ParticleStore, SoaEnsemble};
    use proptest::prelude::*;

    const DIPOLE_SPECIES: [SpeciesId; 2] =
        [SpeciesTable::<f64>::ELECTRON, SpeciesTable::<f64>::POSITRON];

    type Raw = (f64, f64, f64, f64, f64, f64, u8);

    /// Builds one particle from raw proptest scalars at precision `R`.
    fn particle<R: Real>(raw: &Raw) -> Particle<R> {
        let (x, y, z, ux, uy, uz, sp) = *raw;
        let species = DIPOLE_SPECIES[(sp % 2) as usize];
        let table = SpeciesTable::<R>::with_standard_species();
        let mass = table.get(species).mass;
        let u = Vec3::new(R::from_f64(ux), R::from_f64(uy), R::from_f64(uz));
        let momentum = momentum_from_u(u, mass);
        let mut p = Particle::at_rest(
            Vec3::new(
                R::from_f64(x * BENCH_WAVELENGTH),
                R::from_f64(y * BENCH_WAVELENGTH),
                R::from_f64(z * BENCH_WAVELENGTH),
            ),
            R::ONE,
            species,
        );
        p.momentum = momentum;
        p.gamma = gamma_of_u(u);
        p
    }

    /// A deterministic ramp of `n` raw states (both species, distinct
    /// positions and momenta).
    fn ramp(n: usize, step: f64) -> Vec<Raw> {
        (0..n)
            .map(|i| {
                let s = step * (i as f64 + 1.0);
                (s - 0.4, 0.4 - s, 0.25 * s, s, -0.5 * s, s, (i % 2) as u8)
            })
            .collect()
    }

    fn assert_same<R: Real, S: ParticleStore<R>>(expect: &S, got: &S) {
        assert_eq!(expect.len(), got.len());
        for i in 0..expect.len() {
            assert_eq!(expect.get(i), got.get(i), "particle {i} diverged");
        }
    }

    /// Runs `steps` of the scalar oracle vs the blocked kernel on store
    /// type `S` at precision `R` and asserts bitwise-equal trajectories.
    fn assert_parity<R: Real, S: ParticleStore<R>>(raw: &[Raw], steps: usize) {
        let table = SpeciesTable::<R>::with_standard_species();
        let wave = DipoleStandingWave::<R>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = R::from_f64(0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA);

        let mut scalar = S::from_particles(raw.iter().map(particle::<R>));
        let mut fast = S::from_particles(raw.iter().map(particle::<R>));

        let mut k = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        let mut time = R::ZERO;
        for _ in 0..steps {
            scalar.for_each_mut(&mut k);
            k.advance_time();

            let mut fk = SoaBorisKernel::new(&source, &table, dt, time);
            fk.apply_chunk(&mut fast);
            time += dt;
        }
        assert_same(&scalar, &fast);
    }

    /// Both arms of the kernel: direct slices (SoA) and gathered (AoS).
    fn assert_parity_both_layouts<R: Real>(raw: &[Raw], steps: usize) {
        assert_parity::<R, SoaEnsemble<R>>(raw, steps);
        assert_parity::<R, AosEnsemble<R>>(raw, steps);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Bitwise trajectory parity over random states — f64, with
        /// lengths spanning full blocks and a scalar remainder tail.
        #[test]
        fn fast_path_bitwise_matches_scalar_f64(
            raw in prop::collection::vec(
                (-0.9f64..0.9, -0.9f64..0.9, -0.9f64..0.9,
                 -5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0, 0u8..2),
                1..40),
        ) {
            assert_parity_both_layouts::<f64>(&raw, 4);
        }

        /// Same, single precision.
        #[test]
        fn fast_path_bitwise_matches_scalar_f32(
            raw in prop::collection::vec(
                (-0.9f64..0.9, -0.9f64..0.9, -0.9f64..0.9,
                 -5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0, 0u8..2),
                1..40),
        ) {
            assert_parity_both_layouts::<f32>(&raw, 4);
        }
    }

    #[test]
    fn remainder_tail_lengths_are_exact() {
        // Deterministic spot-check of the empty store, tail-only stores
        // and every tail length around one block.
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17] {
            let raw = ramp(n, 0.05);
            assert_parity_both_layouts::<f64>(&raw, 3);
            assert_parity_both_layouts::<f32>(&raw, 3);
        }
    }

    /// One Precalculated step of the scalar oracle over the whole store
    /// vs the blocked kernel over `chunk_size`-particle chunks.
    fn assert_precalculated_parity<S: ParticleStore<f64>>(chunk_size: usize) {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let raw = ramp(21, 0.04);
        let mut scalar = S::from_particles(raw.iter().map(particle::<f64>));
        let mut fast = S::from_particles(raw.iter().map(particle::<f64>));
        let positions: Vec<Vec3<f64>> = (0..scalar.len()).map(|i| scalar.get(i).position).collect();
        let pre = PrecalculatedFields::from_sampler(&wave, positions, 0.0);
        let dt = 1e-16;

        let src = PrecalculatedSource::new(&pre);
        let mut k = PushKernel::new(src, BorisPusher, &table, dt);
        scalar.for_each_mut(&mut k);
        for chunk in &mut fast.split_mut(chunk_size) {
            let mut fk = SoaBorisKernel::new(&src, &table, dt, 0.0);
            fk.apply_chunk(chunk);
        }
        assert_same(&scalar, &fast);
    }

    #[test]
    fn precalculated_fast_path_matches_scalar() {
        // The contiguous-slice field_block override must agree with the
        // per-index path bit for bit — over the whole store, and over
        // chunks whose non-zero `base_index` must keep the per-particle
        // field table aligned (11 = one block + a tail per chunk).
        for chunk_size in [21, 11] {
            assert_precalculated_parity::<SoaEnsemble<f64>>(chunk_size);
            assert_precalculated_parity::<AosEnsemble<f64>>(chunk_size);
        }
    }

    fn assert_chunked_matches_whole<S: ParticleStore<f64>>() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = 0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;
        let raw = ramp(53, 0.015);
        let mut whole = S::from_particles(raw.iter().map(particle::<f64>));
        let mut chunked = S::from_particles(raw.iter().map(particle::<f64>));

        let mut k = SoaBorisKernel::new(&source, &table, dt, 0.0);
        k.apply_chunk(&mut whole);
        for chunk in &mut chunked.split_mut(19) {
            let mut kc = SoaBorisKernel::new(&source, &table, dt, 0.0);
            kc.apply_chunk(chunk);
        }
        assert_same(&whole, &chunked);
    }

    #[test]
    fn chunked_sweep_matches_whole_ensemble() {
        // Splitting into runtime-style chunks (with nonzero base offsets)
        // must not change the result, on either arm.
        assert_chunked_matches_whole::<SoaEnsemble<f64>>();
        assert_chunked_matches_whole::<AosEnsemble<f64>>();
    }

    fn assert_pure_b_preserves_momentum_norm<S: ParticleStore<f64>>() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let field = pic_fields::UniformFields::<f64>::magnetic(Vec3::new(0.0, 0.0, 1e4));
        let source = AnalyticalSource::new(field);
        let mass = pic_particles::Species::<f64>::electron().mass;
        let mut ens = S::from_particles((0..19).map(|i| {
            let mut p = Particle::at_rest(Vec3::zero(), 1.0, SpeciesTable::<f64>::ELECTRON);
            p.momentum = Vec3::new(1e-18 * (i + 1) as f64, 0.0, 2e-19);
            p.refresh_gamma(mass);
            p
        }));
        let norms: Vec<f64> = (0..ens.len()).map(|i| ens.get(i).momentum.norm()).collect();
        let mut k = SoaBorisKernel::new(&source, &table, 1e-12, 0.0);
        for _ in 0..25 {
            k.apply_chunk(&mut ens);
        }
        for (i, before) in norms.iter().enumerate() {
            let n = ens.get(i).momentum.norm();
            assert!((n - before).abs() / before < 1e-12, "particle {i}");
        }
    }

    #[test]
    fn momentum_magnitude_preserved_in_pure_b() {
        assert_pure_b_preserves_momentum_norm::<SoaEnsemble<f64>>();
        assert_pure_b_preserves_momentum_norm::<AosEnsemble<f64>>();
    }
}
