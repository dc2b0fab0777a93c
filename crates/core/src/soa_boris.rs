//! The production Boris kernel: one blocked update, two ways to reach
//! the lanes.
//!
//! The paper's C++ loop is one body that icc vectorizes whole;
//! [`SoaBorisKernel`] mirrors that structure explicitly. Particles are
//! processed a block of [`LANES`] at a time by one straight-line per-lane
//! body (`lane_block`, driven by [`SoaBorisKernel::run_lanes`]) that is
//! vector code from its first load to its last store — on an AVX-512
//! host (`target-cpu=native` with `-prefer-256-bit`, `.cargo/config.toml`)
//! one 512-bit register per `f32` variable and two per `f64` one (two and
//! four 256-bit ones without AVX-512), with no scalar division, square
//! root or store in it. The store's layout only decides which columns
//! that body runs over:
//!
//! * **SoA** ([`ParticleAccess::columns_mut`] is `Some`) — the store's
//!   own component columns: unit-stride loads and stores, no gather, no
//!   scatter.
//! * **AoS** (no columns) — block-local columns: `FIELD_BLOCKS` blocks of
//!   particles at a time are copied through their views into the
//!   single-particle proxies of a
//!   `ParticleColumns<[R; FIELD_BLOCKS * LANES], _>`, `run_lanes` advances
//!   it, and the results are copied back the same way.
//!
//! Both arms see the store through one type,
//! [`pic_particles::columns::ParticleColumns`]: the column list is named
//! once here, where `lane_block` destructures a block into the local
//! arrays its straight-line body works on.
//!
//! Fields come `FIELD_BLOCKS` blocks at a time through
//! [`FieldSource::field_columns`] on both arms: a Precalculated table's
//! own rows, lent in place, or a stack table the source samples into
//! (the analytical m-dipole, and every source without columns of its
//! own). The species constants are evaluated once per run of
//! same-species blocks. The arithmetic per
//! lane is exactly that of [`BorisPusher`], through the same helpers of
//! [`crate::pusher`] (the hoisted species constants and time factors are
//! loop-invariant pure computations), so both arms produce trajectories
//! bitwise-identical to the scalar reference — property-tested below for
//! both layouts, both precisions and every way a block can mix species.

use crate::boris::BorisPusher;
use crate::kernel::FieldSource;
use crate::pusher::{self, drift_coef, half_kick_coef, Pusher};
use pic_fields::{map_components, FIELD_COLUMNS};
use pic_math::Real;
use pic_particles::columns::{ColumnsMut, ParticleColumns, REAL_COLUMNS};
use pic_particles::{ParticleAccess, ParticleKernel, ParticleView, SpeciesId, SpeciesTable};

/// Particles per block of the blocked kernel: one 512-bit register of
/// `f32` lanes, two of `f64` — the m-dipole sampler's block, defined once
/// in `pic-fields`.
pub use pic_fields::LANES;

/// Blocks whose fields one [`FieldSource::field_columns`] call takes
/// ahead of their update: lent rows, or a stack-resident table sampled
/// into (6 KiB in `f32`, 12 KiB in `f64`: L1). A source's per-call work
/// — the m-dipole's `sin_cos(ω₀t)` — is paid once per this many blocks,
/// not once per block.
const FIELD_BLOCKS: usize = 16;

/// One block of every column: the view `lane_block` advances.
type BlockMut<'a, R> = ParticleColumns<&'a mut [R; LANES], &'a mut [SpeciesId; LANES]>;

/// ε, mc and 1/mc for each lane of a block.
#[derive(Clone, Copy, Debug)]
struct LaneConsts<R> {
    eps: [R; LANES],
    mc: [R; LANES],
    inv_mc: [R; LANES],
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
    /// vector body, their fields taken [`FIELD_BLOCKS`] blocks at a
    /// time through [`FieldSource::field_columns`] — lent by a source
    /// that holds them as columns, sampled into a stack table by any
    /// other — in one loop for both; the `len % LANES` remainder runs the
    /// reference scalar path through the single-particle proxy.
    pub fn run_lanes(&self, base: usize, lanes: &mut ColumnsMut<'_, R>) {
        // Every column as whole blocks: `&mut [[_; LANES]]` makes the trip
        // count of each loop in `lane_block` a compile-time constant and
        // leaves one bounds check per column per block — the difference
        // between vertical SIMD and scalar code on wide-FMA targets.
        let mut blocks = lanes.each_column_mut(
            |c| c.as_chunks_mut::<LANES>().0,
            |s| s.as_chunks_mut::<LANES>().0,
        );
        let full = blocks.len();
        // bounds: `first + b < first + count <= full`, the columns' common
        // block count; `count <= FIELD_BLOCKS`, the stack table's; `b <
        // count`, the block count of the field columns, lent or sampled,
        // which hold one row per particle; block 0 exists where `full > 0`.
        if full > 0 {
            let lead = blocks.species[0][0];
            let mut uniform = (lead, self.lane_consts(&[lead; LANES]));
            let mut eb = [[[R::ZERO; LANES]; FIELD_BLOCKS]; FIELD_COLUMNS];
            for first in (0..full).step_by(FIELD_BLOCKS) {
                let count = (full - first).min(FIELD_BLOCKS);
                let [x, y, z, ..] = &blocks.reals;
                let span = first..first + count;
                let table = map_components(eb.each_mut(), |c| c[..count].as_flattened_mut());
                let fields = self.source.field_columns(
                    base + first * LANES,
                    x[span.clone()].as_flattened(),
                    y[span.clone()].as_flattened(),
                    z[span].as_flattened(),
                    self.time,
                    table,
                );
                let fields = map_components(fields, |c| c.as_chunks::<LANES>().0);
                for b in 0..count {
                    let block =
                        blocks.each_column_mut(|c| &mut c[first + b], |s| &mut s[first + b]);
                    self.lane_block(block, map_components(fields, |c| &c[b]), &mut uniform);
                }
            }
        }
        for i in (full * LANES)..lanes.len() {
            self.push_view(base + i, &mut lanes.proxy_at(i));
        }
    }

    /// Advances every particle of a store that has no component columns
    /// (AoS): up to [`FIELD_BLOCKS`] whole blocks at a time — one sampled
    /// field table — are copied, view to view, into block-local columns —
    /// what a pusher reads on the way in, what it writes on the way out;
    /// the weight, which no pusher touches, stays behind — and advanced by
    /// [`run_lanes`](Self::run_lanes), the SoA arm itself. The
    /// `len % LANES` remainder runs the reference scalar path.
    fn run_gathered<A: ParticleAccess<R>>(&self, chunk: &mut A) {
        // bounds: the block-local columns are `[_; GATHERED]` arrays sliced
        // to `len <= GATHERED` and every row `l` is below `len`;
        // particle indices `start + l` and the tail's `i` stay strictly
        // below `chunk.len()`.
        const GATHERED: usize = FIELD_BLOCKS * LANES;
        let n = chunk.len();
        let base = chunk.base_index();
        let full = n - n % LANES;
        let mut block = ParticleColumns {
            reals: [[R::ZERO; GATHERED]; REAL_COLUMNS],
            species: [SpeciesId(0); GATHERED],
        };
        for start in (0..full).step_by(GATHERED) {
            let len = (full - start).min(GATHERED);
            let mut lanes = block.each_column_mut(|c| &mut c[..len], |s| &mut s[..len]);
            for l in 0..len {
                let (from, mut to) = (chunk.view_mut(start + l), lanes.proxy_at(l));
                to.set_position(from.position());
                to.set_momentum(from.momentum());
                to.set_species(from.species());
            }
            self.run_lanes(base + start, &mut lanes);
            for l in 0..len {
                let (from, mut to) = (lanes.proxy_at(l), chunk.view_mut(start + l));
                to.set_momentum(from.momentum());
                to.set_gamma(from.gamma());
                to.set_position(from.position());
            }
        }
        for i in full..n {
            let mut view = chunk.view_mut(i);
            self.push_view(base + i, &mut view);
        }
    }

    /// The constants of a block holding `species`, lane by lane: the
    /// exact expressions the scalar helpers evaluate per particle.
    #[inline(always)]
    fn lane_consts(&self, species: &[SpeciesId; LANES]) -> LaneConsts<R> {
        // bounds: `l < LANES` into `[_; LANES]` arrays.
        let mut consts = LaneConsts {
            eps: [R::ZERO; LANES],
            mc: [R::ZERO; LANES],
            inv_mc: [R::ZERO; LANES],
        };
        for (l, id) in species.iter().enumerate() {
            let sp = self.table.get(*id);
            consts.eps[l] = half_kick_coef(sp, self.dt);
            consts.mc[l] = pusher::mc(sp.mass);
            consts.inv_mc[l] = pusher::inv_mc(sp.mass);
        }
        consts
    }

    /// One full block of [`LANES`] particles in the field `fields`
    /// sampled at their positions: species constants, then the
    /// straight-line Boris update, load to store in block-local
    /// `[R; LANES]` arrays and out through whole-array assignments — no
    /// column reference is written in a loop body (the columns may alias,
    /// for all the compiler knows), so each loop below compiles to
    /// vertical SIMD.
    ///
    /// A block whose lanes all hold one species — every block of a
    /// single-species ensemble — reads its constants from `uniform`,
    /// which `run_lanes` carries from block to block and which is
    /// re-evaluated only when that species is not the one it is for; a
    /// mixed block evaluates its own.
    #[inline]
    fn lane_block(
        &self,
        block: BlockMut<'_, R>,
        [ex, ey, ez, bx, by, bz]: [&[R; LANES]; FIELD_COLUMNS],
        uniform: &mut (SpeciesId, LaneConsts<R>),
    ) {
        // bounds: every index in this fn is `[l]` with `l in 0..LANES` into
        // `[_; LANES]` arrays — in range by construction.
        let ParticleColumns {
            reals: [x, y, z, px, py, pz, _weight, gamma],
            species,
        } = block;
        // `&`, not `&&`: no branch per lane.
        let mut same = true;
        for l in 1..LANES {
            same &= species[l] == species[0];
        }
        let mixed;
        let LaneConsts { eps, mc, inv_mc } = if same {
            if species[0] != uniform.0 {
                *uniform = (species[0], self.lane_consts(species));
            }
            &uniform.1
        } else {
            mixed = self.lane_consts(species);
            &mixed
        };

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

        // Compute: same op order as BorisPusher::push, lane by lane.
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

        // Store: p = u·mc and x += u·(cΔt/γ).
        let mut pn = [[R::ZERO; LANES]; 3];
        let mut xn = [[R::ZERO; LANES]; 3];
        for l in 0..LANES {
            pn[0][l] = unx[l] * mc[l];
            pn[1][l] = uny[l] * mc[l];
            pn[2][l] = unz[l] * mc[l];
            let k = drift_coef(gam[l], self.dt);
            xn[0][l] = unx[l].mul_add(k, x[l]);
            xn[1][l] = uny[l].mul_add(k, y[l]);
            xn[2][l] = unz[l].mul_add(k, z[l]);
        }
        [*px, *py, *pz] = pn;
        *gamma = gam;
        [*x, *y, *z] = xn;
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

    /// Overwrites the species of `raw` by particle index.
    fn with_species(raw: &[Raw], species_of: fn(usize) -> u8) -> Vec<Raw> {
        let respecies = |(i, r): (usize, &Raw)| (r.0, r.1, r.2, r.3, r.4, r.5, species_of(i));
        raw.iter().enumerate().map(respecies).collect()
    }

    /// Runs `steps` of the scalar oracle over the whole store vs the
    /// blocked kernel over `chunk_size`-particle chunks on store type `S`
    /// at precision `R` and asserts bitwise-equal trajectories.
    fn assert_parity<R: Real, S: ParticleStore<R>>(raw: &[Raw], steps: usize, chunk_size: usize) {
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

            for chunk in &mut fast.split_mut(chunk_size) {
                let mut fk = SoaBorisKernel::new(&source, &table, dt, time);
                fk.apply_chunk(chunk);
            }
            time += dt;
        }
        assert_same(&scalar, &fast);
    }

    /// Species by particle index, one assignment per way a block can
    /// meet the species constants: the block-uniform arm every seeded,
    /// single-species ensemble runs (either species), the mixed arm on
    /// every block, one odd lane in otherwise uniform blocks (every
    /// `2·LANES − 5`th particle from 3: lane 3 of block 0, lane
    /// `LANES − 2` of block 1, none in block 2, …), and runs of
    /// `1.5·LANES` of one species, which change between and inside
    /// blocks, so that a uniform block follows one of the other species
    /// (block 2 after block 0).
    const MIXES: [fn(usize) -> u8; 5] = [
        |_| 0,
        |_| 1,
        |i| (i % 2) as u8,
        |i| u8::from(i % (2 * LANES - 5) == 3),
        |i| (i / (3 * LANES / 2) % 2) as u8,
    ];

    /// Two blocks and a tail: the chunk length of the chunked parity
    /// runs, whose chunks start at block-unaligned `base_index`.
    const CHUNK: usize = 2 * LANES + 3;

    /// Particles per sampled field table.
    const TABLE: usize = FIELD_BLOCKS * LANES;

    /// Both arms of the kernel — direct slices (SoA) and gathered (AoS) —
    /// over `raw` as given and under every assignment of [`MIXES`], whole
    /// and in [`CHUNK`]-particle chunks (two blocks and a tail each, at
    /// non-zero and block-unaligned `base_index`).
    fn assert_parity_both_layouts<R: Real>(raw: &[Raw], steps: usize) {
        let mixes = MIXES
            .iter()
            .map(|species_of| with_species(raw, *species_of));
        for raw in std::iter::once(raw.to_vec()).chain(mixes) {
            for chunk_size in [raw.len().max(1), CHUNK] {
                assert_parity::<R, SoaEnsemble<R>>(&raw, steps, chunk_size);
                assert_parity::<R, AosEnsemble<R>>(&raw, steps, chunk_size);
            }
        }
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
                1..3 * LANES),
        ) {
            assert_parity_both_layouts::<f64>(&raw, 4);
        }

        /// Same, single precision.
        #[test]
        fn fast_path_bitwise_matches_scalar_f32(
            raw in prop::collection::vec(
                (-0.9f64..0.9, -0.9f64..0.9, -0.9f64..0.9,
                 -5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0, 0u8..2),
                1..3 * LANES),
        ) {
            assert_parity_both_layouts::<f32>(&raw, 4);
        }
    }

    #[test]
    fn remainder_tail_lengths_are_exact() {
        // Deterministic spot-check of the empty store, tail-only stores,
        // every tail length around one and two blocks, and lengths around
        // one and two field tables (`FIELD_BLOCKS` blocks each), where the
        // second `field_columns` call starts and where the last one is short.
        let around_blocks = [0, 1, 3, LANES - 1, LANES, LANES + 1];
        let around_two = [2 * LANES - 1, 2 * LANES, 2 * LANES + 1];
        let around_tables = [
            TABLE - 1,
            TABLE,
            TABLE + 1,
            TABLE + LANES + 1,
            2 * TABLE + LANES + 5,
        ];
        for n in around_blocks
            .into_iter()
            .chain(around_two)
            .chain(around_tables)
        {
            // Steps of 0.05 as far as 17 particles; a longer ramp is
            // compressed to end where that one does.
            let raw = ramp(n, 0.05 * 17.0 / n.max(17) as f64);
            assert_parity_both_layouts::<f64>(&raw, 3);
            assert_parity_both_layouts::<f32>(&raw, 3);
        }
    }

    /// One Precalculated step of the scalar oracle over the whole store
    /// vs the blocked kernel over `chunk_size`-particle chunks.
    fn assert_precalculated_parity<R: Real, S: ParticleStore<R>>(raw: &[Raw], chunk_size: usize) {
        let table = SpeciesTable::<R>::with_standard_species();
        let wave = DipoleStandingWave::<R>::new(BENCH_POWER, BENCH_OMEGA);
        let mut scalar = S::from_particles(raw.iter().map(particle::<R>));
        let mut fast = S::from_particles(raw.iter().map(particle::<R>));
        let positions: Vec<Vec3<R>> = (0..scalar.len()).map(|i| scalar.get(i).position).collect();
        let pre = PrecalculatedFields::from_sampler(&wave, positions, R::ZERO);
        let dt = R::from_f64(1e-16);

        let src = PrecalculatedSource::new(&pre);
        let mut k = PushKernel::new(src, BorisPusher, &table, dt);
        scalar.for_each_mut(&mut k);
        for chunk in &mut fast.split_mut(chunk_size) {
            let mut fk = SoaBorisKernel::new(&src, &table, dt, R::ZERO);
            fk.apply_chunk(chunk);
        }
        assert_same(&scalar, &fast);
    }

    #[test]
    fn precalculated_fast_path_matches_scalar() {
        // The lent columns of `field_columns` must agree with the
        // per-index path bit for bit — over the whole store, and over
        // chunks whose non-zero `base_index` must keep the per-particle
        // field table aligned (`LANES + 3` = one block + a tail per
        // chunk) — on a store shorter than one sampled field table (two
        // blocks and a tail) and on one that takes three (chunks of a
        // full table, two blocks of the next and a tail, from bases no
        // block or table is aligned to).
        let short = 2 * LANES + 5;
        let long = 2 * TABLE + LANES + 5;
        for (raw, chunk_sizes) in [
            (ramp(short, 0.84 / short as f64), [short, LANES + 3]),
            (
                ramp(long, 0.84 / long as f64),
                [long, TABLE + 2 * LANES + 6],
            ),
        ] {
            for raw in [raw.clone(), with_species(&raw, |_| 0)] {
                for chunk_size in chunk_sizes {
                    assert_precalculated_parity::<f64, SoaEnsemble<f64>>(&raw, chunk_size);
                    assert_precalculated_parity::<f64, AosEnsemble<f64>>(&raw, chunk_size);
                    assert_precalculated_parity::<f32, SoaEnsemble<f32>>(&raw, chunk_size);
                    assert_precalculated_parity::<f32, AosEnsemble<f32>>(&raw, chunk_size);
                }
            }
        }
    }

    fn assert_chunked_matches_whole<S: ParticleStore<f64>>() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = 0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;
        // Two chunks of two blocks and a tail, and a last one of one
        // block and a tail.
        let n = 2 * CHUNK + LANES + 7;
        let raw = ramp(n, 0.8 / n as f64);
        let mut whole = S::from_particles(raw.iter().map(particle::<f64>));
        let mut chunked = S::from_particles(raw.iter().map(particle::<f64>));

        let mut k = SoaBorisKernel::new(&source, &table, dt, 0.0);
        k.apply_chunk(&mut whole);
        for chunk in &mut chunked.split_mut(CHUNK) {
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
        let mut ens = S::from_particles((0..CHUNK).map(|i| {
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
