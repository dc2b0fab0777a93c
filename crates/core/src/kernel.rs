//! Push kernels: pusher × field source × species table, packaged as a
//! [`ParticleKernel`] for ensembles and the parallel runtime.
//!
//! The two field sources mirror the paper's benchmark scenarios (§5.2):
//! [`AnalyticalSource`] evaluates closed formulas at every particle
//! position ("Analytical Fields"); [`PrecalculatedSource`] streams a
//! per-particle array computed in advance ("Precalculated Fields").
//!
//! The blocked kernel takes its field table through
//! [`FieldSource::field_columns`]: a Precalculated source lends its own
//! rows, every other source samples into the kernel's stack table. The
//! reference wrapper (`impl FieldSource for &S`) forwards that method
//! too; without it a borrowed Precalculated source would copy again.

use crate::pusher::Pusher;
use pic_fields::{map_components, BatchSampler, EbSlices, PrecalculatedFields, EB, FIELD_COLUMNS};
use pic_math::{Real, Vec3};
use pic_particles::{ParticleKernel, ParticleView, SpeciesTable};

/// Per-particle field lookup: given the particle's global index and
/// position, produce (**E**, **B**).
pub trait FieldSource<R: Real>: Send + Sync {
    /// Field seen by particle `index` located at `pos` at time `time`.
    fn field(&self, index: usize, pos: Vec3<R>, time: R) -> EB<R>;

    /// Fills one lane-block of field values: element `i` of `out` gets
    /// the field seen by particle `base + i` at `(xs[i], ys[i], zs[i])`.
    ///
    /// The default loops over [`field`](Self::field) and is bitwise-
    /// identical to per-particle lookup; sources with a cheaper blocked
    /// form (batched analytical sampling, contiguous precalculated-array
    /// copies) override it.
    fn field_block(
        &self,
        base: usize,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        time: R,
        out: &mut EbSlices<'_, R>,
    ) {
        // bounds: the runtime slices xs/ys/zs and every EbSlices lane to the
        // same chunk length, so `i < xs.len()` indexes all of them in range.
        for i in 0..xs.len() {
            let f = self.field(base + i, Vec3::new(xs[i], ys[i], zs[i]), time);
            out.write_lane(i, f);
        }
    }

    /// The six field columns, in [`EB::to_array`] order, of particles
    /// `base..base + xs.len()` at `(xs[i], ys[i], zs[i])`: what the
    /// blocked kernel reads a table of blocks from.
    ///
    /// `table` is room for the values, six slices of `xs.len()` each.
    /// The default samples into it through
    /// [`field_block`](Self::field_block) and lends it back; a source
    /// that already holds the values as columns lends its own rows and
    /// leaves `table` untouched.
    #[inline(always)]
    fn field_columns<'t>(
        &'t self,
        base: usize,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        time: R,
        table: [&'t mut [R]; FIELD_COLUMNS],
    ) -> [&'t [R]; FIELD_COLUMNS] {
        let mut out = EbSlices::from_columns(table);
        self.field_block(base, xs, ys, zs, time, &mut out);
        map_components(out.into_columns(), |c| &*c)
    }
}

/// The "Analytical Fields" scenario: evaluate a [`FieldSampler`] at the
/// particle position.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticalSource<S> {
    /// The analytical field model.
    pub sampler: S,
}

impl<S> AnalyticalSource<S> {
    /// Wraps a sampler.
    pub fn new(sampler: S) -> AnalyticalSource<S> {
        AnalyticalSource { sampler }
    }
}

impl<R: Real, S: BatchSampler<R>> FieldSource<R> for AnalyticalSource<S> {
    #[inline(always)]
    fn field(&self, _index: usize, pos: Vec3<R>, time: R) -> EB<R> {
        self.sampler.sample(pos, time)
    }

    #[inline]
    fn field_block(
        &self,
        _base: usize,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        time: R,
        out: &mut EbSlices<'_, R>,
    ) {
        self.sampler.sample_into(xs, ys, zs, time, out);
    }
}

/// The "Precalculated Fields" scenario: stream the per-particle array.
/// The source borrows the six component columns, so it reads a host
/// table and the device backend's staged copy alike.
#[derive(Clone, Copy, Debug)]
pub struct PrecalculatedSource<'a, R> {
    /// The component columns, indexed by global particle index.
    cols: [&'a [R]; FIELD_COLUMNS],
}

impl<'a, R: Real> PrecalculatedSource<'a, R> {
    /// Reads a precalculated array.
    pub fn new(fields: &'a PrecalculatedFields<R>) -> PrecalculatedSource<'a, R> {
        PrecalculatedSource::over_columns(fields.columns())
    }

    /// Reads six externally owned component columns, in
    /// [`EB::to_array`] order.
    ///
    /// # Panics
    ///
    /// Panics unless all six have equal length.
    pub fn over_columns(cols: [&'a [R]; FIELD_COLUMNS]) -> PrecalculatedSource<'a, R> {
        // bounds: constant index into `[_; FIELD_COLUMNS]`.
        assert!(
            cols.iter().all(|c| c.len() == cols[0].len()),
            "over_columns: all six component columns must have equal length"
        );
        PrecalculatedSource { cols }
    }
}

impl<R: Real> FieldSource<R> for PrecalculatedSource<'_, R> {
    #[inline(always)]
    fn field(&self, index: usize, _pos: Vec3<R>, _time: R) -> EB<R> {
        // bounds: sweeps hand out indices of the ensemble the table was
        // built for; an index past it is this lookup's documented panic.
        EB::from_array(map_components(self.cols, |c| c[index]))
    }

    /// Contiguous slice copies instead of per-index [`EB`] assembly: six
    /// streaming `memcpy`s straight out of the SoA field columns. The
    /// blocked kernel does not copy: it reads the rows in place through
    /// [`field_columns`](FieldSource::field_columns).
    #[inline]
    fn field_block(
        &self,
        base: usize,
        xs: &[R],
        _ys: &[R],
        _zs: &[R],
        _time: R,
        out: &mut EbSlices<'_, R>,
    ) {
        let n = xs.len();
        // bounds: the sweep hands out chunks of the same ensemble the
        // precalculated table was built for, so `base + n` never exceeds
        // the stored lane length.
        for (dst, src) in out.as_columns_mut().into_iter().zip(self.cols) {
            dst.copy_from_slice(&src[base..base + n]);
        }
    }

    /// The table's own rows `base..base + xs.len()`, lent in place: no
    /// copy, and `table` is left as it is.
    #[inline(always)]
    fn field_columns<'t>(
        &'t self,
        base: usize,
        xs: &[R],
        _ys: &[R],
        _zs: &[R],
        _time: R,
        _table: [&'t mut [R]; FIELD_COLUMNS],
    ) -> [&'t [R]; FIELD_COLUMNS] {
        let rows = base..base + xs.len();
        // bounds: as in `field_block`, the rows of a chunk of the ensemble
        // the table was built for.
        map_components(self.cols, |c| &c[rows.clone()])
    }
}

/// The complete per-particle computation of one time step: field lookup,
/// species lookup, momentum and position update.
///
/// Being a [`ParticleKernel`], the same monomorphized code runs over AoS
/// and SoA ensembles, serially or split into chunks by the runtime —
/// exactly the structure of the paper's templated C++/DPC++ loop body.
///
/// # Example
///
/// ```
/// use pic_boris::{AnalyticalSource, BorisPusher, PushKernel};
/// use pic_fields::UniformFields;
/// use pic_math::Vec3;
/// use pic_particles::{AosEnsemble, Particle, ParticleAccess, ParticleStore, SpeciesTable};
///
/// let table = SpeciesTable::<f64>::with_standard_species();
/// let source = AnalyticalSource::new(UniformFields::electric(Vec3::new(1e-2, 0.0, 0.0)));
/// let mut kernel = PushKernel::new(source, BorisPusher, &table, 1e-13);
///
/// let mut ens = AosEnsemble::from_particles(
///     [Particle::at_rest(Vec3::zero(), 1.0, SpeciesTable::<f64>::ELECTRON)]);
/// ens.for_each_mut(&mut kernel);
/// kernel.advance_time();
/// assert!(ens.get(0).momentum.x != 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct PushKernel<'a, R, F, P> {
    source: F,
    pusher: P,
    table: &'a SpeciesTable<R>,
    dt: R,
    time: R,
}

impl<'a, R: Real, F, P> PushKernel<'a, R, F, P> {
    /// Creates a kernel starting at simulation time 0.
    pub fn new(source: F, pusher: P, table: &'a SpeciesTable<R>, dt: R) -> Self {
        PushKernel {
            source,
            pusher,
            table,
            dt,
            time: R::ZERO,
        }
    }

    /// Time step Δt, s.
    pub fn dt(&self) -> R {
        self.dt
    }

    /// Current simulation time, s.
    pub fn time(&self) -> R {
        self.time
    }

    /// Sets the simulation time (e.g. when resuming).
    pub fn set_time(&mut self, t: R) {
        self.time = t;
    }

    /// Advances the simulation clock by one step. Call once per sweep over
    /// the ensemble.
    pub fn advance_time(&mut self) {
        self.time += self.dt;
    }

    /// The wrapped field source.
    pub fn source(&self) -> &F {
        &self.source
    }

    /// The wrapped pusher.
    pub fn pusher(&self) -> &P {
        &self.pusher
    }
}

impl<R, F, P> ParticleKernel<R> for PushKernel<'_, R, F, P>
where
    R: Real,
    F: FieldSource<R>,
    P: Pusher<R>,
{
    #[inline(always)]
    fn apply<V: ParticleView<R>>(&mut self, index: usize, view: &mut V) {
        let field = self.source.field(index, view.position(), self.time);
        let species = self.table.get(view.species());
        self.pusher.push(view, &field, species, self.dt);
    }
}

/// A shared, immutable variant of [`PushKernel`] for the parallel runtime:
/// each worker thread builds its own mutable [`PushKernel`]-equivalent via
/// [`SharedPushKernel::to_kernel`], because `ParticleKernel::apply` takes
/// `&mut self`.
#[derive(Clone, Copy, Debug)]
pub struct SharedPushKernel<'a, R, F, P> {
    /// Field source shared across threads.
    pub source: &'a F,
    /// Pusher (stateless).
    pub pusher: P,
    /// Species table shared across threads.
    pub table: &'a SpeciesTable<R>,
    /// Time step, s.
    pub dt: R,
    /// Simulation time of this sweep, s.
    pub time: R,
}

impl<'a, R: Real, F, P: Copy> SharedPushKernel<'a, R, F, P> {
    /// Builds the per-thread mutable kernel.
    pub fn to_kernel(&self) -> PushKernel<'a, R, &'a F, P> {
        let mut k = PushKernel::new(self.source, self.pusher, self.table, self.dt);
        k.set_time(self.time);
        k
    }
}

impl<R: Real, S: FieldSource<R> + ?Sized> FieldSource<R> for &S {
    #[inline(always)]
    fn field(&self, index: usize, pos: Vec3<R>, time: R) -> EB<R> {
        (**self).field(index, pos, time)
    }

    #[inline(always)]
    fn field_block(
        &self,
        base: usize,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        time: R,
        out: &mut EbSlices<'_, R>,
    ) {
        (**self).field_block(base, xs, ys, zs, time, out)
    }

    #[inline(always)]
    fn field_columns<'t>(
        &'t self,
        base: usize,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        time: R,
        table: [&'t mut [R]; FIELD_COLUMNS],
    ) -> [&'t [R]; FIELD_COLUMNS] {
        (**self).field_columns(base, xs, ys, zs, time, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boris::BorisPusher;
    use pic_fields::{DipoleStandingWave, UniformFields};
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
    use pic_particles::init::{fill_sphere_at_rest, SphereDist};
    use pic_particles::{AosEnsemble, ParticleAccess, ParticleStore, SoaEnsemble, SpeciesTable};

    fn bench_ensemble<S: ParticleStore<f64>>(n: usize) -> S {
        let mut s = S::default();
        fill_sphere_at_rest(
            &mut s,
            n,
            &SphereDist {
                center: Vec3::zero(),
                radius: 0.6 * BENCH_WAVELENGTH,
            },
            1.0,
            SpeciesTable::<f64>::ELECTRON,
            77,
        );
        s
    }

    #[test]
    fn aos_and_soa_trajectories_are_bitwise_identical() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let dt = 0.01 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;

        let mut aos: AosEnsemble<f64> = bench_ensemble(200);
        let mut soa: SoaEnsemble<f64> = bench_ensemble(200);

        let mut ka = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        let mut ks = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        for _ in 0..20 {
            aos.for_each_mut(&mut ka);
            ka.advance_time();
            soa.for_each_mut(&mut ks);
            ks.advance_time();
        }
        for i in 0..aos.len() {
            assert_eq!(aos.get(i), soa.get(i), "particle {i} diverged");
        }
    }

    #[test]
    fn precalculated_source_reads_by_global_index() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let mut pre = PrecalculatedFields::<f64>::zeros(3);
        pre.set(2, EB::new(Vec3::new(1e-2, 0.0, 0.0), Vec3::zero()));
        let mut kernel =
            PushKernel::new(PrecalculatedSource::new(&pre), BorisPusher, &table, 1e-13);
        let mut ens: AosEnsemble<f64> = bench_ensemble(3);
        ens.for_each_mut(&mut kernel);
        // Only particle 2 sees a nonzero field.
        assert_eq!(ens.get(0).momentum, Vec3::zero());
        assert_eq!(ens.get(1).momentum, Vec3::zero());
        assert!(ens.get(2).momentum.x != 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn over_columns_rejects_ragged_columns() {
        let (long, short) = ([0.0f64; 3], [0.0f64; 2]);
        let cols: [&[f64]; FIELD_COLUMNS] = [&long, &short, &long, &long, &long, &long];
        let _ = PrecalculatedSource::over_columns(cols);
    }

    #[test]
    fn precalculated_equals_analytical_when_fields_frozen() {
        // If the precalculated array is built from the sampler at t = t0
        // and the analytical kernel is also held at t0, one step must agree
        // exactly.
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let t0 = 0.3 / BENCH_OMEGA;
        let dt = 1e-16;

        let mut a: SoaEnsemble<f64> = bench_ensemble(100);
        let mut b: SoaEnsemble<f64> = bench_ensemble(100);

        let positions: Vec<Vec3<f64>> = (0..a.len()).map(|i| a.get(i).position).collect();
        let pre = PrecalculatedFields::from_sampler(&wave, positions, t0);

        let mut ka = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        ka.set_time(t0);
        a.for_each_mut(&mut ka);

        let mut kb = PushKernel::new(PrecalculatedSource::new(&pre), BorisPusher, &table, dt);
        kb.set_time(t0);
        b.for_each_mut(&mut kb);

        for i in 0..a.len() {
            assert_eq!(a.get(i), b.get(i), "particle {i}");
        }
    }

    #[test]
    fn shared_kernel_reconstructs_state() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let field = UniformFields::<f64>::electric(Vec3::new(1e-2, 0.0, 0.0));
        let source = AnalyticalSource::new(field);
        let shared = SharedPushKernel {
            source: &source,
            pusher: BorisPusher,
            table: &table,
            dt: 1e-13,
            time: 5e-13,
        };
        let k = shared.to_kernel();
        assert_eq!(k.time(), 5e-13);
        assert_eq!(k.dt(), 1e-13);
    }

    #[test]
    fn time_advances_per_sweep() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let source = AnalyticalSource::new(UniformFields::<f64>::default());
        let mut k = PushKernel::new(source, BorisPusher, &table, 2.0);
        assert_eq!(k.time(), 0.0);
        k.advance_time();
        k.advance_time();
        assert_eq!(k.time(), 4.0);
    }
}
