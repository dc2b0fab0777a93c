//! The device execution backend: USM staging and roofline-timed
//! execution of the SoA fast path (ROADMAP item 2).
//!
//! [`DeviceExecutor`] is the subsystem that routes the real benchmark
//! kernels — `SoaBorisKernel::apply_chunk`, and through its analytical
//! field source `BatchSampler::sample_into` — behind the device
//! abstractions this crate already had:
//!
//! 1. particle columns and precalculated field blocks are **staged**
//!    through [`UsmBuffer`]s (shared allocations on GPUs, host
//!    allocations on the CPU), with every byte accounted in a
//!    [`UsmLedger`];
//! 2. each kernel launch returns an [`Event`] carrying its measured and
//!    modeled time, in submission order — one in-order queue, the shape
//!    the paper's port uses;
//! 3. execution is **functional**: the kernel runs on the host over the
//!    staged columns, bitwise-identical to the host sweep, while the
//!    reported time comes from the `pic-perfmodel` GPU roofline (EU
//!    count, bandwidth, per-layout coalescing efficiency, JIT
//!    first-launch penalty) — the hardware-substitution contract of
//!    DESIGN.md §2.
//!
//! The staging round trip is bitwise-lossless by construction: columns
//! are copied verbatim, the chunk view starts at global index 0 (so
//! per-particle precalculated field tables stay aligned), and the SoA
//! kernel is already proven bitwise-equal to the scalar reference.

use crate::clock::Stopwatch;
use crate::device::{Backend, Device};
use crate::event::Event;
use crate::usm::{AllocKind, UsmBuffer};
use pic_boris::{FieldSource, SoaBorisKernel};
use pic_fields::{PrecalculatedFields, FIELD_COLUMNS};
use pic_math::Real;
use pic_particles::columns::REAL_COLUMNS;
use pic_particles::{
    Layout, Particle, ParticleAccess, ParticleColumns, ParticleKernel, SoaChunkMut, SpeciesId,
};
use pic_perfmodel::{Precision, Scenario};
use std::cell::Cell;
use std::rc::Rc;

/// What a launched sweep does, for the performance model: which
/// benchmark scenario, which data layout, which precision.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct SweepProfile {
    /// Field scenario (Precalculated / Analytical).
    pub scenario: Scenario,
    /// Particle data layout.
    pub layout: Layout,
    /// Floating-point precision.
    pub precision: Precision,
}

impl SweepProfile {
    /// Creates a profile.
    pub fn new(scenario: Scenario, layout: Layout, precision: Precision) -> SweepProfile {
        SweepProfile {
            scenario,
            layout,
            precision,
        }
    }
}

/// USM allocation/free accounting for one executor: every staged buffer
/// records its allocation here and its release on drop, so tests can
/// assert the backend neither leaks nor double-frees device memory.
#[derive(Debug, Default)]
pub struct UsmLedger {
    allocs: Cell<usize>,
    frees: Cell<usize>,
    live_bytes: Cell<usize>,
    peak_bytes: Cell<usize>,
}

impl UsmLedger {
    /// A fresh ledger with nothing allocated.
    pub fn new() -> UsmLedger {
        UsmLedger::default()
    }

    /// Records one allocation of `bytes`.
    pub fn record_alloc(&self, bytes: usize) {
        self.allocs.set(self.allocs.get() + 1);
        let live = self.live_bytes.get() + bytes;
        self.live_bytes.set(live);
        self.peak_bytes.set(self.peak_bytes.get().max(live));
    }

    /// Records one free of `bytes`.
    pub fn record_free(&self, bytes: usize) {
        self.frees.set(self.frees.get() + 1);
        self.live_bytes
            .set(self.live_bytes.get().saturating_sub(bytes));
    }

    /// Allocations recorded so far.
    pub fn allocs(&self) -> usize {
        self.allocs.get()
    }

    /// Frees recorded so far.
    pub fn frees(&self) -> usize {
        self.frees.get()
    }

    /// Bytes currently allocated.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.get()
    }

    /// High-water mark of live bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.get()
    }

    /// `true` when every allocation has been matched by a free and no
    /// bytes remain live.
    pub fn balanced(&self) -> bool {
        self.allocs.get() == self.frees.get() && self.live_bytes.get() == 0
    }
}

/// The particle columns of one ensemble, staged through USM buffers in
/// SoA form: the column set of [`pic_particles::columns`] over
/// [`UsmBuffer`]s, plus its ledger entry. Works for *both* source
/// layouts — staging reads through [`ParticleAccess::get`], so an AoS
/// ensemble is transposed into columns on upload and transposed back on
/// [`write_back`](Self::write_back) — which is exactly how the device
/// backend gives the AoS layout its (coalescing-penalized) device path.
#[derive(Debug)]
pub struct StagedEnsemble<R> {
    cols: ParticleColumns<UsmBuffer<R>, UsmBuffer<SpeciesId>>,
    bytes: usize,
    ledger: Rc<UsmLedger>,
}

impl<R: Real> StagedEnsemble<R> {
    /// Number of staged particles.
    pub fn len(&self) -> usize {
        self.cols.species.len()
    }

    /// `true` when no particles are staged.
    pub fn is_empty(&self) -> bool {
        self.cols.species.is_empty()
    }

    /// Total host↔device migrations across the nine component buffers
    /// (shared allocations only).
    pub fn migrations(&self) -> usize {
        let reals = self.cols.reals.iter().map(UsmBuffer::migrations);
        reals.sum::<usize>() + self.cols.species.migrations()
    }

    /// A full-span chunk view over the staged columns (global base 0),
    /// ready for [`DeviceExecutor::execute_chunk`]. Device-side access:
    /// shared buffers migrate to the device on first touch.
    pub fn chunk_mut(&mut self) -> SoaChunkMut<'_, R> {
        let cols = self
            .cols
            .each_column_mut(UsmBuffer::device_mut, UsmBuffer::device_mut);
        SoaChunkMut::from_columns(0, cols)
    }

    /// Copies the staged particles back into `store` (host-side access;
    /// shared buffers migrate back). `store` must have the same length
    /// the columns were staged from.
    ///
    /// # Panics
    ///
    /// Panics when `store.len()` differs from the staged length.
    pub fn write_back<A: ParticleAccess<R>>(&self, store: &mut A) {
        assert_eq!(
            store.len(),
            self.len(),
            "write_back: store length changed since staging"
        );
        let host = self.cols.each_column(UsmBuffer::host, UsmBuffer::host);
        for i in 0..store.len() {
            store.set(i, &Particle::from_row(host.row_at(i)));
        }
    }
}

impl<R> Drop for StagedEnsemble<R> {
    fn drop(&mut self) {
        self.ledger.record_free(self.bytes);
    }
}

/// A precalculated field block staged through USM buffers, one buffer
/// per component column.
#[derive(Debug)]
pub struct StagedFields<R> {
    cols: [UsmBuffer<R>; FIELD_COLUMNS],
    bytes: usize,
    ledger: Rc<UsmLedger>,
}

impl<R: Real> StagedFields<R> {
    /// Number of staged field values (one per particle).
    pub fn len(&self) -> usize {
        // bounds: constant index into `[_; FIELD_COLUMNS]`.
        self.cols[0].len()
    }

    /// `true` when no field values are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The staged component columns as the device sees them — what
    /// `PrecalculatedSource::over_columns` reads, so a kernel samples
    /// exactly the values that were staged, without another copy.
    pub fn columns(&self) -> [&[R]; FIELD_COLUMNS] {
        self.cols.each_ref().map(UsmBuffer::device)
    }
}

impl<R> Drop for StagedFields<R> {
    fn drop(&mut self) {
        self.ledger.record_free(self.bytes);
    }
}

/// The device execution backend (see the module docs for the contract).
///
/// # Example
///
/// ```
/// use pic_device::{Device, DeviceExecutor, SweepProfile};
/// use pic_boris::{AnalyticalSource, SoaBorisKernel};
/// use pic_fields::UniformFields;
/// use pic_math::Vec3;
/// use pic_particles::{Layout, Particle, SoaEnsemble, SpeciesTable};
/// use pic_perfmodel::{Precision, Scenario};
///
/// let mut exec = DeviceExecutor::new(Device::p630());
/// let mut ens: SoaEnsemble<f32> = (0..64).map(|_| Particle::default()).collect();
/// let mut staged = exec.stage_ensemble(&ens);
/// let field = UniformFields::magnetic(Vec3::new(0.0, 0.0, 1.0));
/// let source = AnalyticalSource::new(field);
/// let table = SpeciesTable::<f32>::with_standard_species();
/// let kernel = SoaBorisKernel::new(&source, &table, 1e-12, 0.0);
/// let profile = SweepProfile::new(Scenario::Analytical, Layout::Soa, Precision::F32);
/// let e = exec.launch_boris(&mut staged, kernel, profile);
/// assert!(e.first_launch && e.modeled_ns.is_some());
/// staged.write_back(&mut ens);
/// ```
#[derive(Debug)]
pub struct DeviceExecutor {
    device: Device,
    /// Kernel launches so far: the first pays the JIT factor.
    launches: usize,
    ledger: Rc<UsmLedger>,
}

impl DeviceExecutor {
    /// A cold (un-JITted) executor bound to `device`.
    pub fn new(device: Device) -> DeviceExecutor {
        DeviceExecutor {
            device,
            launches: 0,
            ledger: Rc::new(UsmLedger::new()),
        }
    }

    /// The bound device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The USM allocation ledger shared with every staged buffer.
    pub fn ledger(&self) -> &Rc<UsmLedger> {
        &self.ledger
    }

    /// USM allocation kind for this device: shared (migrating)
    /// allocations on GPUs, plain host allocations on the CPU.
    pub fn alloc_kind(&self) -> AllocKind {
        if self.device.is_gpu() {
            AllocKind::Shared
        } else {
            AllocKind::Host
        }
    }

    /// Stages the particle columns of `store` through USM buffers
    /// (ledger-accounted).
    pub fn stage_ensemble<R: Real, A: ParticleAccess<R>>(
        &mut self,
        store: &A,
    ) -> StagedEnsemble<R> {
        let kind = self.alloc_kind();
        let n = store.len();
        let mut host = ParticleColumns::<Vec<R>, Vec<SpeciesId>>::default();
        host.reserve_rows(n);
        for i in 0..n {
            host.push_row(store.get(i).to_row());
        }
        let bytes = REAL_COLUMNS * n * R::BYTES + n * std::mem::size_of::<SpeciesId>();
        self.ledger.record_alloc(bytes);
        StagedEnsemble {
            cols: ParticleColumns {
                reals: host.reals.map(|c| UsmBuffer::from_vec(kind, c)),
                species: UsmBuffer::from_vec(kind, host.species),
            },
            bytes,
            ledger: Rc::clone(&self.ledger),
        }
    }

    /// Stages a precalculated field block through USM buffers
    /// (ledger-accounted).
    pub fn stage_fields<R: Real>(&mut self, pre: &PrecalculatedFields<R>) -> StagedFields<R> {
        let kind = self.alloc_kind();
        let bytes = pre.memory_bytes();
        self.ledger.record_alloc(bytes);
        StagedFields {
            cols: pre.columns().map(|c| UsmBuffer::from_vec(kind, c.to_vec())),
            bytes,
            ledger: Rc::clone(&self.ledger),
        }
    }

    /// Launches one Boris sweep over the staged columns: functional
    /// execution on the host (bitwise-identical to the host sweep),
    /// timing from the GPU roofline model on GPU devices — with the
    /// first launch of this executor paying the JIT factor (§5.3) —
    /// and measured wall time on the host device.
    pub fn launch_boris<R: Real, F: FieldSource<R>>(
        &mut self,
        staged: &mut StagedEnsemble<R>,
        kernel: SoaBorisKernel<'_, R, F>,
        profile: SweepProfile,
    ) -> Event {
        let n = staged.len();
        let first_launch = self.launches == 0;
        let watch = Stopwatch::start();
        {
            let mut kernel = kernel;
            let mut chunk = staged.chunk_mut();
            self.execute_chunk(&mut kernel, &mut chunk);
        }
        let modeled_ns = match self.device.backend() {
            Backend::HostCpu => None,
            Backend::SimulatedGpu { model } => {
                let steady = model.nsps(profile.scenario, profile.layout, profile.precision);
                let factor = if first_launch {
                    model.cal.first_iteration_factor
                } else {
                    1.0
                };
                Some(steady * factor * n as f64)
            }
        };
        self.launches += 1;
        Event {
            device: self.device.name().to_string(),
            wall: watch.elapsed(),
            modeled_ns,
            particles: n,
            first_launch,
        }
    }

    /// The hot path: functionally executes one staged chunk with the
    /// SoA Boris kernel. This is a pic-analyze purity root — nothing
    /// reachable from here may allocate, lock, or perform IO.
    pub fn execute_chunk<R: Real, F: FieldSource<R>>(
        &self,
        kernel: &mut SoaBorisKernel<'_, R, F>,
        chunk: &mut SoaChunkMut<'_, R>,
    ) {
        kernel.apply_chunk(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_boris::AnalyticalSource;
    use pic_fields::UniformFields;
    use pic_math::Vec3;
    use pic_particles::{AosEnsemble, ParticleStore, SoaEnsemble, SpeciesTable};

    fn ensemble<S: ParticleStore<f32> + Default>(n: usize) -> S {
        let mut s = S::default();
        for i in 0..n {
            s.push(Particle::at_rest(
                Vec3::new(i as f32 * 1e-4, 0.0, 0.0),
                1.0,
                SpeciesId(0),
            ));
        }
        s
    }

    fn profile() -> SweepProfile {
        SweepProfile::new(Scenario::Analytical, Layout::Soa, Precision::F32)
    }

    #[test]
    fn ledger_accounts_every_staged_buffer_and_balances_on_drop() {
        let mut exec = DeviceExecutor::new(Device::p630());
        let ens: SoaEnsemble<f32> = ensemble(100);
        let pre = PrecalculatedFields::<f32>::zeros(100);
        {
            let staged = exec.stage_ensemble(&ens);
            let fields = exec.stage_fields(&pre);
            assert_eq!(exec.ledger().allocs(), 2);
            assert_eq!(exec.ledger().frees(), 0);
            // 8 f32 columns + 2-byte species, plus 6 f32 field columns.
            assert_eq!(exec.ledger().live_bytes(), 100 * (8 * 4 + 2) + 100 * 6 * 4);
            assert_eq!(staged.len(), 100);
            assert_eq!(fields.len(), 100);
        }
        assert!(exec.ledger().balanced(), "drop must free every byte");
        assert_eq!(exec.ledger().frees(), 2);
        assert_eq!(exec.ledger().peak_bytes(), 100 * (8 * 4 + 2) + 100 * 6 * 4);
    }

    #[test]
    fn staging_round_trips_both_layouts_bitwise() {
        // 37 = two blocks of the kernel's 16 lanes and a tail; every column
        // distinct, with the values `==` would blur (-0.0) or refuse (NaN).
        fn distinct<S: ParticleStore<f32>>() -> S {
            let mut s: S = ensemble(37);
            for i in 0..37 {
                let mut p = s.get(i);
                p.momentum = Vec3::new(-0.0, f32::from_bits(0x7fc0_0000 + i as u32), 0.5);
                p.weight = 2.0 + i as f32;
                p.gamma = f32::MIN_POSITIVE / 4.0;
                p.species = SpeciesId(i as u16 % 3);
                s.set(i, &p);
            }
            s
        }
        fn round_trip<S: ParticleStore<f32>>(exec: &mut DeviceExecutor) {
            let source: S = distinct();
            let staged = exec.stage_ensemble(&source);
            let mut back: S = ensemble(37);
            back.set(36, &Particle::default());
            staged.write_back(&mut back);
            for i in 0..37 {
                let (want, got) = (source.get(i).to_row(), back.get(i).to_row());
                assert_eq!(got.0.map(f32::to_bits), want.0.map(f32::to_bits), "{i}");
                assert_eq!(got.1, want.1, "{i}");
            }
        }
        let mut exec = DeviceExecutor::new(Device::iris_xe_max());
        round_trip::<AosEnsemble<f32>>(&mut exec);
        round_trip::<SoaEnsemble<f32>>(&mut exec);
    }

    #[test]
    fn host_executor_measures_wall_time_instead_of_model() {
        let mut exec = DeviceExecutor::new(Device::host_default());
        let ens: SoaEnsemble<f32> = ensemble(32);
        let mut staged = exec.stage_ensemble(&ens);
        assert_eq!(exec.alloc_kind(), AllocKind::Host);
        let field = UniformFields::magnetic(Vec3::new(0.0, 0.0, 1.0));
        let source = AnalyticalSource::new(field);
        let table = SpeciesTable::<f32>::with_standard_species();
        let e = exec.launch_boris(
            &mut staged,
            SoaBorisKernel::new(&source, &table, 1e-12, 0.0),
            profile(),
        );
        assert!(e.modeled_ns.is_none());
        assert_eq!(e.particles, 32);
    }

    #[test]
    fn shared_buffers_migrate_between_launch_and_write_back() {
        let mut exec = DeviceExecutor::new(Device::p630());
        let mut ens: SoaEnsemble<f32> = ensemble(16);
        let mut staged = exec.stage_ensemble(&ens);
        assert_eq!(exec.alloc_kind(), AllocKind::Shared);
        let field = UniformFields::magnetic(Vec3::new(0.0, 0.0, 1.0));
        let source = AnalyticalSource::new(field);
        let table = SpeciesTable::<f32>::with_standard_species();
        exec.launch_boris(
            &mut staged,
            SoaBorisKernel::new(&source, &table, 1e-12, 0.0),
            profile(),
        );
        // Launch migrated all nine columns host -> device...
        assert_eq!(staged.migrations(), 9);
        staged.write_back(&mut ens);
        // ...and write-back migrated them all back.
        assert_eq!(staged.migrations(), 18);
    }

    #[test]
    fn staged_fields_are_the_table_bit_for_bit() {
        let mut exec = DeviceExecutor::new(Device::p630());
        let mut pre = PrecalculatedFields::<f64>::zeros(5);
        pre.set(
            3,
            pic_fields::EB::new(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, -0.0)),
        );
        let staged = exec.stage_fields(&pre);
        let bits = |cols: [&[f64]; FIELD_COLUMNS]| {
            cols.map(|c| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(staged.columns()), bits(pre.columns()));
        assert!(!staged.is_empty());
    }
}
