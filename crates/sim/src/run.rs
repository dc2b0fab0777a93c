//! The shared m-dipole step runner: Table-2 workload wiring in one place.
//!
//! Both entry points into the benchmark physics — the one-shot harness
//! (`measure_nsps` / `reproduce`) and the `pic-serve` job service — drive
//! the same scenario: electrons in the 0.1 PW standing m-dipole wave,
//! pushed by the Boris kernel under a chosen schedule. This module owns
//! that wiring so the paper's §5.2 parameters exist exactly once.
//!
//! The Precalculated scenario samples the fields at the *initial*
//! particle positions, once, in [`MdipoleScenario::prepare`] — outside
//! any timed or deadline-checked region — mirroring the paper's setup
//! where scenario 1 "excludes all operations from measurements except
//! for particle motion".

use crate::scenario::{bench_dt, dipole_wave, setup_chunk_len};
use pic_boris::soa_boris::LANES;
use pic_boris::{
    AnalyticalSource, BorisPusher, FieldSource, PrecalculatedSource, SharedPushKernel,
    SoaBorisKernel,
};
use pic_fields::{BatchSampler, DipoleStandingWave, PrecalculatedFields};
use pic_math::Real;
use pic_particles::columns::{X, Y, Z};
use pic_particles::{ParticleAccess, SpeciesTable};
use pic_perfmodel::Scenario;
use pic_runtime::{on_static_split, parallel_sweep, CancelToken, Schedule, SweepReport, Topology};
use pic_telemetry::ThreadStat;

/// Which pusher kernel implementation drives the sweep.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub enum KernelVariant {
    /// The per-particle reference kernel (one proxy view per particle) —
    /// the oracle the production kernel is checked against.
    Scalar,
    /// The blocked production kernel of [`pic_boris::soa_boris`]: direct
    /// column slices on SoA stores, view-gathered lanes on AoS stores.
    #[default]
    SoaFast,
}

impl KernelVariant {
    /// Telemetry name, stored in `BenchRecord::kernel_variant`.
    pub fn name(&self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::SoaFast => "soa-fast",
        }
    }

    /// Every variant, in comparison order.
    pub fn all() -> [KernelVariant; 2] {
        [KernelVariant::Scalar, KernelVariant::SoaFast]
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Field context for the benchmark workload, built once per run (in the
/// serving layer, once per execution of a job) and reused across every
/// step.
pub enum MdipoleScenario<R: Real> {
    /// Fields evaluated analytically at each particle position (paper
    /// scenario 2).
    Analytical(AnalyticalSource<DipoleStandingWave<R>>),
    /// Fields sampled once per particle at preparation time (paper
    /// scenario 1).
    Precalculated(PrecalculatedFields<R>),
}

impl<R: Real> MdipoleScenario<R> {
    /// [`prepare_on`](Self::prepare_on) over the host's threads
    /// (`Topology::default()`).
    pub fn prepare<A: ParticleAccess<R>>(scenario: Scenario, store: &A) -> MdipoleScenario<R> {
        MdipoleScenario::prepare_on(scenario, store, &Topology::default())
    }

    /// Builds the field context for `scenario` from `store`'s *current*
    /// positions. For [`Scenario::Precalculated`] this is the expensive
    /// sampling pass; call it before entering any timed region. A store
    /// with columns is sampled one contiguous range per thread of
    /// `topology`, in the static split's order, so each thread writes
    /// the rows of the table it sweeps under [`Schedule::StaticChunks`];
    /// no range is shorter than [`SETUP_PART_ROWS`](crate::SETUP_PART_ROWS), so a small table
    /// starts fewer threads, or none.
    /// A store without columns (AoS) is sampled serially. The table is
    /// the same bits at every thread count.
    pub fn prepare_on<A: ParticleAccess<R>>(
        scenario: Scenario,
        store: &A,
        topology: &Topology,
    ) -> MdipoleScenario<R> {
        let wave = dipole_wave::<R>();
        match scenario {
            Scenario::Analytical => MdipoleScenario::Analytical(AnalyticalSource::new(wave)),
            Scenario::Precalculated => {
                let n = store.len();
                let mut pre = PrecalculatedFields::zeros(n);
                match store.columns() {
                    Some(cols) => {
                        // bounds: constant indices into `[_; REAL_COLUMNS]`;
                        // the runs of the split cover `0..n`.
                        let [xs, ys, zs] = [X, Y, Z].map(|c| cols.reals[c]);
                        let chunk = setup_chunk_len(n, topology);
                        on_static_split(pre.chunks_mut(chunk).collect(), |i, mut out| {
                            let rows = i * chunk..i * chunk + out.ex.len();
                            let (xs, ys) = (&xs[rows.clone()], &ys[rows.clone()]);
                            wave.sample_into(xs, ys, &zs[rows], R::ZERO, &mut out);
                        });
                    }
                    // No columns (AoS): gather a block of positions at a
                    // time, as the kernel's gathered arm does.
                    None => {
                        for (i, mut out) in pre.chunks_mut(LANES).enumerate() {
                            let mut xs = [R::ZERO; LANES];
                            let (mut ys, mut zs) = (xs, xs);
                            let len = out.ex.len();
                            for l in 0..len {
                                let pos = store.get(i * LANES + l).position;
                                (xs[l], ys[l], zs[l]) = (pos.x, pos.y, pos.z);
                            }
                            let (xs, ys, zs) = (&xs[..len], &ys[..len], &zs[..len]);
                            wave.sample_into(xs, ys, zs, R::ZERO, &mut out);
                        }
                    }
                }
                MdipoleScenario::Precalculated(pre)
            }
        }
    }
}

/// What [`run_mdipole_steps`] actually did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MdipoleRun {
    /// Steps fully completed (every particle pushed).
    pub steps_done: usize,
    /// Per-thread totals over the completed portion, indexed by thread id.
    pub thread_stats: Vec<ThreadStat>,
    /// True when the run stopped before `steps` — cancelled, or halted by
    /// the `on_step` callback.
    pub interrupted: bool,
}

/// Advances `store` by up to `steps` pusher steps of the m-dipole
/// benchmark, starting at simulation time `*time` (advanced in place by
/// one `bench_dt` per completed step, so callers can span several calls
/// over one continuous trajectory).
///
/// `cancel`, when provided, is polled between steps; a cancelled run
/// returns with `interrupted = true`. A step, once started, sweeps every
/// particle, so the store always holds `steps_done` whole steps.
/// `on_step` runs after each completed step and returns `false` to stop
/// early — the serving layer uses it for per-job deadline checks.
///
/// `variant` selects the pusher implementation (scalar reference or the
/// blocked production kernel); both integrate bitwise-identical
/// trajectories.
#[allow(clippy::too_many_arguments)]
pub fn run_mdipole_steps<R: Real, A: ParticleAccess<R>>(
    store: &mut A,
    ctx: &MdipoleScenario<R>,
    steps: usize,
    time: &mut R,
    topology: &Topology,
    schedule: Schedule,
    variant: KernelVariant,
    cancel: Option<&CancelToken>,
    on_step: &mut dyn FnMut(usize, &SweepReport) -> bool,
) -> MdipoleRun {
    match ctx {
        MdipoleScenario::Analytical(source) => drive(
            store, source, steps, time, topology, schedule, variant, cancel, on_step,
        ),
        MdipoleScenario::Precalculated(pre) => {
            let source = PrecalculatedSource::new(pre);
            drive(
                store, &source, steps, time, topology, schedule, variant, cancel, on_step,
            )
        }
    }
}

/// Accumulates per-thread totals from `extra` into `totals`, growing
/// `totals` as needed; entries are slotted by thread id.
pub fn merge_thread_stats(
    totals: &mut Vec<ThreadStat>,
    extra: impl IntoIterator<Item = ThreadStat>,
) {
    for t in extra {
        let id = t.thread as usize;
        if totals.len() <= id {
            totals.resize(id + 1, ThreadStat::default());
        }
        let slot = &mut totals[id];
        slot.thread = t.thread;
        slot.domain = t.domain;
        slot.chunks += t.chunks;
        slot.particles += t.particles;
        slot.busy_ns += t.busy_ns;
    }
}

/// One sweep's per-thread accounting as telemetry totals.
fn thread_stats_of(report: &SweepReport) -> impl Iterator<Item = ThreadStat> + '_ {
    report.threads.iter().map(|t| ThreadStat {
        thread: t.thread as u64,
        domain: t.domain as u64,
        chunks: t.chunks as u64,
        particles: t.particles as u64,
        busy_ns: t.busy_ns,
    })
}

#[allow(clippy::too_many_arguments)]
fn drive<R: Real, A: ParticleAccess<R>, F: FieldSource<R>>(
    store: &mut A,
    source: &F,
    steps: usize,
    time: &mut R,
    topology: &Topology,
    schedule: Schedule,
    variant: KernelVariant,
    cancel: Option<&CancelToken>,
    on_step: &mut dyn FnMut(usize, &SweepReport) -> bool,
) -> MdipoleRun {
    let table = SpeciesTable::<R>::with_standard_species();
    let dt = R::from_f64(bench_dt());
    let mut thread_stats: Vec<ThreadStat> = Vec::new();
    let mut steps_done = 0;
    for step in 0..steps {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return MdipoleRun {
                steps_done,
                thread_stats,
                interrupted: true,
            };
        }
        let report = match variant {
            KernelVariant::Scalar => {
                let shared = SharedPushKernel {
                    source,
                    pusher: BorisPusher,
                    table: &table,
                    dt,
                    time: *time,
                };
                parallel_sweep(store, topology, schedule, |_| shared.to_kernel())
            }
            KernelVariant::SoaFast => {
                let (tbl, t) = (&table, *time);
                parallel_sweep(store, topology, schedule, move |_| {
                    SoaBorisKernel::new(source, tbl, dt, t)
                })
            }
        };
        merge_thread_stats(&mut thread_stats, thread_stats_of(&report));
        *time += dt;
        steps_done = step + 1;
        if !on_step(step, &report) {
            return MdipoleRun {
                steps_done,
                thread_stats,
                interrupted: steps_done < steps,
            };
        }
    }
    MdipoleRun {
        steps_done,
        thread_stats,
        interrupted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::build_ensemble;
    use pic_particles::{AosEnsemble, SoaEnsemble};

    #[test]
    fn runner_completes_all_steps_and_advances_time() {
        for scenario in Scenario::all() {
            for variant in KernelVariant::all() {
                let mut store: SoaEnsemble<f32> = build_ensemble(500, 3);
                let ctx = MdipoleScenario::prepare(scenario, &store);
                let mut time = 0.0f32;
                let run = run_mdipole_steps(
                    &mut store,
                    &ctx,
                    4,
                    &mut time,
                    &Topology::single(2),
                    Schedule::dynamic(),
                    variant,
                    None,
                    &mut |_, _| true,
                );
                assert_eq!(run.steps_done, 4, "{scenario} {variant}");
                assert!(!run.interrupted);
                let pushed: u64 = run.thread_stats.iter().map(|t| t.particles).sum();
                assert_eq!(pushed, 500 * 4);
                assert!((time - 4.0 * bench_dt() as f32).abs() < 1e-3 * bench_dt() as f32);
            }
        }
    }

    /// Block-wise `prepare` equals per-particle `sample(pos, 0)` bit for
    /// bit, on a store with columns and one without, with a ragged tail.
    #[test]
    fn prepared_fields_equal_per_particle_sampling() {
        use pic_fields::FieldSampler;
        fn check<R: Real, S: ParticleAccess<R>>(store: S) {
            assert!(store.len() % LANES != 0, "the tail must be covered");
            let MdipoleScenario::Precalculated(pre) =
                MdipoleScenario::prepare(Scenario::Precalculated, &store)
            else {
                panic!("prepare(Precalculated) built another scenario");
            };
            assert_eq!(pre.len(), store.len());
            let wave = dipole_wave::<R>();
            let bits = |v: R| v.to_f64().to_bits();
            for i in 0..store.len() {
                let (got, want) = (pre.get(i), wave.sample(store.get(i).position, R::ZERO));
                assert_eq!(
                    [got.e.x, got.e.y, got.e.z, got.b.x, got.b.y, got.b.z].map(bits),
                    [want.e.x, want.e.y, want.e.z, want.b.x, want.b.y, want.b.z].map(bits),
                    "particle {i}"
                );
            }
        }
        check(build_ensemble::<f32, SoaEnsemble<f32>>(1003, 5));
        check(build_ensemble::<f64, SoaEnsemble<f64>>(1003, 5));
        check(build_ensemble::<f32, AosEnsemble<f32>>(1003, 5));
        check(build_ensemble::<f64, AosEnsemble<f64>>(29, 5));
    }

    #[test]
    fn variants_agree_on_the_same_trajectories() {
        let run_with = |variant: KernelVariant| -> SoaEnsemble<f64> {
            let mut store: SoaEnsemble<f64> = build_ensemble(100, 11);
            let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
            let mut time = 0.0f64;
            run_mdipole_steps(
                &mut store,
                &ctx,
                5,
                &mut time,
                &Topology::single(2),
                Schedule::dynamic(),
                variant,
                None,
                &mut |_, _| true,
            );
            store
        };
        let scalar = run_with(KernelVariant::Scalar);
        let fast = run_with(KernelVariant::SoaFast);
        for i in 0..100 {
            assert_eq!(scalar.get(i), fast.get(i), "particle {i}");
        }
    }

    #[test]
    fn runner_matches_direct_sweeps_between_layouts() {
        let mut aos: AosEnsemble<f64> = build_ensemble(200, 9);
        let mut soa: SoaEnsemble<f64> = build_ensemble(200, 9);
        let ctx_a = MdipoleScenario::prepare(Scenario::Analytical, &aos);
        let ctx_s = MdipoleScenario::prepare(Scenario::Analytical, &soa);
        let (mut ta, mut ts) = (0.0f64, 0.0f64);
        run_mdipole_steps(
            &mut aos,
            &ctx_a,
            3,
            &mut ta,
            &Topology::single(1),
            Schedule::StaticChunks,
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        run_mdipole_steps(
            &mut soa,
            &ctx_s,
            3,
            &mut ts,
            &Topology::uniform(2, 2),
            Schedule::numa(),
            KernelVariant::SoaFast,
            None,
            &mut |_, _| true,
        );
        for i in 0..200 {
            assert_eq!(aos.get(i), soa.get(i), "particle {i}");
        }
    }

    #[test]
    fn precancelled_runner_does_nothing() {
        let mut store: AosEnsemble<f32> = build_ensemble(100, 1);
        let ctx = MdipoleScenario::prepare(Scenario::Precalculated, &store);
        let token = CancelToken::new();
        token.cancel();
        let mut time = 0.0f32;
        let run = run_mdipole_steps(
            &mut store,
            &ctx,
            5,
            &mut time,
            &Topology::single(1),
            Schedule::StaticChunks,
            KernelVariant::default(),
            Some(&token),
            &mut |_, _| true,
        );
        assert_eq!(run.steps_done, 0);
        assert!(run.interrupted);
        assert_eq!(time, 0.0);
        let fresh: AosEnsemble<f32> = build_ensemble(100, 1);
        for i in 0..100 {
            assert_eq!(store.get(i), fresh.get(i), "particle {i} was pushed");
        }
    }

    #[test]
    fn on_step_false_stops_the_run_early() {
        let mut store: SoaEnsemble<f64> = build_ensemble(100, 5);
        let ctx = MdipoleScenario::prepare(Scenario::Analytical, &store);
        let mut time = 0.0f64;
        let run = run_mdipole_steps(
            &mut store,
            &ctx,
            10,
            &mut time,
            &Topology::single(1),
            Schedule::StaticChunks,
            KernelVariant::default(),
            None,
            &mut |step, _| step < 2,
        );
        assert_eq!(run.steps_done, 3, "stops after the step that said no");
        assert!(run.interrupted);
    }

    #[test]
    fn merge_thread_stats_accumulates_and_grows() {
        let mut totals = Vec::new();
        let a = [ThreadStat {
            thread: 0,
            domain: 0,
            chunks: 2,
            particles: 10,
            busy_ns: 5,
        }];
        let b = [
            ThreadStat {
                thread: 0,
                domain: 0,
                chunks: 1,
                particles: 4,
                busy_ns: 2,
            },
            ThreadStat {
                thread: 1,
                domain: 1,
                chunks: 3,
                particles: 6,
                busy_ns: 9,
            },
        ];
        merge_thread_stats(&mut totals, a);
        merge_thread_stats(&mut totals, b);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].particles, 14);
        assert_eq!(totals[0].chunks, 3);
        assert_eq!(totals[1].domain, 1);
        assert_eq!(totals[1].busy_ns, 9);
    }
}
