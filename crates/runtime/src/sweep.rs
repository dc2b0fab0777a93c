//! The parallel particle sweep.

use crate::schedule::Schedule;
use crate::sync::{join_or_propagate, lock};
use crate::topology::Topology;
use pic_math::Real;
use pic_particles::{ParticleAccess, ParticleKernel};
use std::sync::Mutex;
use std::vec;

/// Per-thread accounting of one sweep.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct ThreadReport {
    /// Global thread id.
    pub thread: usize,
    /// NUMA domain the thread belongs to.
    pub domain: usize,
    /// Work items (grains/blocks) this thread executed.
    pub chunks: usize,
    /// Particles this thread processed.
    pub particles: usize,
    /// Wall time this thread spent inside kernel work, nanoseconds.
    pub busy_ns: u64,
}

/// Load imbalance of per-thread amounts of work (particles, busy time):
/// the busiest thread's amount divided by the mean, so 1.0 is perfectly
/// balanced. Fewer than two threads, or no work at all, have no
/// imbalance to speak of and give 0.0 — never NaN — so the figure stays
/// safe to emit per batch. This is the one definition behind
/// [`SweepReport::imbalance`], the bench harness's run totals and the
/// served job report (`BenchRecord::imbalance` states the convention).
pub fn imbalance_of(amounts: impl IntoIterator<Item = u64>) -> f64 {
    let (mut threads, mut total, mut max) = (0u64, 0u64, 0u64);
    for amount in amounts {
        threads += 1;
        total += amount;
        max = max.max(amount);
    }
    if threads <= 1 || total == 0 {
        return 0.0;
    }
    max as f64 / (total as f64 / threads as f64)
}

/// Accounting of one sweep across all threads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepReport {
    /// One entry per worker thread, ordered by thread id.
    pub threads: Vec<ThreadReport>,
}

impl SweepReport {
    /// Total particles processed (must equal the ensemble size).
    pub fn total_particles(&self) -> usize {
        self.threads.iter().map(|t| t.particles).sum()
    }

    /// Total work items executed.
    pub fn total_chunks(&self) -> usize {
        self.threads.iter().map(|t| t.chunks).sum()
    }

    /// Particle-count load imbalance ([`imbalance_of`]).
    pub fn imbalance(&self) -> f64 {
        imbalance_of(self.threads.iter().map(|t| t.particles as u64))
    }

    /// Total kernel busy time across all threads, nanoseconds.
    pub fn total_busy_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.busy_ns).sum()
    }

    /// Busy-time load imbalance ([`imbalance_of`]; 0.0 when no busy time
    /// was recorded).
    pub fn time_imbalance(&self) -> f64 {
        imbalance_of(self.threads.iter().map(|t| t.busy_ns))
    }

    /// Merges per-shard imbalance metrics into one job-level figure,
    /// weighting each shard by its particle count — a plain mean would
    /// let a tiny tail shard's imbalance count as much as a full-size
    /// shard's. `shards` holds `(particles, imbalance)` pairs.
    ///
    /// Degenerate-input hygiene, matching [`imbalance`](Self::imbalance):
    /// an empty or zero-particle set merges to 0.0 (never NaN), and a
    /// single shard merges to *exactly* its own value — the unsharded
    /// figure — with no arithmetic applied.
    pub fn merge_shard_imbalance(shards: &[(usize, f64)]) -> f64 {
        if let [(_, only)] = shards {
            return *only;
        }
        let total: usize = shards.iter().map(|s| s.0).sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: f64 = shards.iter().map(|&(n, imb)| imb * n as f64).sum();
        weighted / total as f64
    }
}

/// Times `f`, returning its wall time in nanoseconds alongside its
/// output.
#[inline]
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as u64, out)
}

/// Applies a kernel to every particle under the given schedule.
///
/// `kernel_factory(tid)` builds each worker thread's private kernel
/// (kernels are stateful — `apply` takes `&mut self` — so they cannot be
/// shared). Worker `tid` belongs to NUMA domain `topology.domain_of(tid)`.
///
/// Under [`Schedule::NumaDomains`] the particle range is partitioned into
/// per-domain contiguous sections proportional to domain thread counts,
/// and threads only execute grains of their own section — the runtime
/// analogue of `DPCPP_CPU_PLACES=numa_domains` (paper §4.3).
///
/// # Example
///
/// ```
/// use pic_particles::{AosEnsemble, Particle, ParticleStore, ParticleAccess, DynKernel,
///                     ParticleView};
/// use pic_runtime::{parallel_sweep, Schedule, Topology};
///
/// let mut ens = AosEnsemble::<f64>::from_particles(
///     (0..100).map(|_| Particle::default()));
/// let report = parallel_sweep(
///     &mut ens,
///     &Topology::uniform(2, 2),
///     Schedule::dynamic(),
///     |_tid| DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
///         let w = v.weight();
///         v.set_weight(w + 1.0);
///     }),
/// );
/// assert_eq!(report.total_particles(), 100);
/// assert_eq!(ens.get(42).weight, 1.0);
/// ```
pub fn parallel_sweep<R, A, K, F>(
    store: &mut A,
    topology: &Topology,
    schedule: Schedule,
    kernel_factory: F,
) -> SweepReport
where
    R: Real,
    A: ParticleAccess<R>,
    K: ParticleKernel<R> + Send,
    F: Fn(usize) -> K + Sync,
{
    let n = store.len();
    let threads = topology.total_threads();

    // Serial fast path: one thread, no queues, no spawning.
    if threads == 1 {
        let mut kernel = kernel_factory(0);
        let (busy_ns, ()) = timed(|| kernel.apply_chunk(store));
        return SweepReport {
            threads: vec![ThreadReport {
                thread: 0,
                domain: 0,
                chunks: 1,
                particles: n,
                busy_ns,
            }],
        };
    }

    match schedule {
        Schedule::StaticChunks => {
            let chunks = store.split_mut(static_chunk_len(n, topology));
            let mut reports = on_static_split(chunks, |tid, mut chunk| {
                let mut kernel = kernel_factory(tid);
                let (busy_ns, ()) = timed(|| kernel.apply_chunk(&mut chunk));
                ThreadReport {
                    thread: tid,
                    domain: topology.domain_of(tid),
                    chunks: 1,
                    particles: chunk.len(),
                    busy_ns,
                }
            });
            // Threads beyond the chunk count did no work but still appear.
            for tid in reports.len()..threads {
                reports.push(ThreadReport {
                    thread: tid,
                    domain: topology.domain_of(tid),
                    ..ThreadReport::default()
                });
            }
            SweepReport { threads: reports }
        }

        Schedule::Dynamic { grain } | Schedule::NumaDomains { grain } => {
            let numa = matches!(schedule, Schedule::NumaDomains { .. });
            let grain = Schedule::resolve_grain(grain, n, threads);
            let mut chunks = store.split_mut(grain);
            // One queue for every thread, or one per domain holding a
            // contiguous run of grains in proportion to its threads. Each
            // hands out its grains in index order.
            let shares = if numa {
                topology.partition_items(chunks.len())
            } else {
                vec![chunks.len()]
            };
            let queues: Vec<Mutex<vec::IntoIter<A::ChunkMut<'_>>>> = shares
                .iter()
                .map(|&share| Mutex::new(chunks.drain(..share).collect::<Vec<_>>().into_iter()))
                .collect();
            debug_assert!(chunks.is_empty());
            run_queued(topology, &kernel_factory, |domain| {
                queues.get(if numa { domain } else { 0 })
            })
        }
    }
}

/// Length of the runs of the static split of `n` items over `topology`'s
/// threads: contiguous runs in order, run `i` for thread `i` (the last
/// may be shorter), as [`Schedule::StaticChunks`] sweeps them — OpenMP
/// static. Never 0.
pub fn static_chunk_len(n: usize, topology: &Topology) -> usize {
    n.div_ceil(topology.total_threads()).max(1)
}

/// Runs `f(i, part)` for each part of a static split on scoped threads,
/// part `i` on thread `i`, and returns the results in part order. Part 0
/// runs on the calling thread, so a split of one part starts no thread.
/// The sweep's [`Schedule::StaticChunks`] arm runs through it, and so
/// does the harness's set-up: a set-up that writes the runs of
/// [`static_chunk_len`] through it first-touches each page on the thread
/// that sweeps it. A panic in any part is re-raised here.
pub fn on_static_split<T, U, F>(parts: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let mut parts = parts.into_iter().enumerate();
        let first = parts.next();
        let handles: Vec<_> = parts
            .map(|(i, part)| scope.spawn(move || f(i, part)))
            .collect();
        let mut out: Vec<U> = first.map(|(i, part)| f(i, part)).into_iter().collect();
        out.extend(handles.into_iter().map(|h| join_or_propagate(h.join())));
        out
    })
}

/// Spawns one worker per topology thread; each claims grains from the
/// queue returned by `queue_of` for its domain until it is empty.
fn run_queued<'q, R, C, K, F, Q>(
    topology: &Topology,
    kernel_factory: &F,
    queue_of: Q,
) -> SweepReport
where
    R: Real,
    C: ParticleAccess<R> + 'q,
    K: ParticleKernel<R> + Send,
    F: Fn(usize) -> K + Sync,
    Q: Fn(usize) -> Option<&'q Mutex<vec::IntoIter<C>>> + Sync,
{
    let threads = topology.total_threads();
    let reports: Vec<ThreadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let queue_of = &queue_of;
                scope.spawn(move || {
                    let domain = topology.domain_of(tid);
                    let mut report = ThreadReport {
                        thread: tid,
                        domain,
                        ..ThreadReport::default()
                    };
                    if let Some(queue) = queue_of(domain) {
                        let mut kernel = kernel_factory(tid);
                        loop {
                            // The grain is taken in its own statement: a
                            // guard in a `while let` condition would live
                            // through the kernel call and serialize the
                            // workers.
                            let next = lock(queue).next();
                            let Some(mut chunk) = next else { break };
                            report.chunks += 1;
                            report.particles += chunk.len();
                            let (busy_ns, ()) = timed(|| kernel.apply_chunk(&mut chunk));
                            report.busy_ns += busy_ns;
                        }
                    }
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_or_propagate(h.join()))
            .collect()
    });
    SweepReport { threads: reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::Vec3;
    use pic_particles::{
        AosEnsemble, DynKernel, Particle, ParticleStore, ParticleView, SoaEnsemble, SpeciesId,
    };

    fn ensemble<S: ParticleStore<f64>>(n: usize) -> S {
        S::from_particles((0..n).map(|i| {
            let mut p = Particle::at_rest(Vec3::new(i as f64, 0.0, 0.0), 0.0, SpeciesId(0));
            p.gamma = 1.0;
            p
        }))
    }

    fn increment_kernel(_tid: usize) -> DynKernel<impl FnMut(usize, &mut dyn ParticleView<f64>)> {
        DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
            let w = v.weight();
            v.set_weight(w + 1.0);
        })
    }

    fn check_each_particle_once<S: ParticleStore<f64>>(schedule: Schedule, topo: Topology) {
        let mut ens: S = ensemble(1003);
        let report = parallel_sweep(&mut ens, &topo, schedule, increment_kernel);
        assert_eq!(report.total_particles(), 1003, "{schedule:?}");
        for i in 0..ens.len() {
            assert_eq!(ens.get(i).weight, 1.0, "particle {i} under {schedule:?}");
        }
        assert_eq!(report.threads.len(), topo.total_threads());
    }

    #[test]
    fn static_processes_every_particle_aos() {
        check_each_particle_once::<AosEnsemble<f64>>(
            Schedule::StaticChunks,
            Topology::uniform(2, 2),
        );
    }

    #[test]
    fn dynamic_processes_every_particle_aos() {
        check_each_particle_once::<AosEnsemble<f64>>(Schedule::dynamic(), Topology::uniform(2, 2));
    }

    #[test]
    fn numa_processes_every_particle_aos() {
        check_each_particle_once::<AosEnsemble<f64>>(Schedule::numa(), Topology::uniform(2, 2));
    }

    #[test]
    fn all_schedules_process_every_particle_soa() {
        for schedule in [
            Schedule::StaticChunks,
            Schedule::dynamic(),
            Schedule::numa(),
        ] {
            check_each_particle_once::<SoaEnsemble<f64>>(schedule, Topology::uniform(2, 3));
        }
    }

    /// Sweeps 1003 particles on two domains of two threads with a kernel
    /// that panics on the particle at x = 777.
    fn sweep_with_a_panicking_particle(schedule: Schedule) {
        let mut ens: AosEnsemble<f64> = ensemble(1003);
        parallel_sweep(&mut ens, &Topology::uniform(2, 2), schedule, |_tid| {
            DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
                if v.position().x == 777.0 {
                    panic!("kernel fault on particle 777");
                }
            })
        });
    }

    #[test]
    #[should_panic(expected = "kernel fault on particle 777")]
    fn static_propagates_a_kernel_panic() {
        sweep_with_a_panicking_particle(Schedule::StaticChunks);
    }

    #[test]
    #[should_panic(expected = "kernel fault on particle 777")]
    fn dynamic_propagates_a_kernel_panic() {
        sweep_with_a_panicking_particle(Schedule::dynamic());
    }

    #[test]
    #[should_panic(expected = "kernel fault on particle 777")]
    fn numa_propagates_a_kernel_panic() {
        sweep_with_a_panicking_particle(Schedule::numa());
    }

    #[test]
    fn serial_fast_path() {
        check_each_particle_once::<AosEnsemble<f64>>(Schedule::dynamic(), Topology::single(1));
    }

    #[test]
    fn static_balances_particle_counts() {
        let mut ens: AosEnsemble<f64> = ensemble(1000);
        let topo = Topology::single(4);
        let report = parallel_sweep(&mut ens, &topo, Schedule::StaticChunks, increment_kernel);
        for t in &report.threads {
            assert_eq!(t.particles, 250, "{report:?}");
            assert_eq!(t.chunks, 1);
        }
    }

    #[test]
    fn dynamic_splits_into_many_grains() {
        let mut ens: AosEnsemble<f64> = ensemble(1024);
        let topo = Topology::single(4);
        let report = parallel_sweep(
            &mut ens,
            &topo,
            Schedule::Dynamic { grain: 32 },
            increment_kernel,
        );
        assert_eq!(report.total_chunks(), 32);
        assert_eq!(report.total_particles(), 1024);
    }

    #[test]
    fn numa_confines_particles_to_their_domain() {
        // Tag every particle with the processing thread's domain, then
        // check the tag matches the proportional partition.
        let n = 800;
        let mut ens: AosEnsemble<f64> = ensemble(n);
        let topo = Topology::uniform(2, 2);
        let topo2 = topo.clone();
        parallel_sweep(
            &mut ens,
            &topo,
            Schedule::NumaDomains { grain: 25 },
            move |tid| {
                let domain = topo2.domain_of(tid) as f64;
                DynKernel(move |_i, v: &mut dyn ParticleView<f64>| {
                    v.set_weight(domain + 1.0);
                })
            },
        );
        // Domain 0 owns the first half of the grains ⇒ the first half of
        // the particles (uniform 2×2 topology, 32 grains).
        for i in 0..n {
            let expect = if i < n / 2 { 1.0 } else { 2.0 };
            assert_eq!(ens.get(i).weight, expect, "particle {i}");
        }
    }

    #[test]
    fn results_identical_across_schedules() {
        // The sweep applies an order-independent per-particle op, so all
        // three schedules must produce identical ensembles.
        let run = |schedule: Schedule| -> Vec<Particle<f64>> {
            let mut ens: SoaEnsemble<f64> = ensemble(257);
            parallel_sweep(&mut ens, &Topology::uniform(2, 2), schedule, |_tid| {
                DynKernel(|i, v: &mut dyn ParticleView<f64>| {
                    let p = v.position();
                    v.set_position(p + Vec3::new(0.0, i as f64, 1.0));
                    v.set_gamma(1.0 + i as f64 * 1e-3);
                })
            });
            ens.to_particles()
        };
        let a = run(Schedule::StaticChunks);
        let b = run(Schedule::dynamic());
        let c = run(Schedule::numa());
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn imbalance_metric() {
        let mut ens: AosEnsemble<f64> = ensemble(1000);
        let report = parallel_sweep(
            &mut ens,
            &Topology::single(4),
            Schedule::StaticChunks,
            increment_kernel,
        );
        assert!((report.imbalance() - 1.0).abs() < 1e-12);
        // Empty and single-thread reports have no imbalance: 0.0, not
        // NaN and not a fake "perfectly balanced" 1.0.
        assert_eq!(SweepReport::default().imbalance(), 0.0);
        let single = SweepReport {
            threads: vec![ThreadReport {
                thread: 0,
                domain: 0,
                chunks: 3,
                particles: 1000,
                busy_ns: 5,
            }],
        };
        assert_eq!(single.imbalance(), 0.0);
        assert_eq!(single.time_imbalance(), 0.0);
        // A multi-thread report with zero work is also undefined.
        let idle = SweepReport {
            threads: vec![ThreadReport::default(), ThreadReport::default()],
        };
        assert_eq!(idle.imbalance(), 0.0);
        assert!(idle.imbalance().is_finite() && idle.time_imbalance().is_finite());
        // A lopsided synthetic report.
        let lopsided = SweepReport {
            threads: vec![
                ThreadReport {
                    thread: 0,
                    domain: 0,
                    chunks: 1,
                    particles: 900,
                    busy_ns: 0,
                },
                ThreadReport {
                    thread: 1,
                    domain: 0,
                    chunks: 1,
                    particles: 100,
                    busy_ns: 0,
                },
            ],
        };
        assert!((lopsided.imbalance() - 1.8).abs() < 1e-12);
        // An idle thread is a thread: it lowers the mean, it is not
        // filtered out.
        assert!((imbalance_of([30, 10, 0]) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn time_imbalance_metric() {
        // An empty report has no defined imbalance.
        assert_eq!(SweepReport::default().time_imbalance(), 0.0);
        let report = SweepReport {
            threads: vec![
                ThreadReport {
                    thread: 0,
                    domain: 0,
                    chunks: 1,
                    particles: 500,
                    busy_ns: 3000,
                },
                ThreadReport {
                    thread: 1,
                    domain: 0,
                    chunks: 1,
                    particles: 500,
                    busy_ns: 1000,
                },
            ],
        };
        assert_eq!(report.total_busy_ns(), 4000);
        assert!((report.time_imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn shard_imbalance_merge_weights_by_particle_count() {
        // A 900-particle shard at 1.5 dominates a 100-particle shard at
        // 3.0: the merge is 0.9·1.5 + 0.1·3.0, not the plain mean 2.25.
        let merged = SweepReport::merge_shard_imbalance(&[(900, 1.5), (100, 3.0)]);
        assert!((merged - 1.65).abs() < 1e-12, "{merged}");
        // Degenerate inputs: empty and zero-particle sets merge to 0.0.
        assert_eq!(SweepReport::merge_shard_imbalance(&[]), 0.0);
        assert_eq!(
            SweepReport::merge_shard_imbalance(&[(0, 2.0), (0, 4.0)]),
            0.0
        );
    }

    #[test]
    fn one_shard_merge_is_exactly_the_unsharded_value() {
        // Pin the degenerate single-shard case bitwise: no weighting
        // arithmetic may perturb the value (0.1 has no exact binary
        // representation, so `x * n / n` would not be a no-op).
        let awkward = 0.1 + 0.2; // 0.30000000000000004…
        let merged = SweepReport::merge_shard_imbalance(&[(12_345, awkward)]);
        assert_eq!(merged.to_bits(), awkward.to_bits());
    }

    #[test]
    fn sweep_times_kernel_work() {
        let mut ens: AosEnsemble<f64> = ensemble(50_000);
        for schedule in [
            Schedule::StaticChunks,
            Schedule::dynamic(),
            Schedule::numa(),
        ] {
            let report = parallel_sweep(&mut ens, &Topology::uniform(2, 2), schedule, |_tid| {
                DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
                    let w = v.weight();
                    v.set_weight(w.sin() + 1.0);
                })
            });
            assert!(report.total_busy_ns() > 0, "{schedule:?}: {report:?}");
        }
    }

    #[test]
    fn empty_ensemble() {
        let mut ens: AosEnsemble<f64> = ensemble(0);
        for schedule in [
            Schedule::StaticChunks,
            Schedule::dynamic(),
            Schedule::numa(),
        ] {
            let report = parallel_sweep(
                &mut ens,
                &Topology::uniform(2, 2),
                schedule,
                increment_kernel,
            );
            assert_eq!(report.total_particles(), 0, "{schedule:?}");
        }
    }

    /// The static split covers `0..n` in contiguous runs, one a thread
    /// at most, in thread order, every run but the last of the same
    /// length.
    #[test]
    fn static_split_covers_the_range_in_thread_order() {
        for threads in 1..=5 {
            let topo = Topology::single(threads);
            for n in [0, 1, 4, 5, 7, 8, 9, 1000, (1 << 17) + 3] {
                let len = static_chunk_len(n, &topo);
                let mut items: Vec<usize> = (0..n).collect();
                let parts: Vec<&mut [usize]> = items.chunks_mut(len).collect();
                assert!(parts.len() <= threads, "{n} over {threads}");
                let runs = on_static_split(parts, |i, part| (i, part[0], part.len()));
                let mut next = 0;
                for (tid, &(i, first, len_i)) in runs.iter().enumerate() {
                    assert_eq!((i, first), (tid, next), "{n} over {threads}");
                    assert!(len_i == len || tid + 1 == runs.len());
                    next += len_i;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn static_split_runs_part_zero_on_the_caller_and_the_rest_apart() {
        let caller = std::thread::current().id();
        let ran_on = on_static_split(vec![(); 3], |_, ()| std::thread::current().id());
        assert_eq!(ran_on[0], caller, "a one-part split starts no thread");
        assert!(ran_on[1..].iter().all(|&id| id != caller));
        assert_ne!(ran_on[1], ran_on[2]);
        assert!(on_static_split(Vec::<()>::new(), |_, ()| ()).is_empty());
    }

    #[test]
    #[should_panic(expected = "part 2 fails")]
    fn static_split_propagates_a_panic() {
        on_static_split(vec![0, 1, 2], |i, _| assert_ne!(i, 2, "part 2 fails"));
    }

    #[test]
    fn fewer_particles_than_threads() {
        let mut ens: AosEnsemble<f64> = ensemble(3);
        let report = parallel_sweep(
            &mut ens,
            &Topology::single(8),
            Schedule::StaticChunks,
            increment_kernel,
        );
        assert_eq!(report.total_particles(), 3);
        assert_eq!(report.threads.len(), 8);
        for i in 0..3 {
            assert_eq!(ens.get(i).weight, 1.0);
        }
    }
}
