//! End-to-end accounting check for the sweep's grain hand-out: for
//! every `Schedule`, layout, and topology, the `SweepReport` must
//! account for each particle exactly once, and the kernel must have
//! been applied exactly once per particle (a lost or duplicated chunk
//! shows up as a wrong weight, not just a wrong counter).
//!
//! The queued schedules split the range into grains before any worker
//! starts and hand them out from a `Mutex` around the grain iterator
//! (`pic_runtime::sweep`), one grain per lock; this suite is what
//! checks that hand-out end to end.

use pic_particles::{AosEnsemble, DynKernel, Particle, ParticleStore, ParticleView, SoaEnsemble};
use pic_runtime::{parallel_sweep, Schedule, Topology};

fn bump_weight_sweep<S: ParticleStore<f64>>(n: usize, topo: &Topology, schedule: Schedule) {
    let mut ens = S::from_particles((0..n).map(|_| Particle::default()));
    let report = parallel_sweep(&mut ens, topo, schedule, |_tid| {
        DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
            let w = v.weight();
            v.set_weight(w + 1.0);
        })
    });
    assert_eq!(
        report.total_particles(),
        n,
        "{schedule:?} on {topo:?}: report does not account for every particle"
    );
    for i in 0..n {
        assert_eq!(
            ens.get(i).weight,
            1.0,
            "{schedule:?} on {topo:?}: particle {i} pushed a wrong number of times"
        );
    }
}

#[test]
fn every_schedule_accounts_for_every_particle() {
    let schedules = [
        Schedule::StaticChunks,
        Schedule::Dynamic { grain: 0 },
        Schedule::Dynamic { grain: 7 },
        Schedule::NumaDomains { grain: 0 },
        Schedule::NumaDomains { grain: 5 },
    ];
    let topologies = [
        Topology::single(1),
        Topology::single(4),
        Topology::uniform(2, 2),
    ];
    for schedule in schedules {
        for topo in &topologies {
            // Sizes around chunking edges: empty, one, fewer particles
            // than threads, and a non-divisible larger count.
            for n in [0usize, 1, 3, 257] {
                bump_weight_sweep::<AosEnsemble<f64>>(n, topo, schedule);
                bump_weight_sweep::<SoaEnsemble<f64>>(n, topo, schedule);
            }
        }
    }
}

#[test]
fn aos_and_soa_reports_agree_on_totals() {
    // Same sweep on both layouts: the queue must hand out identical
    // work totals regardless of storage layout.
    for schedule in [
        Schedule::Dynamic { grain: 16 },
        Schedule::NumaDomains { grain: 16 },
    ] {
        let topo = Topology::uniform(2, 2);
        let n = 500;
        let mut aos = AosEnsemble::<f64>::from_particles((0..n).map(|_| Particle::default()));
        let mut soa = SoaEnsemble::<f64>::from_particles((0..n).map(|_| Particle::default()));
        let kernel = |_tid: usize| {
            DynKernel(|_i, v: &mut dyn ParticleView<f64>| {
                let g = v.gamma();
                v.set_gamma(g + 1.0);
            })
        };
        let ra = parallel_sweep(&mut aos, &topo, schedule, kernel);
        let rb = parallel_sweep(&mut soa, &topo, schedule, kernel);
        assert_eq!(ra.total_particles(), n);
        assert_eq!(rb.total_particles(), n);
        assert_eq!(ra.total_chunks(), rb.total_chunks(), "{schedule:?}");
    }
}
