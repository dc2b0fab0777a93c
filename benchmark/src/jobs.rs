//! Seeded job lists and arrival schedules. The same seed always gives
//! the same jobs at the same due times; the service receives only the
//! generated requests.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steps of every generated job (equal steps keep small jobs coalescible).
pub const JOB_STEPS: usize = 20;
/// Distinct specs the repeated quarter of the small-job stream draws from.
pub const REPEAT_POOL: usize = 8;

/// Seeds the shapes (size, layout, precision, scenario, device) of the
/// jobs whose cost is part of set-up.
const FIXED_SHAPES: u64 = 0x9e37_79b9_7f4a_7c15;

/// One job of an open-loop schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When the job is due, ns after the schedule starts.
    pub due_ns: u64,
    /// Index of the rate phase the job belongs to.
    pub phase: usize,
    /// The request.
    pub spec: JobSpec,
}

/// One constant-rate stretch of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RatePhase {
    /// Jobs per second.
    pub rate: f64,
    /// Length, seconds.
    pub seconds: f64,
}

/// Job seeds stay below 2⁵³ (the wire carries numbers as `f64`) and never
/// collide between streams: `stream` numbers the generator's use (warm-up,
/// untraced phase, traced phase), `index` the job within it.
fn job_seed(seed: u64, stream: u64, index: usize) -> u64 {
    (seed % 1_000_000) * 1_000_000_000 + stream * 10_000_000 + index as u64
}

/// The small-job mix: particles ∈ {500, 1 000, 2 000, 4 000}, 75/25
/// SoA/AoS, 75/25 f32/f64, 50/50 scenario, 5 % on the modeled Iris Xe
/// Max lane, and a quarter of the stream repeating one of
/// [`REPEAT_POOL`] specs (cache hits and follower coalescing).
pub struct SmallMix {
    rng: StdRng,
    seed: u64,
    stream: u64,
    next: usize,
    pool: Vec<JobSpec>,
}

impl SmallMix {
    /// A generator for one stream of `seed`. Every stream of a seed
    /// shares the repeat pool; fresh jobs never repeat across streams.
    pub fn new(seed: u64, stream: u64) -> SmallMix {
        // The pool's sizes and layouts are the same for every seed (only
        // its ensembles differ): priming it is part of set-up, and set-up
        // time must not depend on the seed.
        let mut shapes = StdRng::seed_from_u64(FIXED_SHAPES);
        let pool = (0..REPEAT_POOL)
            .map(|i| fresh(&mut shapes, job_seed(seed, 99, i)))
            .collect();
        SmallMix {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(FIXED_SHAPES).wrapping_add(stream)),
            seed,
            stream,
            next: 0,
            pool,
        }
    }

    /// The batch that ends a set-up: the repeat pool (so the cache is
    /// primed) and `extra` more jobs, the same shapes for every seed.
    pub fn warm_up(seed: u64, extra: usize) -> Vec<JobSpec> {
        let mut specs = SmallMix::new(seed, 0).pool;
        let mut shapes = StdRng::seed_from_u64(FIXED_SHAPES + 1);
        specs.extend((0..extra).map(|i| fresh(&mut shapes, job_seed(seed, 0, i))));
        specs
    }

    /// The specs the repeated jobs are drawn from.
    pub fn pool(&self) -> &[JobSpec] {
        &self.pool
    }

    /// The next job of the stream.
    pub fn next_spec(&mut self) -> JobSpec {
        self.next += 1;
        if self.rng.gen_bool(0.25) {
            let pick = self.rng.gen_range(0..REPEAT_POOL);
            self.pool[pick].clone()
        } else {
            let seed = job_seed(self.seed, self.stream, self.next);
            fresh(&mut self.rng, seed)
        }
    }

    /// An open-loop schedule: evenly spaced arrivals through each phase
    /// in turn.
    pub fn schedule(&mut self, phases: &[RatePhase]) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut phase_start_ns = 0u64;
        for (phase, p) in phases.iter().enumerate() {
            let count = (p.rate * p.seconds).round().max(1.0) as usize;
            for k in 0..count {
                out.push(Arrival {
                    due_ns: phase_start_ns + (k as f64 * 1e9 / p.rate).round() as u64,
                    phase,
                    spec: self.next_spec(),
                });
            }
            phase_start_ns += (p.seconds * 1e9).round() as u64;
        }
        out
    }
}

fn fresh(rng: &mut StdRng, seed: u64) -> JobSpec {
    let particles = [500, 1_000, 2_000, 4_000][rng.gen_range(0..4usize)];
    let layout = if rng.gen_bool(0.75) {
        Layout::Soa
    } else {
        Layout::Aos
    };
    let precision = if rng.gen_bool(0.75) {
        Precision::F32
    } else {
        Precision::F64
    };
    let scenario = if rng.gen_bool(0.5) {
        Scenario::Analytical
    } else {
        Scenario::Precalculated
    };
    let device = if rng.gen_bool(0.05) {
        "iris-xe-max"
    } else {
        "host"
    };
    JobSpec {
        scenario,
        layout,
        precision,
        particles,
        steps: JOB_STEPS,
        seed,
        device: device.to_owned(),
        ..JobSpec::default()
    }
}

/// The `index`-th job of the closed-loop sharded stream: SoA/f32
/// Precalculated, dump returned.
pub fn shard_job(seed: u64, stream: u64, index: usize, particles: usize) -> JobSpec {
    JobSpec {
        scenario: Scenario::Precalculated,
        layout: Layout::Soa,
        precision: Precision::F32,
        particles,
        steps: JOB_STEPS,
        seed: job_seed(seed, stream, index),
        return_particles: true,
        ..JobSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [RatePhase; 2] = [
        RatePhase {
            rate: 50.0,
            seconds: 2.0,
        },
        RatePhase {
            rate: 100.0,
            seconds: 4.0,
        },
    ];

    #[test]
    fn a_seed_fixes_the_job_list_and_the_arrival_schedule() {
        let a = SmallMix::new(7, 1).schedule(&LADDER);
        let b = SmallMix::new(7, 1).schedule(&LADDER);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let c = SmallMix::new(8, 1).schedule(&LADDER);
        assert_ne!(a, c);
        // Due times follow the rates exactly, whatever the seed.
        assert_eq!(a[1].due_ns, 20_000_000);
        assert_eq!(a[100].due_ns, 2_000_000_000);
        assert_eq!(a[101].due_ns, 2_010_000_000);
        assert!(a
            .iter()
            .zip(&c)
            .all(|(x, y)| x.due_ns == y.due_ns && x.phase == y.phase));
    }

    #[test]
    fn the_mix_has_the_stated_shares_and_fresh_jobs_never_repeat() {
        let mut mix = SmallMix::new(3, 2);
        let pool = mix.pool().to_vec();
        let jobs: Vec<JobSpec> = (0..4000).map(|_| mix.next_spec()).collect();
        let share = |f: &dyn Fn(&JobSpec) -> bool| {
            jobs.iter().filter(|j| f(j)).count() as f64 / jobs.len() as f64
        };
        assert!((share(&|j| pool.contains(j)) - 0.25).abs() < 0.03);
        assert!((share(&|j| j.layout == Layout::Soa) - 0.75).abs() < 0.1);
        assert!((share(&|j| j.precision == Precision::F32) - 0.75).abs() < 0.1);
        assert!((share(&|j| j.scenario == Scenario::Analytical) - 0.5).abs() < 0.1);
        assert!(jobs
            .iter()
            .all(|j| j.steps == JOB_STEPS && j.seed < (1 << 53)));
        let mut fresh: Vec<u64> = jobs
            .iter()
            .filter(|j| !pool.contains(j))
            .map(|j| j.seed)
            .collect();
        let count = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), count);
        // Set-up work has the same shapes whatever the seed.
        let shape = |j: &JobSpec| {
            (
                j.particles,
                j.layout,
                j.precision,
                j.scenario,
                j.device.clone(),
            )
        };
        let (a, b) = (SmallMix::warm_up(3, 24), SmallMix::warm_up(4, 24));
        assert_eq!(a.len(), REPEAT_POOL + 24);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| shape(x) == shape(y) && x.seed != y.seed));
        assert_eq!(&a[..REPEAT_POOL], &pool[..]);
        // Another stream of the same seed shares the pool, not the jobs.
        let mut other = SmallMix::new(3, 3);
        assert_eq!(other.pool(), &pool[..]);
        let others: Vec<JobSpec> = (0..4000).map(|_| other.next_spec()).collect();
        assert!(others.iter().all(|j| pool.contains(j) || !jobs.contains(j)));
    }
}
