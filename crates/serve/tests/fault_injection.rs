//! Fault-injection harness: kill workers at deterministic, seeded
//! step boundaries and prove the checkpoint/resume protocol.
//!
//! Each schedule arms a [`KillPlan`] with `(job seed, step)` points
//! derived from the schedule seed by a fixed LCG — no wall-clock, no
//! thread timing. A worker that completes an armed step panics; the
//! scheduler requeues the victims and the next worker resumes each one
//! from its latest checkpoint. The harness then asserts, per schedule:
//!
//! * every job still reaches exactly one terminal outcome (Completed);
//! * every final particle dump is **bitwise identical** (text equality
//!   of the shortest-round-trip snapshot format) to the same job run on
//!   a reference server with no kills and no checkpointing;
//! * every armed kill-point actually fired (the plan drains to 0);
//! * telemetry reconciles: one record per submission, outcome counters
//!   matching, `exec_overruns == 0`, and at least one resume recorded.
//!
//! The quick variant runs a few schedules in the default suite; the
//! 24-schedule sweep and the duplicate soak are `#[ignore]`d stress
//! tests CI runs in a dedicated `-- --ignored` step.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::{JobSpec, KillPlan, Outcome, ServeConfig, Server, ShutdownReport};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

const STEPS: usize = 12;
const INTERVAL: usize = 3;

/// Ten jobs: all eight scenario × layout × precision combos, plus two
/// more of the first combo that differ from it only in size and seed —
/// neighbours in the queue with the same physics, which must not
/// interact. Seeds are unique — the kill plan and the reference dumps
/// key on them.
fn job_set() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut seed = 100u64;
    for scenario in [Scenario::Analytical, Scenario::Precalculated] {
        for layout in [Layout::Soa, Layout::Aos] {
            for precision in [Precision::F32, Precision::F64] {
                jobs.push(JobSpec {
                    scenario,
                    layout,
                    precision,
                    particles: 40 + (seed as usize % 3) * 17,
                    steps: STEPS,
                    seed,
                    return_particles: true,
                    ..JobSpec::default()
                });
                seed += 1;
            }
        }
    }
    for extra in 0..2usize {
        jobs.push(JobSpec {
            scenario: Scenario::Analytical,
            layout: Layout::Soa,
            precision: Precision::F32,
            particles: 23 + extra * 9,
            steps: STEPS,
            seed,
            return_particles: true,
            ..JobSpec::default()
        });
        seed += 1;
    }
    jobs
}

/// Deterministic schedule source (no `rand`, no process entropy): a
/// 64-bit LCG whose high bits pick victims and steps.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Arms 2–4 kill-points for `schedule` across the job seeds. Steps land
/// in `1..STEPS` so every kill interrupts a run in progress.
fn arm_schedule(plan: &KillPlan, schedule: u64, seeds: &[u64]) {
    let mut rng = Lcg(schedule.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1));
    let kills = 2 + (rng.next() % 3) as usize;
    for _ in 0..kills {
        let victim = seeds[rng.next() as usize % seeds.len()];
        let step = 1 + rng.next() as usize % (STEPS - 1);
        plan.arm(victim, step);
    }
}

/// Submits the whole job set, waits for every terminal outcome, shuts
/// down. Returns outcomes keyed by job seed plus the drained report.
fn run_all(cfg: ServeConfig, label: &str) -> (HashMap<u64, Outcome>, ShutdownReport) {
    let server = Server::start(cfg, label);
    let tickets: Vec<_> = job_set()
        .into_iter()
        .map(|spec| {
            let seed = spec.seed;
            (seed, server.submit(spec, None).expect("admitted"))
        })
        .collect();
    let outcomes = tickets
        .into_iter()
        .map(|(seed, ticket)| (seed, ticket.wait()))
        .collect();
    (outcomes, server.shutdown())
}

/// Reference dumps: the same jobs on a server with no kill plan and no
/// checkpointing — one uninterrupted sweep each.
fn reference_dumps() -> HashMap<u64, String> {
    let cfg = ServeConfig {
        workers: 2,
        checkpoint_interval: 0,
        kill_plan: None,
        ..ServeConfig::default()
    };
    let (outcomes, _) = run_all(cfg, "fault-ref");
    outcomes
        .into_iter()
        .map(|(seed, outcome)| {
            let Outcome::Completed(report) = outcome else {
                panic!("reference job {seed} did not complete: {outcome:?}");
            };
            (seed, report.particles.expect("reference dump"))
        })
        .collect()
}

/// Runs one kill schedule end-to-end and asserts the full contract.
fn check_schedule(schedule: u64, reference: &HashMap<u64, String>) {
    let seeds: Vec<u64> = job_set().iter().map(|j| j.seed).collect();
    let plan = KillPlan::new();
    arm_schedule(&plan, schedule, &seeds);
    let armed = plan.armed();
    assert!(armed >= 2, "schedule {schedule} armed {armed} points");
    let cfg = ServeConfig {
        workers: 2,
        checkpoint_interval: INTERVAL,
        // A schedule arms at most four points, possibly all on one job;
        // each charges that job one resume and nobody else.
        max_resumes: 4,
        kill_plan: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let (outcomes, report) = run_all(cfg, &format!("fault-s{schedule}"));

    assert_eq!(plan.armed(), 0, "schedule {schedule}: every kill fired");
    for (seed, outcome) in &outcomes {
        let Outcome::Completed(r) = outcome else {
            panic!("schedule {schedule}, job seed {seed}: {outcome:?}");
        };
        let dump = r.particles.as_deref().expect("dump returned");
        assert_eq!(
            dump,
            reference[seed].as_str(),
            "schedule {schedule}, job seed {seed}: resumed trajectory \
             is not bitwise-identical to the uninterrupted run"
        );
    }

    let stats = &report.stats;
    let jobs = seeds.len() as u64;
    assert_eq!(stats.submitted, jobs);
    assert_eq!(stats.completed, jobs, "schedule {schedule}: all completed");
    assert_eq!(stats.rejected + stats.cancelled + stats.timed_out, 0);
    assert_eq!(stats.exec_overruns, 0, "no job ran past its budget");
    assert!(
        stats.resumed >= 1,
        "schedule {schedule}: kills must cause resumes"
    );

    assert_eq!(report.records.len(), jobs as usize, "one record per job");
    let mut resumed_records = 0u64;
    for rec in &report.records {
        assert_eq!(rec.outcome, "completed", "{}", rec.label);
        assert_eq!(rec.steps_per_iteration, STEPS as u64, "{}", rec.label);
        if rec.resumes > 0 {
            resumed_records += 1;
            assert!(
                (rec.resumed_from_step as usize) < STEPS,
                "{}: resume step in range",
                rec.label
            );
        }
    }
    assert!(
        resumed_records >= 1,
        "schedule {schedule}: telemetry shows the resumes"
    );
}

#[test]
fn killed_workers_resume_bitwise_identically_quick() {
    let reference = reference_dumps();
    for schedule in 1..=3 {
        check_schedule(schedule, &reference);
    }
}

#[test]
#[ignore = "24-schedule fault-injection sweep; run via cargo test -p pic-serve -- --ignored"]
fn killed_workers_resume_bitwise_identically_sweep() {
    let reference = reference_dumps();
    for schedule in 1..=24 {
        check_schedule(schedule, &reference);
    }
}

/// A kill takes down the job it was armed on and nobody else: of the
/// three same-physics jobs of the set, submitted back to back, only the
/// armed one is charged a resume.
#[test]
fn a_kill_charges_only_the_job_it_was_armed_on() {
    let set = job_set();
    let physics = |j: &JobSpec| (j.scenario, j.layout, j.precision);
    let alike: Vec<u64> = set
        .iter()
        .filter(|j| physics(j) == physics(&set[0]))
        .map(|j| j.seed)
        .collect();
    assert_eq!(alike.len(), 3, "the first combo and its two neighbours");
    let victim = alike[1];
    let plan = KillPlan::new();
    plan.arm(victim, 5);
    let cfg = ServeConfig {
        workers: 2,
        checkpoint_interval: INTERVAL,
        kill_plan: Some(plan.clone()),
        ..ServeConfig::default()
    };
    let (outcomes, report) = run_all(cfg, "fault-one");
    assert_eq!(plan.armed(), 0, "the kill fired");
    for seed in alike {
        let Outcome::Completed(r) = &outcomes[&seed] else {
            panic!("job seed {seed}: {:?}", outcomes[&seed]);
        };
        assert_eq!(
            r.resumes,
            u64::from(seed == victim),
            "job seed {seed}: only the armed job resumes"
        );
    }
    assert_eq!(report.stats.resumed, 1, "one kill, one resume");
}

#[test]
fn repeat_submission_hits_the_cache_with_zero_queue_wait() {
    let server = Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        "fault-cache",
    );
    let spec = JobSpec {
        particles: 64,
        steps: 6,
        seed: 7,
        ..JobSpec::default()
    };
    let first = server.submit(spec.clone(), None).expect("admitted").wait();
    let Outcome::Completed(r1) = first else {
        panic!("first run: {first:?}");
    };
    assert!(!r1.cache_hit, "first run is a real sweep");
    let second = server.submit(spec, None).expect("admitted").wait();
    let Outcome::Completed(r2) = second else {
        panic!("repeat: {second:?}");
    };
    assert!(r2.cache_hit, "repeat submission is a cache hit");
    assert_eq!(r2.queue_wait_ns, 0, "cache hits never queue");
    assert_eq!(r2.steps_done, r1.steps_done);
    let report = server.shutdown();
    assert_eq!(report.stats.cache_hits, 1);
    server_records_reconcile(&report);
}

/// On one worker, N identical concurrent submissions run exactly one
/// sweep: the other N−1 are cache hits, at submit when the sweep already
/// completed, at claim when they were queued behind it.
#[test]
fn duplicate_submissions_on_one_worker_run_one_sweep() {
    const DUPES: usize = 6;
    let server = Arc::new(Server::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        "fault-dupes",
    ));
    let spec = JobSpec {
        particles: 80,
        steps: 8,
        seed: 55,
        return_particles: true,
        ..JobSpec::default()
    };
    let handles: Vec<_> = (0..DUPES)
        .map(|_| {
            let server = server.clone();
            let spec = spec.clone();
            thread::spawn(move || server.submit(spec, None).expect("admitted").wait())
        })
        .collect();
    let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let server = Arc::into_inner(server).expect("sole owner");
    let report = server.shutdown();

    let mut dumps = Vec::new();
    for outcome in &outcomes {
        let Outcome::Completed(r) = outcome else {
            panic!("duplicate did not complete: {outcome:?}");
        };
        dumps.push(r.particles.clone().expect("dump"));
    }
    assert!(
        dumps.windows(2).all(|w| w[0] == w[1]),
        "every duplicate sees the identical result"
    );

    let stats = &report.stats;
    assert_eq!(stats.completed, DUPES as u64);
    let real_runs = report
        .records
        .iter()
        .filter(|r| r.outcome == "completed" && !r.cache_hit)
        .count();
    assert_eq!(real_runs, 1, "exactly one sweep ran");
    assert_eq!(
        stats.cache_hits,
        DUPES as u64 - 1,
        "the other submissions were served from the sweep's cached result"
    );
    server_records_reconcile(&report);
}

#[test]
#[ignore = "seeded duplicate soak; run via cargo test -p pic-serve -- --ignored"]
fn duplicate_soak_reconciles_against_telemetry() {
    const SPECS: usize = 8;
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 4;
    const WORKERS: usize = 3;
    let server = Arc::new(Server::start(
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 512,
            cache_capacity: 64, // >= SPECS: no eviction during the soak
            ..ServeConfig::default()
        },
        "fault-soak",
    ));
    // Distinct specs, unique by particle count, so records regroup by
    // that field (BenchRecord does not carry the seed).
    let specs: Vec<JobSpec> = (0..SPECS)
        .map(|i| JobSpec {
            particles: 30 + i * 13,
            steps: 5 + i % 3,
            seed: 900 + i as u64,
            ..JobSpec::default()
        })
        .collect();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = server.clone();
            let specs = specs.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    for spec in &specs {
                        let outcome = server.submit(spec.clone(), None).expect("admitted").wait();
                        assert!(
                            matches!(outcome, Outcome::Completed(_)),
                            "client {c} round {round}: {outcome:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let server = Arc::into_inner(server).expect("sole owner");
    let report = server.shutdown();

    let total = (SPECS * CLIENTS * ROUNDS) as u64;
    let stats = &report.stats;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.exec_overruns, 0);
    // Every spec ran, and at most once per worker: a duplicate claimed
    // while its twin still runs runs too, but every run of a spec began
    // before the first of them filled the cache, so they overlap. The
    // rest were submit-time or claim-time hits.
    let mut real_by_particles: HashMap<u64, u64> = HashMap::new();
    for rec in report.records.iter().filter(|r| !r.cache_hit) {
        *real_by_particles.entry(rec.particles).or_insert(0) += 1;
    }
    assert_eq!(real_by_particles.len(), SPECS, "every spec ran");
    for (particles, runs) in &real_by_particles {
        assert!(
            (1..=WORKERS as u64).contains(runs),
            "spec with {particles} particles ran {runs}x on {WORKERS} workers"
        );
    }
    let runs: u64 = real_by_particles.values().sum();
    assert_eq!(
        stats.cache_hits + runs,
        total,
        "every submission was a hit or a run"
    );
    server_records_reconcile(&report);
}

/// One record per submission; outcome counters match the records.
fn server_records_reconcile(report: &ShutdownReport) {
    let stats = &report.stats;
    let terminal = stats.completed + stats.rejected + stats.cancelled + stats.timed_out;
    assert_eq!(stats.submitted, terminal, "exactly one terminal each");
    assert_eq!(report.records.len() as u64, stats.submitted);
    let completed = report
        .records
        .iter()
        .filter(|r| r.outcome == "completed")
        .count() as u64;
    assert_eq!(completed, stats.completed);
}
