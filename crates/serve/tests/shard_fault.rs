//! Per-shard fault injection: kill exactly one shard's worker and prove
//! the shard resumes from its checkpoint while its siblings never
//! notice — and the merged result stays bitwise-identical to an
//! uninterrupted, unsharded reference run.
//!
//! Kill-points for shards are armed through `KillPlan::arm_shard`, which
//! keys the point on [`shard_kill_key`] — a per-shard derivation of the
//! parent seed — so a point can strike one shard without aliasing its
//! siblings or a monolithic job with the same seed. A worker executes
//! one job at a time, so the panic takes down exactly one shard's
//! worker.
//!
//! The quick variant kills one mid-plan shard; the `#[ignore]`d sweep
//! kills every shard at several steps, plus a two-shard double kill,
//! and CI runs it in a dedicated `-- --ignored` step.

use pic_particles::Layout;
use pic_perfmodel::{Precision, Scenario};
use pic_serve::{shard_kill_key, JobSpec, KillPlan, Outcome, ServeConfig, Server, ShutdownReport};

const PARTICLES: usize = 60;
const STEPS: usize = 12;
const INTERVAL: usize = 3;
const SEED: u64 = 7117;
const SHARDS: usize = 3;

fn spec() -> JobSpec {
    JobSpec {
        particles: PARTICLES,
        steps: STEPS,
        seed: SEED,
        return_particles: true,
        ..JobSpec::default()
    }
}

/// The uninterrupted, *unsharded* reference dump of `spec`: no kill
/// plan, no checkpointing, no sharding — one monolithic sweep.
fn reference_dump(spec: &JobSpec) -> String {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, "shard-fault-ref");
    let outcome = server.submit(spec.clone(), None).expect("admitted").wait();
    let Outcome::Completed(report) = outcome else {
        panic!("reference did not complete: {outcome:?}");
    };
    report.particles.expect("reference dump")
}

/// Runs `spec` sharded under `plan`, asserting completion, and returns
/// the merged dump, the parent's resume count and the drained report.
fn run_with_plan(spec: &JobSpec, plan: KillPlan, label: &str) -> (String, u64, ShutdownReport) {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        checkpoint_interval: INTERVAL,
        max_resumes: 8,
        kill_plan: Some(plan),
        shard_threshold: 10,
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, label);
    let outcome = server.submit(spec.clone(), None).expect("admitted").wait();
    let Outcome::Completed(report) = outcome else {
        panic!("{label}: sharded job did not complete: {outcome:?}");
    };
    assert_eq!(
        report.shards, SHARDS,
        "{label}: merged from {SHARDS} shards"
    );
    let dump = report.particles.expect("merged dump");
    (dump, report.resumes, server.shutdown())
}

/// One kill on one shard: that shard resumes from its checkpoint, its
/// siblings run untouched, and the merge is bitwise-exact.
#[test]
fn killed_shard_resumes_while_siblings_run_untouched() {
    let reference = reference_dump(&spec());
    let plan = KillPlan::new();
    plan.arm_shard(SEED, 1, 5);
    assert_eq!(plan.armed(), 1);
    // The armed point must not alias the parent seed or other shards.
    assert!(!plan.fire(SEED, 5), "parent seed never fires a shard kill");
    assert!(!plan.fire(shard_kill_key(SEED, 0), 5), "sibling untouched");
    assert_eq!(plan.armed(), 1, "probes consumed nothing");

    let (dump, resumes, out) = run_with_plan(&spec(), plan.clone(), "shard-fault-quick");
    assert_eq!(plan.armed(), 0, "the kill-point fired");
    assert_eq!(
        dump, reference,
        "merged dump after a shard kill+resume must be bitwise-identical \
         to the uninterrupted unsharded run"
    );
    assert!(resumes >= 1, "the merged report sums the shard resumes");
    assert!(out.stats.resumed >= 1);
    assert_eq!(out.stats.exec_overruns, 0);

    // Telemetry: exactly the killed shard (1-based id 2) resumed.
    let mut shard_resumes = [0u64; SHARDS];
    for rec in out
        .records
        .iter()
        .filter(|r| r.shards == SHARDS as u64 && r.shard_id > 0)
    {
        shard_resumes[rec.shard_id as usize - 1] = rec.resumes;
        assert_eq!(rec.outcome, "completed", "{}", rec.label);
    }
    assert!(shard_resumes[1] >= 1, "the killed shard shows its resume");
    assert_eq!(shard_resumes[0], 0, "shard 0 never resumed");
    assert_eq!(shard_resumes[2], 0, "shard 2 never resumed");
}

/// The same kill on a shard of a Precalculated job: the resume splices
/// the checkpoint over a store whose per-particle fields were prepared
/// from the seeded t=0 positions.
#[test]
fn killed_shard_resumes_on_precalculated_fields() {
    for (layout, precision) in [(Layout::Aos, Precision::F64), (Layout::Soa, Precision::F32)] {
        let spec = JobSpec {
            scenario: Scenario::Precalculated,
            layout,
            precision,
            ..spec()
        };
        let label = format!("shard-fault-precalc-{}-{}", layout.name(), precision.name());
        let plan = KillPlan::new();
        plan.arm_shard(SEED, 1, 5);
        let (dump, resumes, out) = run_with_plan(&spec, plan.clone(), &label);
        assert_eq!(plan.armed(), 0, "{label}: the kill-point fired");
        assert_eq!(dump, reference_dump(&spec), "{label}: bitwise merge");
        assert!(resumes >= 1, "{label}: resume recorded");
        assert_eq!(out.stats.exec_overruns, 0, "{label}");
    }
}

/// Every shard, several kill steps, plus a two-shard double kill — the
/// merged dump survives them all bitwise.
#[test]
#[ignore = "per-shard kill sweep; run via cargo test -p pic-serve -- --ignored"]
fn every_shard_survives_kills_at_every_interval() {
    let reference = reference_dump(&spec());
    for shard in 0..SHARDS {
        for step in [2usize, 5, 8, 11] {
            let plan = KillPlan::new();
            plan.arm_shard(SEED, shard, step);
            let label = format!("shard-fault-s{shard}-t{step}");
            let (dump, resumes, out) = run_with_plan(&spec(), plan.clone(), &label);
            assert_eq!(plan.armed(), 0, "{label}: kill fired");
            assert_eq!(dump, reference, "{label}: bitwise merge");
            assert!(resumes >= 1, "{label}: resume recorded");
            assert_eq!(out.stats.exec_overruns, 0, "{label}");
        }
    }
    // Two different shards die at different steps of the same run.
    let plan = KillPlan::new();
    plan.arm_shard(SEED, 0, 4);
    plan.arm_shard(SEED, 2, 9);
    let (dump, resumes, _) = run_with_plan(&spec(), plan.clone(), "shard-fault-double");
    assert_eq!(plan.armed(), 0, "both kills fired");
    assert_eq!(dump, reference, "double kill: bitwise merge");
    assert!(resumes >= 2, "both shards resumed");
}
