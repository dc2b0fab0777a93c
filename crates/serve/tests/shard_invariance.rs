//! Shard-count invariance: the tentpole guarantee of the sharding
//! layer.
//!
//! Because the Boris pusher is particle-independent (neither benchmark
//! scenario has particle-particle interaction) and the seeded fill is
//! index-stable, domain-decomposing a job changes *how* it executes but
//! never *what* it computes. This suite proves it end to end: the same
//! `JobSpec` is run at K ∈ {1, 2, 3, 8} shards, in both layouts and
//! both precisions, and every merged particle dump must be **bitwise
//! identical** (text equality of the shortest-round-trip snapshot
//! format) to the monolithic K = 1 run.
//!
//! On top of the dumps, the merged diagnostics are reconciled exactly
//! against the per-shard telemetry records:
//!
//! * shard particle counts sum to the parent's (exact integers);
//! * particle-step and flop totals (via `KernelCost::boris`) match the
//!   monolithic run exactly — one multiply per side, no accumulation;
//! * the ensemble energy diagnostic (the gamma column of the dump),
//!   summed per shard and folded in shard order, is bitwise-equal to
//!   the same association over the monolithic dump.

use pic_particles::Layout;
use pic_perfmodel::{KernelCost, Precision};
use pic_serve::{JobSpec, Outcome, ServeConfig, Server, ShardPlan, ShutdownReport};
use pic_telemetry::BenchRecord;

const PARTICLES: usize = 96;
const STEPS: usize = 8;
const THRESHOLD: usize = 10;

fn spec(layout: Layout, precision: Precision) -> JobSpec {
    JobSpec {
        layout,
        precision,
        particles: PARTICLES,
        steps: STEPS,
        seed: 4242,
        return_particles: true,
        ..JobSpec::default()
    }
}

/// Runs `spec` on a fresh server configured for `shards` shards.
/// Caching is off so every K runs for real instead of being served
/// from a previous K's result — the cache key is *identical* across
/// shard counts by design.
fn run_sharded(spec: JobSpec, shards: usize) -> (String, usize, ShutdownReport) {
    let cfg = ServeConfig {
        workers: 2,
        cache_capacity: 0,
        shard_threshold: THRESHOLD,
        shards,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, &format!("inv-k{shards}"));
    let outcome = server.submit(spec, None).expect("admitted").wait();
    let Outcome::Completed(report) = outcome else {
        panic!("K={shards}: job did not complete: {outcome:?}");
    };
    let dump = report.particles.expect("dump requested");
    (dump, report.shards, server.shutdown())
}

/// Gamma column (index 7 of the dump's data rows), parsed losslessly.
fn gammas(dump: &str) -> Vec<f64> {
    dump.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let field = l.split_whitespace().nth(7).expect("gamma column");
            field.parse::<f64>().expect("gamma parses")
        })
        .collect()
}

/// Energy diagnostic with an explicit association: per-shard partial
/// sums (over the plan's ranges), folded in shard order. Running it
/// with the same plan over bitwise-equal dumps must give bitwise-equal
/// totals — the reconciliation the gather's merge claims.
fn sharded_energy(dump: &str, plan: &ShardPlan) -> f64 {
    let g = gammas(dump);
    let mut total = 0.0f64;
    for &(offset, len) in plan.ranges() {
        let mut part = 0.0f64;
        for v in &g[offset..offset + len] {
            part += v;
        }
        total += part;
    }
    total
}

/// Per-shard child records of the one sharded job, in shard-id order.
fn child_records(report: &ShutdownReport, shards: usize) -> Vec<&BenchRecord> {
    let mut children: Vec<&BenchRecord> = report
        .records
        .iter()
        .filter(|r| r.shards == shards as u64 && r.shard_id > 0)
        .collect();
    children.sort_by_key(|r| r.shard_id);
    children
}

#[test]
fn merged_dumps_are_bitwise_equal_across_shard_counts() {
    for layout in [Layout::Soa, Layout::Aos] {
        for precision in [Precision::F32, Precision::F64] {
            let tag = format!("{layout:?}/{precision:?}");
            let (reference, ref_shards, _) = run_sharded(spec(layout, precision), 1);
            assert_eq!(ref_shards, 0, "{tag}: K=1 runs monolithic");
            for k in [2usize, 3, 8] {
                let (dump, shards, out) = run_sharded(spec(layout, precision), k);
                assert_eq!(shards, k, "{tag}: report carries the shard count");
                assert_eq!(
                    dump, reference,
                    "{tag}: K={k} merged dump must be bitwise-identical to K=1"
                );
                assert_eq!(out.stats.sharded, 1, "{tag}: one fan-out");
                assert_eq!(
                    out.stats.submitted,
                    1 + k as u64,
                    "{tag}: parent plus K shard sub-jobs"
                );
                assert_eq!(out.stats.completed, 1 + k as u64);
                assert_eq!(out.records.len(), 1 + k, "one record per submission");
            }
        }
    }
}

/// The merged parent's record (and only it) measures the columnar
/// gather.
#[test]
fn parent_record_measures_the_gather() {
    let (_, _, out) = run_sharded(spec(Layout::Soa, Precision::F64), 3);
    let parent: Vec<&BenchRecord> = out
        .records
        .iter()
        .filter(|r| r.shards == 3 && r.shard_id == 0)
        .collect();
    assert_eq!(parent.len(), 1, "one merged parent record");
    assert!(parent[0].gather_ns > 0.0, "the gather was timed");
    for r in out.records.iter().filter(|r| r.shard_id > 0) {
        assert_eq!(r.gather_ns, 0.0, "shards do not gather");
    }
}

#[test]
fn merged_diagnostics_reconcile_against_per_shard_records() {
    let layout = Layout::Soa;
    let precision = Precision::F32;
    let s = spec(layout, precision);
    let (reference, _, _) = run_sharded(s.clone(), 1);
    for k in [2usize, 3, 8] {
        let (dump, _, out) = run_sharded(s.clone(), k);
        let children = child_records(&out, k);
        assert_eq!(children.len(), k, "K={k}: one child record per shard");
        let parent: Vec<&BenchRecord> = out
            .records
            .iter()
            .filter(|r| r.shards == k as u64 && r.shard_id == 0)
            .collect();
        assert_eq!(parent.len(), 1, "K={k}: exactly one merged parent record");

        // Exact integer reconciliation: particles and particle-steps.
        let shard_particles: u64 = children.iter().map(|r| r.particles).sum();
        assert_eq!(shard_particles, PARTICLES as u64, "K={k}: particles");
        let shard_psteps: u64 = children
            .iter()
            .map(|r| r.particles * r.steps_per_iteration)
            .sum();
        assert_eq!(shard_psteps, (PARTICLES * STEPS) as u64, "K={k}: steps");

        // Operation-count reconciliation via the perf model: one
        // multiply per side of exactly-equal integers, so the flop
        // totals must match bitwise, not approximately.
        let flops = KernelCost::boris(s.scenario, layout, precision).flops;
        assert_eq!(
            shard_psteps as f64 * flops,
            (PARTICLES * STEPS) as f64 * flops,
            "K={k}: total modeled flops"
        );

        // Energy diagnostic: same per-shard association over both
        // dumps — bitwise equality is inherited from the dump text.
        let plan = ShardPlan::new(PARTICLES, k);
        assert_eq!(plan.shards(), k);
        let merged_energy = sharded_energy(&dump, &plan);
        let reference_energy = sharded_energy(&reference, &plan);
        assert_eq!(
            merged_energy.to_bits(),
            reference_energy.to_bits(),
            "K={k}: gamma-sum energy reconciles exactly"
        );
    }
}

/// The cache key is deliberately shard-agnostic: a sharded producer
/// fills the same entry an unsharded run would, so a repeat submission
/// of the identical spec is a hit regardless of how the first run was
/// decomposed. The producer here does not ask for particles, so the
/// entry holds only its columns: a hit that asks gets them rendered —
/// bitwise the dump of a cache-less run — and a hit that does not ask
/// gets no text.
#[test]
fn sharded_and_unsharded_runs_share_one_cache_entry() {
    for layout in [Layout::Soa, Layout::Aos] {
        for precision in [Precision::F32, Precision::F64] {
            let (reference, _, _) = run_sharded(spec(layout, precision), 1);
            for producer_shards in [0usize, 3] {
                let tag = format!("{layout:?}/{precision:?} producer K={producer_shards}");
                let cfg = ServeConfig {
                    workers: 2,
                    cache_capacity: 8,
                    shard_threshold: if producer_shards > 0 { THRESHOLD } else { 0 },
                    shards: 3,
                    ..ServeConfig::default()
                };
                let server = Server::start(cfg, "inv-cache");
                let asks = spec(layout, precision);
                let quiet = JobSpec {
                    return_particles: false,
                    ..asks.clone()
                };
                let complete = |s: &JobSpec| {
                    let outcome = server.submit(s.clone(), None).expect("admitted").wait();
                    let Outcome::Completed(report) = outcome else {
                        panic!("{tag}: {outcome:?}");
                    };
                    report
                };
                let r1 = complete(&quiet);
                assert!(!r1.cache_hit, "{tag}: the producer ran");
                assert_eq!(r1.shards, producer_shards, "{tag}: producer shape");
                assert!(r1.particles.is_none(), "{tag}: producer did not ask");
                let r3 = complete(&asks);
                let r4 = complete(&quiet);
                for (what, r) in [("hit", &r3), ("quiet hit", &r4)] {
                    assert!(r.cache_hit, "{tag}: {what} served from the cache");
                    assert_eq!(r.queue_wait_ns, 0, "{tag}: {what}");
                    assert_eq!(
                        r.shards, producer_shards,
                        "{tag}: {what} reports its producer's shape"
                    );
                }
                assert_eq!(
                    r3.particles.as_deref(),
                    Some(reference.as_str()),
                    "{tag}: hit's dump rendered from the cached columns"
                );
                assert_eq!(r4.particles, None, "{tag}: a hit that does not ask");
                let out = server.shutdown();
                assert_eq!(out.stats.cache_hits, 2, "{tag}");
                assert_eq!(
                    out.stats.sharded,
                    u64::from(producer_shards > 0),
                    "{tag}: a hit never fans out"
                );
            }
        }
    }
}
