//! Shard strong scaling on this host, next to the perfmodel prediction.
//!
//! ```text
//! cargo run --release --example shard_scaling
//! PIC_SHARD_PARTICLES=1000000 PIC_SHARD_STEPS=10 cargo run --release --example shard_scaling
//! PIC_SHARD_OUT=BENCH_10.json cargo run --release --example shard_scaling
//! ```
//!
//! Submits the same over-threshold job to `pic-serve` at several shard
//! counts K and prints, for each K,
//! the merged NSPS the service reports (the slowest shard's run time
//! over the whole job's particle-steps — the critical path a K-worker
//! machine would observe), the measured end-to-end wall time on *this*
//! host, and the gather time the scheduler spent merging shard results.
//! A second sweep holds K fixed and grows the particle count to show
//! the columnar gather's cost staying flat: shards hand back typed
//! column segments, and when nobody asks for the merged text (no
//! `return_particles`, no cache) the gather renders nothing at all.
//! Alongside, the calibrated `pic-perfmodel` CPU model prints the
//! Fig. 1 strong-scaling speedups for the paper's 48-core node — the
//! curve a shard-per-core deployment is modeled to follow.
//!
//! With `PIC_SHARD_OUT` set (default `BENCH_10.json`), every merged
//! parent / monolithic record of both sweeps is written as telemetry
//! JSON lines for the regression gate and the CI artifact.
//!
//! Shard-count invariance (the merged dump is bitwise-identical at
//! every K) is proven by
//! `crates/serve/tests/shard_invariance.rs`; this example is about the
//! performance side of the same decomposition.

use std::time::Instant;

use pic_particles::Layout;
use pic_perfmodel::{CpuModel, Parallelization, Precision, Scenario};
use pic_serve::{JobReport, JobSpec, Outcome, ServeConfig, Server};
use pic_telemetry::{write_records, BenchRecord};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one sharded job and returns its report, the end-to-end wall
/// time in ms, and the merged-parent (or monolithic) telemetry records.
fn run_once(
    particles: usize,
    steps: usize,
    workers: usize,
    shards: usize,
    label: &str,
) -> (JobReport, f64, Vec<BenchRecord>) {
    let cfg = ServeConfig {
        workers,
        cache_capacity: 0, // every configuration must run for real
        shard_threshold: 1000,
        shards,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, label);
    let spec = JobSpec {
        particles,
        steps,
        seed: 99,
        ..JobSpec::default()
    };
    let start = Instant::now();
    let outcome = server.submit(spec, None).expect("admitted").wait();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let out = server.shutdown();
    let Outcome::Completed(report) = outcome else {
        panic!("{label}: job did not complete: {outcome:?}");
    };
    let parents: Vec<BenchRecord> = out
        .records
        .into_iter()
        .filter(|r| r.shard_id == 0)
        .collect();
    (report, wall_ms, parents)
}

fn main() {
    let particles = env_usize("PIC_SHARD_PARTICLES", 1_000_000);
    let steps = env_usize("PIC_SHARD_STEPS", 10);
    let workers = env_usize("PIC_SHARD_WORKERS", 4);
    let out_path = std::env::var("PIC_SHARD_OUT").unwrap_or_else(|_| "BENCH_10.json".to_string());

    println!("=== Modeled shard-per-core speedup (Endeavour node, Precalculated/SoA/float) ===");
    let model = CpuModel::endeavour();
    let curve = model.speedup_curve(
        Scenario::Precalculated,
        Layout::Soa,
        Precision::F32,
        Parallelization::DpcppNuma,
    );
    for k in [1usize, 2, 4, 8, 16, 32, 48] {
        if let Some(s) = curve.get(k - 1) {
            println!("  K={k:<2}  S(K)={s:.2}");
        }
    }

    let mut records: Vec<BenchRecord> = Vec::new();

    println!();
    println!(
        "=== Measured on this host: {particles} particles x {steps} steps, \
         {workers} workers ==="
    );
    let mut base_wall = None;
    for k in [1usize, 2, 4, 8] {
        let label = format!("shard-scaling-k{k}");
        let (report, wall_ms, parents) = run_once(particles, steps, workers, k, &label);
        let base = *base_wall.get_or_insert(wall_ms);
        println!(
            "  K={k:<2}  shards={:<2}  merged NSPS={:.3}  wall={wall_ms:.0} ms  \
             S(K)={:.2}  gather={} ns",
            report.shards,
            report.nsps,
            base / wall_ms,
            report.gather_ns,
        );
        records.extend(parents);
    }

    println!();
    println!("=== Gather cost vs particle count (K=4, no dump requested) ===");
    for n in [particles / 8, particles / 4, particles / 2, particles] {
        let label = format!("gather-sweep-n{n}");
        let (report, _, parents) = run_once(n, steps, workers, 4, &label);
        println!("  N={n:<9}  gather={} ns", report.gather_ns);
        records.extend(parents);
    }

    match write_records(std::path::Path::new(&out_path), &records) {
        Ok(()) => println!("\nwrote {} records to {out_path}", records.len()),
        Err(e) => eprintln!("\nfailed to write {out_path}: {e}"),
    }
}
