//! What the service counts and what it records: the counter table
//! behind `stats`, and the one telemetry record every submission emits.
//!
//! The counters are declared once, as a table: `Counter` indexes the
//! atomics in `Counters`, [`ServeStats`] is a snapshot of them (plus the
//! admission depth, a gauge) with named fields, and
//! [`ServeStats::members`] is that snapshot as the wire sees it —
//! `proto::stats_line` writes every member, so a counter added here
//! cannot be left off the wire.

use crate::job::{JobSpec, Outcome};
use crate::scheduler::Shared;
use pic_runtime::sync::lock;
use pic_runtime::{ExecTarget, Schedule};
use pic_sim::{KernelVariant, RecordSubject};
use pic_telemetry::BenchRecord;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of one counter in the table.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum Counter {
    /// Ids handed out (== submissions attempted, including rejects).
    Submitted,
    Completed,
    Rejected,
    Cancelled,
    TimedOut,
    /// Jobs served from the result cache (at submit or claim time).
    CacheHits,
    /// Requeues after a worker death (checkpoint resumes).
    Resumed,
    /// Jobs observed with more executions than `1 + resumes` allows
    /// (must stay 0).
    ExecOverruns,
    /// Over-threshold jobs fanned out into shard sub-jobs.
    Sharded,
}

impl Counter {
    /// The counter a terminal outcome is tallied under.
    fn of(outcome: &Outcome) -> Counter {
        match outcome {
            Outcome::Completed(_) => Counter::Completed,
            Outcome::Rejected(_) => Counter::Rejected,
            Outcome::Cancelled => Counter::Cancelled,
            Outcome::TimedOut => Counter::TimedOut,
        }
    }
}

/// The service's monotonic counters.
#[derive(Default)]
pub(crate) struct Counters {
    slots: [AtomicU64; Counter::Sharded as usize + 1],
}

impl Counters {
    /// Adds one to `counter`; returns its value before.
    pub fn bump(&self, counter: Counter) -> u64 {
        // ordering: Relaxed — monotonic statistics that publish no other
        // data (ids taken from `Submitted` only need uniqueness); read
        // for snapshots only.
        self.slots[counter as usize].fetch_add(1, Ordering::Relaxed)
    }

    /// The counters' current values, plus the admission `depth` gauge.
    pub fn snapshot(&self, depth: usize) -> ServeStats {
        // ordering: Relaxed — snapshot of monotonic counters.
        let at = |counter: Counter| self.slots[counter as usize].load(Ordering::Relaxed);
        ServeStats {
            submitted: at(Counter::Submitted),
            completed: at(Counter::Completed),
            rejected: at(Counter::Rejected),
            cancelled: at(Counter::Cancelled),
            timed_out: at(Counter::TimedOut),
            depth,
            cache_hits: at(Counter::CacheHits),
            resumed: at(Counter::Resumed),
            exec_overruns: at(Counter::ExecOverruns),
            sharded: at(Counter::Sharded),
        }
    }
}

/// Counter snapshot of the service.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
pub struct ServeStats {
    /// Submissions attempted (including shed ones).
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs shed at admission or failed by worker panic.
    pub rejected: u64,
    /// Jobs cancelled by request.
    pub cancelled: u64,
    /// Jobs that exceeded their wall-clock budget.
    pub timed_out: u64,
    /// Jobs admitted but not yet terminal.
    pub depth: usize,
    /// Jobs served from the deterministic result cache.
    pub cache_hits: u64,
    /// Checkpoint resumes after worker deaths.
    pub resumed: u64,
    /// Jobs observed executing more often than their resume budget
    /// allows (invariant: 0).
    pub exec_overruns: u64,
    /// Over-threshold jobs fanned out into shard sub-jobs.
    pub sharded: u64,
}

impl ServeStats {
    /// The snapshot as the wire sees it: every field under its own
    /// name, in declaration order.
    pub fn members(&self) -> [(&'static str, u64); 10] {
        [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("cancelled", self.cancelled),
            ("timed_out", self.timed_out),
            ("depth", self.depth as u64),
            ("cache_hits", self.cache_hits),
            ("resumed", self.resumed),
            ("exec_overruns", self.exec_overruns),
            ("sharded", self.sharded),
        ]
    }
}

/// Everything `shutdown` hands back after the drain.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Final counters.
    pub stats: ServeStats,
    /// One telemetry record per submission, in finish order.
    pub records: Vec<BenchRecord>,
}

impl Shared {
    /// The current counter snapshot.
    pub(crate) fn stats_snapshot(&self) -> ServeStats {
        self.counters.snapshot(self.admission.depth())
    }

    /// Appends the job's telemetry record and tallies its outcome.
    /// Every submission — admitted or shed — produces exactly one record
    /// and one count, so both always reconcile with a submission count
    /// (shard sub-jobs take ids from the same counter, so the invariant
    /// covers them too). `shard` is the record's `(shards, shard_id)`
    /// coordinates, `None` for monolithic jobs.
    pub(crate) fn emit_record(
        &self,
        id: u64,
        spec: &JobSpec,
        outcome: &Outcome,
        submitted_ns: u64,
        shard: Option<(u64, u64)>,
    ) {
        let report = match outcome {
            Outcome::Completed(r) => Some(r),
            _ => None,
        };
        let nsps = report.map_or(0.0, |r| r.nsps);
        let subject = RecordSubject {
            label: &format!("{}/job{}", self.label, id),
            layout: spec.layout,
            scenario: spec.scenario,
            precision: spec.precision,
            schedule: Schedule::dynamic(),
            // Jobs run through the SoA fast path in their seeded
            // particle order (exec.rs): nothing sorts, so nothing
            // measures `order_fraction` and it stays 0, as in every
            // record.
            variant: KernelVariant::SoaFast,
            topology: &self.cfg.topology,
            // Picks the model; a name validation refused predicts as
            // the host.
            target: ExecTarget::parse(&spec.device).unwrap_or_default(),
            particles: spec.particles,
            steps_per_iteration: spec.steps,
        };
        let rec = BenchRecord {
            iterations: 1,
            iteration_ns: report.map_or_else(Vec::new, |r| vec![r.run_ns as f64]),
            warmup_nsps: nsps,
            mean_nsps: nsps,
            imbalance: report.map_or(0.0, |r| r.imbalance),
            time_imbalance: report.map_or(0.0, |r| r.time_imbalance),
            queue_wait_ns: report.map_or_else(
                || self.clock.now_ns().saturating_sub(submitted_ns) as f64,
                |r| r.queue_wait_ns as f64,
            ),
            batch_size: report.map_or(0, |r| r.batch_size as u64),
            outcome: outcome.name().to_string(),
            cache_hit: report.is_some_and(|r| r.cache_hit),
            // The dimension is the name as submitted — also on the shed
            // record of a device validation refused. Host jobs keep the
            // legacy empty one.
            device: if spec.device == "host" {
                String::new()
            } else {
                spec.device.clone()
            },
            resumes: report.map_or(0, |r| r.resumes),
            resumed_from_step: report.map_or(0, |r| r.resumed_from_step),
            shards: shard.map_or(0, |(k, _)| k),
            shard_id: shard.map_or(0, |(_, i)| i),
            gather_ns: report.map_or(0.0, |r| r.gather_ns as f64),
            ..subject.record(nsps)
        };
        lock(&self.records).push(rec);
        self.counters.bump(Counter::of(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{ServeConfig, Server};

    /// Field names of `ServeStats`, read off its derived `Debug` — a
    /// source the counter table cannot influence.
    fn struct_field_names() -> Vec<String> {
        let debug = format!("{:?}", ServeStats::default());
        let body = debug
            .trim_start_matches("ServeStats {")
            .trim_end_matches('}');
        body.split(',')
            .filter_map(|field| field.split(':').next())
            .map(|name| name.trim().to_string())
            .collect()
    }

    #[test]
    fn the_table_names_exactly_the_fields_of_the_snapshot() {
        let names = ServeStats::default().members().map(|(name, _)| name);
        assert_eq!(struct_field_names(), names);
        // Counter → field → wire slot: bump the k-th counter k times.
        let all = [
            Counter::Submitted,
            Counter::Completed,
            Counter::Rejected,
            Counter::Cancelled,
            Counter::TimedOut,
            Counter::CacheHits,
            Counter::Resumed,
            Counter::ExecOverruns,
            Counter::Sharded,
        ];
        let counters = Counters::default();
        for counter in all {
            for _ in 0..=counter as usize {
                counters.bump(counter);
            }
        }
        let stats = counters.snapshot(77);
        let values = stats.members().map(|(_, value)| value);
        assert_eq!(values, [1, 2, 3, 4, 5, 77, 6, 7, 8, 9]);
        assert_eq!((stats.submitted, stats.sharded, stats.depth), (1, 9, 77));
    }

    #[test]
    fn bumps_land_in_their_own_slot_and_depth_is_sampled() {
        let counters = Counters::default();
        assert_eq!(counters.bump(Counter::Submitted), 0);
        assert_eq!(counters.bump(Counter::Submitted), 1);
        counters.bump(Counter::of(&Outcome::TimedOut));
        counters.bump(Counter::ExecOverruns);
        let expect = ServeStats {
            submitted: 2,
            timed_out: 1,
            depth: 5,
            exec_overruns: 1,
            ..ServeStats::default()
        };
        assert_eq!(counters.snapshot(5), expect);
    }

    /// The record keys below are what the hand-written literal this
    /// builder replaced produced; the model half is new on this path.
    #[test]
    fn served_records_keep_their_keys_and_carry_the_model() {
        let cfg = ServeConfig {
            workers: 2,
            shard_threshold: 1_000,
            shards: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg, "keys");
        let host = JobSpec {
            particles: 200,
            ..JobSpec::default()
        };
        let device = JobSpec {
            device: "p630".to_string(),
            ..host.clone()
        };
        let sharded = JobSpec {
            particles: 1_500,
            ..JobSpec::default()
        };
        let unknown = JobSpec {
            device: "fpga".to_string(),
            ..host.clone()
        };
        for spec in [host, device, sharded] {
            let ticket = server.submit(spec, None).expect("admitted");
            assert!(matches!(ticket.wait(), Outcome::Completed(_)));
        }
        assert!(server.submit(unknown, None).is_err());
        let mut keys: Vec<String> = Vec::new();
        for rec in server.shutdown().records {
            assert!(rec.flops_per_particle > 0.0 && rec.bytes_per_particle > 0.0);
            assert!(rec.model_nsps > 0.0, "{}", rec.key());
            assert_eq!(rec.model_ratio > 0.0, rec.outcome == "completed");
            assert_eq!(rec.model_ratio, rec.steady_nsps / rec.model_nsps);
            keys.push(rec.key());
        }
        keys.sort();
        let prefix = "SoA|Analytical Fields|float|DPC++|t1|d1";
        let expect = [
            format!("{prefix}|n1500|s10|ksoa-fast|S2.0"),
            format!("{prefix}|n200|s10|ksoa-fast"),
            format!("{prefix}|n200|s10|ksoa-fast|Dfpga"),
            format!("{prefix}|n200|s10|ksoa-fast|Dp630"),
            format!("{prefix}|n750|s10|ksoa-fast|S2.1"),
            format!("{prefix}|n750|s10|ksoa-fast|S2.2"),
        ];
        assert_eq!(keys, expect);
    }
}
