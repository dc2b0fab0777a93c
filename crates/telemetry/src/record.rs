//! The versioned `BenchRecord` schema and its JSON-lines persistence.
//!
//! One [`BenchRecord`] captures everything one measured benchmark
//! configuration produced: the identity of the cell (layout, scenario,
//! precision, schedule, topology, workload), the full per-iteration NSPS
//! series with its warmup/steady split, per-thread work totals from the
//! sweep telemetry, load imbalance, the kernel's flop/byte tallies, and
//! the roofline model's prediction for reconciliation.
//!
//! Files are JSON-lines: one record per line, so artifacts concatenate
//! and `grep`/`jq` cleanly. The `schema` field gates evolution: readers
//! reject records from a newer major schema instead of misreading them.

use crate::json::{parse, ParseError, Value};
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Current schema version written by this crate.
pub const SCHEMA_VERSION: u64 = 1;

/// Per-thread totals of one measured run (all sweeps of all iterations).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadStat {
    /// Global thread id.
    pub thread: u64,
    /// NUMA domain of the thread.
    pub domain: u64,
    /// Work items the thread executed.
    pub chunks: u64,
    /// Particles the thread processed.
    pub particles: u64,
    /// Wall time the thread spent in kernel work, nanoseconds.
    pub busy_ns: u64,
}

/// One measured benchmark configuration, ready for persistence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema: u64,
    /// Human-chosen label of the emitting run (`BENCH_<label>.json`).
    pub label: String,
    /// Particle layout: `"AoS"` or `"SoA"`.
    pub layout: String,
    /// Benchmark scenario (paper §5.2), e.g. `"Precalculated Fields"`.
    pub scenario: String,
    /// Floating-point precision: `"float"` or `"double"`.
    pub precision: String,
    /// Schedule name (paper naming), e.g. `"OpenMP"` or `"DPC++ NUMA"`.
    pub schedule: String,
    /// Worker threads used.
    pub threads: u64,
    /// NUMA domains of the topology.
    pub domains: u64,
    /// Macroparticles in the ensemble.
    pub particles: u64,
    /// Pusher steps per measured iteration.
    pub steps_per_iteration: u64,
    /// Measured iterations (first one is warmup).
    pub iterations: u64,
    /// Wall time of every iteration, nanoseconds, in run order.
    pub iteration_ns: Vec<f64>,
    /// NSPS of the first (warmup/JIT/cold-cache) iteration.
    pub warmup_nsps: f64,
    /// Mean NSPS excluding the first iteration — the headline number and
    /// the quantity the regression gate compares.
    pub steady_nsps: f64,
    /// Mean NSPS over all iterations.
    pub mean_nsps: f64,
    /// Particle-count load imbalance: busiest thread / mean, so 1.0 is
    /// ideal; 0.0 means undefined — fewer than two threads (a device
    /// launch has none) or no work counted. Every producer (bench
    /// harness, served jobs, sweep reports) computes it with
    /// `pic_runtime::imbalance_of`.
    pub imbalance: f64,
    /// Busy-time load imbalance, same convention (0.0 when untimed).
    pub time_imbalance: f64,
    /// Per-thread totals, ordered by thread id.
    pub thread_stats: Vec<ThreadStat>,
    /// Kernel flop-equivalents per particle per step (pusher tally).
    pub flops_per_particle: f64,
    /// Kernel DRAM bytes per particle per step (pusher tally).
    pub bytes_per_particle: f64,
    /// Roofline-model NSPS prediction for this host/config (0 when the
    /// model has no calibration for the host).
    pub model_nsps: f64,
    /// `steady_nsps / model_nsps` (0 when no prediction).
    pub model_ratio: f64,
    /// Time the job spent queued before execution started, nanoseconds
    /// (0 for bench-harness records, which never queue).
    pub queue_wait_ns: f64,
    /// Number of jobs this record's work ran together with: 1 for a
    /// served job (the service runs one job per execution) and for
    /// bench-harness records; 0 for jobs that never ran.
    pub batch_size: u64,
    /// Terminal outcome of the producing job: `"completed"`,
    /// `"rejected"`, `"cancelled"` or `"timed-out"` (bench-harness
    /// records always complete).
    pub outcome: String,
    /// Pusher kernel variant that produced the record: `"scalar"` (the
    /// oracle) or `"soa-fast"` (the blocked production kernel). A free
    /// string, so files written while a `"batch"` (gather/scatter)
    /// variant existed still key. Empty for records written before
    /// variants existed.
    pub kernel_variant: String,
    /// Fraction of adjacent particle pairs in nondecreasing cell order
    /// when the measured run started: 1.0 = fully sorted, ~0.5 = random.
    /// 0 for records written before locality sorting was instrumented.
    pub order_fraction: f64,
    /// True when the job was served from the result cache, at submit or
    /// when a worker claimed it, instead of running a sweep.
    /// False for bench-harness records and pre-cache service records.
    pub cache_hit: bool,
    /// Times the producing job was requeued after a worker death and
    /// resumed from a checkpoint (0 = uninterrupted).
    pub resumes: u64,
    /// Step the final execution resumed from (0 unless `resumes > 0`).
    pub resumed_from_step: u64,
    /// Shard count of the sharded job this record belongs to (0 =
    /// unsharded, the historical default).
    pub shards: u64,
    /// Position within a sharded job when `shards > 0`: 0 = the merged
    /// parent record, 1..=shards = the individual shard sub-jobs.
    pub shard_id: u64,
    /// Execution target that produced the record: `"p630"` or
    /// `"iris-xe-max"` for device-backend runs, empty for host runs and
    /// for records written before the device backend existed.
    pub device: String,
    /// True when the record's shard ran pinned to a dedicated worker
    /// slot (or is the merged parent of a pinned sharded job), as in
    /// `BENCH_10.json`. Nothing sets it since shard pinning was deleted;
    /// it is read back so such files still diff.
    pub pinned: bool,
    /// Nanoseconds the scheduler spent merging shard results into the
    /// parent's dump (columnar splice or legacy text concatenation).
    /// Non-zero only on merged parent records; 0 for records written
    /// before the gather was instrumented.
    pub gather_ns: f64,
}

impl BenchRecord {
    /// The identity key used to match records across two files: every
    /// field that names the configuration, none that measures it.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|{}|{}|{}|t{}|d{}|n{}|s{}",
            self.layout,
            self.scenario,
            self.precision,
            self.schedule,
            self.threads,
            self.domains,
            self.particles,
            self.steps_per_iteration,
        );
        // Additive: variant-less (pre-fast-path) records keep their old
        // key so existing baselines still match.
        if !self.kernel_variant.is_empty() {
            key.push_str("|k");
            key.push_str(&self.kernel_variant);
        }
        // Additive: unsharded records keep their old key, while the
        // shards of one job (which may share a particle count) and its
        // merged parent stay distinct from each other and from an
        // unsharded run of the same spec.
        if self.shards > 0 {
            key.push_str(&format!("|S{}.{}", self.shards, self.shard_id));
        }
        // Additive: host records keep their old key, while runs of the
        // same spec on different modeled devices stay distinct.
        if !self.device.is_empty() {
            key.push_str("|D");
            key.push_str(&self.device);
        }
        // Additive: unpinned records keep their old key, while pinned
        // and unpinned runs of the same sharded spec stay distinct
        // (they schedule differently, so their measurements are not
        // interchangeable). `gather_ns` is a measurement, not identity.
        if self.pinned {
            key.push_str("|P");
        }
        key
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let num = |x: f64| Value::Num(x);
        let int = |x: u64| Value::Num(x as f64);
        Value::obj([
            ("schema", int(self.schema)),
            ("label", Value::Str(self.label.clone())),
            ("layout", Value::Str(self.layout.clone())),
            ("scenario", Value::Str(self.scenario.clone())),
            ("precision", Value::Str(self.precision.clone())),
            ("schedule", Value::Str(self.schedule.clone())),
            ("threads", int(self.threads)),
            ("domains", int(self.domains)),
            ("particles", int(self.particles)),
            ("steps_per_iteration", int(self.steps_per_iteration)),
            ("iterations", int(self.iterations)),
            (
                "iteration_ns",
                Value::Arr(self.iteration_ns.iter().map(|&x| Value::Num(x)).collect()),
            ),
            ("warmup_nsps", num(self.warmup_nsps)),
            ("steady_nsps", num(self.steady_nsps)),
            ("mean_nsps", num(self.mean_nsps)),
            ("imbalance", num(self.imbalance)),
            ("time_imbalance", num(self.time_imbalance)),
            (
                "thread_stats",
                Value::Arr(
                    self.thread_stats
                        .iter()
                        .map(|t| {
                            Value::obj([
                                ("thread", int(t.thread)),
                                ("domain", int(t.domain)),
                                ("chunks", int(t.chunks)),
                                ("particles", int(t.particles)),
                                ("busy_ns", int(t.busy_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("flops_per_particle", num(self.flops_per_particle)),
            ("bytes_per_particle", num(self.bytes_per_particle)),
            ("model_nsps", num(self.model_nsps)),
            ("model_ratio", num(self.model_ratio)),
            ("queue_wait_ns", num(self.queue_wait_ns)),
            ("batch_size", int(self.batch_size)),
            ("outcome", Value::Str(self.outcome.clone())),
            ("kernel_variant", Value::Str(self.kernel_variant.clone())),
            ("order_fraction", num(self.order_fraction)),
            ("cache_hit", Value::Bool(self.cache_hit)),
            ("resumes", int(self.resumes)),
            ("resumed_from_step", int(self.resumed_from_step)),
            ("shards", int(self.shards)),
            ("shard_id", int(self.shard_id)),
            ("device", Value::Str(self.device.clone())),
            ("pinned", Value::Bool(self.pinned)),
            ("gather_ns", num(self.gather_ns)),
        ])
        .to_json()
    }

    /// Parses one JSON line.
    pub fn from_json(line: &str) -> Result<BenchRecord, RecordError> {
        let v = parse(line)?;
        let schema = field_u64(&v, "schema")?;
        if schema > SCHEMA_VERSION {
            return Err(RecordError::Schema(schema));
        }
        let stat = |sv: &Value| -> Result<ThreadStat, RecordError> {
            Ok(ThreadStat {
                thread: field_u64(sv, "thread")?,
                domain: field_u64(sv, "domain")?,
                chunks: field_u64(sv, "chunks")?,
                particles: field_u64(sv, "particles")?,
                busy_ns: field_u64(sv, "busy_ns")?,
            })
        };
        Ok(BenchRecord {
            schema,
            label: field_str(&v, "label")?,
            layout: field_str(&v, "layout")?,
            scenario: field_str(&v, "scenario")?,
            precision: field_str(&v, "precision")?,
            schedule: field_str(&v, "schedule")?,
            threads: field_u64(&v, "threads")?,
            domains: field_u64(&v, "domains")?,
            particles: field_u64(&v, "particles")?,
            steps_per_iteration: field_u64(&v, "steps_per_iteration")?,
            iterations: field_u64(&v, "iterations")?,
            iteration_ns: field_arr(&v, "iteration_ns")?
                .iter()
                .map(|x| x.as_f64().ok_or(RecordError::Field("iteration_ns")))
                .collect::<Result<_, _>>()?,
            warmup_nsps: field_f64(&v, "warmup_nsps")?,
            steady_nsps: field_f64(&v, "steady_nsps")?,
            mean_nsps: field_f64(&v, "mean_nsps")?,
            imbalance: field_f64(&v, "imbalance")?,
            time_imbalance: field_f64(&v, "time_imbalance")?,
            thread_stats: field_arr(&v, "thread_stats")?
                .iter()
                .map(stat)
                .collect::<Result<_, _>>()?,
            flops_per_particle: field_f64(&v, "flops_per_particle")?,
            bytes_per_particle: field_f64(&v, "bytes_per_particle")?,
            model_nsps: field_f64(&v, "model_nsps")?,
            model_ratio: field_f64(&v, "model_ratio")?,
            // Service fields are additive within schema 1: records
            // written before the serving layer existed simply lack
            // them, so absence falls back to the defaults instead of
            // failing the whole record.
            queue_wait_ns: v
                .get("queue_wait_ns")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            batch_size: v.get("batch_size").and_then(Value::as_u64).unwrap_or(0),
            outcome: v
                .get("outcome")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            // Fast-path fields are likewise additive within schema 1.
            kernel_variant: v
                .get("kernel_variant")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            order_fraction: v
                .get("order_fraction")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            // Cache/resume fields are likewise additive within schema 1.
            cache_hit: matches!(v.get("cache_hit"), Some(Value::Bool(true))),
            resumes: v.get("resumes").and_then(Value::as_u64).unwrap_or(0),
            resumed_from_step: v
                .get("resumed_from_step")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            // Sharding fields are likewise additive within schema 1.
            shards: v.get("shards").and_then(Value::as_u64).unwrap_or(0),
            shard_id: v.get("shard_id").and_then(Value::as_u64).unwrap_or(0),
            // The device dimension is likewise additive within schema 1.
            device: v
                .get("device")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned(),
            // Pinning/gather fields are likewise additive within schema 1.
            pinned: matches!(v.get("pinned"), Some(Value::Bool(true))),
            gather_ns: v.get("gather_ns").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }
}

fn field_u64(v: &Value, key: &'static str) -> Result<u64, RecordError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or(RecordError::Field(key))
}

fn field_f64(v: &Value, key: &'static str) -> Result<f64, RecordError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or(RecordError::Field(key))
}

fn field_str(v: &Value, key: &'static str) -> Result<String, RecordError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or(RecordError::Field(key))
}

fn field_arr<'v>(v: &'v Value, key: &'static str) -> Result<&'v [Value], RecordError> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(RecordError::Field(key))
}

/// Error produced when loading records.
#[derive(Debug)]
pub enum RecordError {
    /// The line is not valid JSON.
    Json(ParseError),
    /// The record is from an unknown, newer schema version.
    Schema(u64),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
    /// The file could not be read.
    Io(io::Error),
}

impl From<ParseError> for RecordError {
    fn from(e: ParseError) -> RecordError {
        RecordError::Json(e)
    }
}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> RecordError {
        RecordError::Io(e)
    }
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Json(e) => write!(f, "{e}"),
            RecordError::Schema(v) => write!(
                f,
                "record has schema version {v}, this build reads up to {SCHEMA_VERSION}"
            ),
            RecordError::Field(k) => write!(f, "missing or mistyped field '{k}'"),
            RecordError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Writes `records` to `path` as JSON-lines (one record per line).
pub fn write_records(path: &Path, records: &[BenchRecord]) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(file, "{}", r.to_json())?;
    }
    file.flush()
}

/// Reads every record from the JSON-lines file at `path`, skipping blank
/// lines.
pub fn read_records(path: &Path) -> Result<Vec<BenchRecord>, RecordError> {
    let file = io::BufReader::new(std::fs::File::open(path)?);
    let mut out = Vec::new();
    for line in file.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(BenchRecord::from_json(&line)?);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) fn sample_record(label: &str, steady_nsps: f64) -> BenchRecord {
    BenchRecord {
        schema: SCHEMA_VERSION,
        label: label.into(),
        layout: "SoA".into(),
        scenario: "Precalculated Fields".into(),
        precision: "float".into(),
        schedule: "DPC++".into(),
        threads: 4,
        domains: 2,
        particles: 100_000,
        steps_per_iteration: 50,
        iterations: 3,
        iteration_ns: vec![3.2e8, 2.9e8, 2.8e8],
        warmup_nsps: 64.0,
        steady_nsps,
        mean_nsps: steady_nsps * 1.05,
        imbalance: 1.02,
        time_imbalance: 1.1,
        thread_stats: (0..4)
            .map(|t| ThreadStat {
                thread: t,
                domain: t / 2,
                chunks: 12,
                particles: 25_000,
                busy_ns: 7_000_000 + t * 11,
            })
            .collect(),
        flops_per_particle: 80.0,
        bytes_per_particle: 54.0,
        model_nsps: 0.0,
        model_ratio: 0.0,
        queue_wait_ns: 0.0,
        batch_size: 1,
        outcome: "completed".into(),
        kernel_variant: "soa-fast".into(),
        order_fraction: 0.93,
        cache_hit: false,
        resumes: 0,
        resumed_from_step: 0,
        shards: 0,
        shard_id: 0,
        device: String::new(),
        pinned: false,
        gather_ns: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_exactly() {
        let r = sample_record("rt", 57.25);
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = BenchRecord::from_json(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn key_identifies_configuration_not_measurement() {
        let a = sample_record("a", 10.0);
        let mut b = sample_record("b", 99.0);
        b.iteration_ns = vec![1.0];
        assert_eq!(a.key(), b.key());
        let mut c = sample_record("a", 10.0);
        c.layout = "AoS".into();
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn newer_schema_is_rejected() {
        let mut r = sample_record("future", 1.0);
        r.schema = SCHEMA_VERSION + 1;
        let err = BenchRecord::from_json(&r.to_json()).unwrap_err();
        assert!(
            matches!(err, RecordError::Schema(v) if v == SCHEMA_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let err = BenchRecord::from_json(r#"{"schema": 1}"#).unwrap_err();
        assert!(err.to_string().contains("label"), "{err}");
    }

    #[test]
    fn pre_service_record_parses_with_default_service_fields() {
        // A line written before queue_wait_ns/batch_size/outcome existed
        // must still load: the fields are additive within schema 1.
        let mut r = sample_record("old", 42.0);
        r.queue_wait_ns = 0.0;
        r.batch_size = 0;
        r.outcome = String::new();
        r.kernel_variant = String::new();
        r.order_fraction = 0.0;
        let mut v = parse(&r.to_json()).unwrap();
        if let Value::Obj(map) = &mut v {
            for key in [
                "queue_wait_ns",
                "batch_size",
                "outcome",
                "kernel_variant",
                "order_fraction",
                "cache_hit",
                "resumes",
                "resumed_from_step",
                "shards",
                "shard_id",
                "device",
                "pinned",
                "gather_ns",
            ] {
                assert!(map.remove(key).is_some());
            }
        }
        let stripped = v.to_json();
        assert!(!stripped.contains("queue_wait_ns"));
        let back = BenchRecord::from_json(&stripped).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn kernel_variant_distinguishes_keys_additively() {
        // Two records differing only in variant must not collide, while a
        // pre-variant record keeps the historical key format.
        let fast = sample_record("a", 10.0);
        let mut batch = sample_record("a", 10.0);
        batch.kernel_variant = "batch".into();
        assert_ne!(fast.key(), batch.key());
        assert!(fast.key().ends_with("|ksoa-fast"));
        let mut legacy = sample_record("a", 10.0);
        legacy.kernel_variant = String::new();
        assert!(!legacy.key().contains("|k"));
    }

    #[test]
    fn shard_fields_distinguish_keys_additively() {
        // Two shards of one job can share a particle count; the merged
        // parent shares the spec with an unsharded run. All four keys
        // must stay distinct, while pre-sharding records keep theirs.
        let unsharded = sample_record("a", 10.0);
        assert!(!unsharded.key().contains("|S"));
        let mut parent = sample_record("a", 10.0);
        parent.shards = 2;
        parent.shard_id = 0;
        let mut shard1 = sample_record("a", 10.0);
        shard1.shards = 2;
        shard1.shard_id = 1;
        let mut shard2 = sample_record("a", 10.0);
        shard2.shards = 2;
        shard2.shard_id = 2;
        let keys = [unsharded.key(), parent.key(), shard1.key(), shard2.key()];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(parent.key().ends_with("|S2.0"));
    }

    #[test]
    fn device_distinguishes_keys_additively() {
        // The same spec run on different modeled devices must not
        // collide, while host records keep the historical key format.
        let host = sample_record("a", 10.0);
        let mut p630 = sample_record("a", 10.0);
        p630.device = "p630".into();
        let mut iris = sample_record("a", 10.0);
        iris.device = "iris-xe-max".into();
        assert_ne!(host.key(), p630.key());
        assert_ne!(p630.key(), iris.key());
        assert!(p630.key().ends_with("|Dp630"));
        assert!(iris.key().ends_with("|Diris-xe-max"));
        // Host records keep the historical key: the device run's key is
        // exactly the host key plus the appended dimension.
        assert_eq!(format!("{}|Dp630", host.key()), p630.key());
    }

    #[test]
    fn pinned_distinguishes_keys_additively() {
        // Pinned and unpinned runs of the same sharded spec schedule
        // differently, so their records must not collide — while
        // pre-pinning (unpinned) records keep the historical key, and
        // gather_ns stays a measurement with no key impact.
        let unpinned = sample_record("a", 10.0);
        let mut pinned = sample_record("a", 10.0);
        pinned.pinned = true;
        assert_ne!(unpinned.key(), pinned.key());
        assert_eq!(format!("{}|P", unpinned.key()), pinned.key());
        let mut gathered = sample_record("a", 10.0);
        gathered.gather_ns = 12_345.0;
        assert_eq!(unpinned.key(), gathered.key());
    }

    #[test]
    fn file_round_trip_json_lines() {
        let dir = std::env::temp_dir().join("pic_telemetry_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let records = vec![sample_record("one", 50.0), sample_record("two", 60.0)];
        write_records(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one record per line");
        let back = read_records(&path).unwrap();
        assert_eq!(back, records);
        std::fs::remove_file(&path).unwrap();
    }
}
