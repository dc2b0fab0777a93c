//! The typed job API: what a client asks for and what it gets back.
//!
//! A [`JobSpec`] names one simulation request in the benchmark's terms —
//! scenario, layout, precision, particle count, steps — plus the serving
//! knobs: priority lane, optional wall-clock timeout and deadline, a
//! seed for the deterministic initial ensemble, and whether the final
//! particle state should be returned (via `pic_particles::io`).
//!
//! Every job admitted by the scheduler terminates in exactly one
//! [`Outcome`]; jobs refused at admission get an explicit
//! [`RejectReason`] — the service never drops work silently.

use pic_particles::{ColumnSegment, Layout};
use pic_perfmodel::{Precision, Scenario};
use pic_runtime::ExecTarget;
use pic_telemetry::json::Value;
use std::sync::Arc;

/// Priority lane of a job. Higher lanes are dispatched first.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub enum Priority {
    /// Dispatched before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Dispatched only when higher lanes are empty.
    Low,
}

impl Priority {
    /// Lane index: 0 = high … 2 = low.
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One simulation job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Benchmark scenario to run (paper §5.2).
    pub scenario: Scenario,
    /// Particle storage layout.
    pub layout: Layout,
    /// Floating-point precision of the kernel.
    pub precision: Precision,
    /// Macroparticles in the job's ensemble.
    pub particles: usize,
    /// Pusher steps to integrate.
    pub steps: usize,
    /// Priority lane.
    pub priority: Priority,
    /// Wall-clock budget from admission, milliseconds; exceeded jobs
    /// terminate `TimedOut` at the next step boundary. `None` = no limit.
    pub timeout_ms: Option<u64>,
    /// Client deadline used for dispatch ordering (earlier first within
    /// a lane). Not an enforcement mechanism — that is `timeout_ms`.
    pub deadline_ms: Option<u64>,
    /// Seed of the deterministic initial ensemble.
    pub seed: u64,
    /// Return the final particle state in the completion report.
    pub return_particles: bool,
    /// Execution target: `"host"` (the default) runs the job's sweep on
    /// the host thread pool; `"p630"` / `"iris-xe-max"` route it through
    /// the device backend (same trajectories bitwise, modeled timing).
    /// Unknown names are shed at validation with `Rejected{invalid}`.
    pub device: String,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            scenario: Scenario::Analytical,
            layout: Layout::Soa,
            precision: Precision::F32,
            particles: 1_000,
            steps: 10,
            priority: Priority::Normal,
            timeout_ms: None,
            deadline_ms: None,
            seed: 42,
            return_particles: false,
            device: "host".to_string(),
        }
    }
}

impl JobSpec {
    /// Checks the spec against the service limits; `Err` holds a
    /// human-readable reason for a `Rejected{Invalid}` response.
    pub fn validate(&self, max_particles: usize, max_steps: usize) -> Result<(), String> {
        if self.particles == 0 {
            return Err("particles must be > 0".to_string());
        }
        if self.particles > max_particles {
            return Err(format!(
                "particles {} exceeds service limit {max_particles}",
                self.particles
            ));
        }
        if self.steps == 0 {
            return Err("steps must be > 0".to_string());
        }
        if self.steps > max_steps {
            return Err(format!(
                "steps {} exceeds service limit {max_steps}",
                self.steps
            ));
        }
        if ExecTarget::parse(&self.device).is_none() {
            return Err(format!(
                "unknown device {:?} (expected one of: {})",
                self.device,
                ExecTarget::all().map(|t| t.name()).join(", ")
            ));
        }
        Ok(())
    }

    /// Serializes for the wire protocol.
    pub fn to_value(&self) -> Value {
        let mut entries = vec![
            ("scenario", Value::Str(scenario_wire(self.scenario).into())),
            ("layout", Value::Str(self.layout.name().into())),
            ("precision", Value::Str(self.precision.name().into())),
            ("particles", Value::Num(self.particles as f64)),
            ("steps", Value::Num(self.steps as f64)),
            ("priority", Value::Str(self.priority.name().into())),
            ("seed", Value::Num(self.seed as f64)),
            ("return_particles", Value::Bool(self.return_particles)),
        ];
        if let Some(t) = self.timeout_ms {
            entries.push(("timeout_ms", Value::Num(t as f64)));
        }
        if let Some(d) = self.deadline_ms {
            entries.push(("deadline_ms", Value::Num(d as f64)));
        }
        // Additive wire field: host jobs stay byte-identical to the
        // pre-device protocol.
        if self.device != "host" {
            entries.push(("device", Value::Str(self.device.clone())));
        }
        Value::obj(entries)
    }

    /// Parses a wire-protocol spec object. Missing optional fields take
    /// their defaults; a missing or malformed required field is an error.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let dflt = JobSpec::default();
        let scenario = match v.get("scenario").and_then(Value::as_str) {
            Some(s) => parse_scenario(s).ok_or_else(|| format!("unknown scenario {s:?}"))?,
            None => dflt.scenario,
        };
        let layout = match v.get("layout").and_then(Value::as_str) {
            Some(s) => parse_layout(s).ok_or_else(|| format!("unknown layout {s:?}"))?,
            None => dflt.layout,
        };
        let precision = match v.get("precision").and_then(Value::as_str) {
            Some(s) => parse_precision(s).ok_or_else(|| format!("unknown precision {s:?}"))?,
            None => dflt.precision,
        };
        let priority = match v.get("priority").and_then(Value::as_str) {
            Some(s) => Priority::parse(s).ok_or_else(|| format!("unknown priority {s:?}"))?,
            None => dflt.priority,
        };
        let particles = v
            .get("particles")
            .map(|x| x.as_u64().ok_or("particles must be a non-negative integer"))
            .transpose()?
            .map_or(dflt.particles, |n| n as usize);
        let steps = v
            .get("steps")
            .map(|x| x.as_u64().ok_or("steps must be a non-negative integer"))
            .transpose()?
            .map_or(dflt.steps, |n| n as usize);
        let seed = v
            .get("seed")
            .map(|x| x.as_u64().ok_or("seed must be a non-negative integer"))
            .transpose()?
            .unwrap_or(dflt.seed);
        let timeout_ms = v
            .get("timeout_ms")
            .map(|x| {
                x.as_u64()
                    .ok_or("timeout_ms must be a non-negative integer")
            })
            .transpose()?;
        let deadline_ms = v
            .get("deadline_ms")
            .map(|x| {
                x.as_u64()
                    .ok_or("deadline_ms must be a non-negative integer")
            })
            .transpose()?;
        let return_particles = match v.get("return_particles") {
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("return_particles must be a boolean".to_string()),
            None => dflt.return_particles,
        };
        // Canonicalize known aliases (`iris` → `iris-xe-max`); unknown
        // names are kept verbatim so `validate` can shed them with the
        // offending string in the reason.
        let device = match v.get("device").and_then(Value::as_str) {
            Some(s) => ExecTarget::parse(s).map_or_else(|| s.to_string(), |t| t.name().to_string()),
            None => dflt.device.clone(),
        };
        Ok(JobSpec {
            scenario,
            layout,
            precision,
            particles,
            steps,
            priority,
            timeout_ms,
            deadline_ms,
            seed,
            return_particles,
            device,
        })
    }
}

/// Wire name of a scenario (lowercase; `Scenario::name` is the paper's
/// table label).
pub fn scenario_wire(s: Scenario) -> &'static str {
    match s {
        Scenario::Precalculated => "precalculated",
        Scenario::Analytical => "analytical",
    }
}

/// Parses a wire scenario name.
pub fn parse_scenario(s: &str) -> Option<Scenario> {
    match s {
        "precalculated" => Some(Scenario::Precalculated),
        "analytical" => Some(Scenario::Analytical),
        _ => None,
    }
}

/// Parses a wire layout name (both `"AoS"` and `"aos"` spellings).
pub fn parse_layout(s: &str) -> Option<Layout> {
    match s {
        "AoS" | "aos" => Some(Layout::Aos),
        "SoA" | "soa" => Some(Layout::Soa),
        _ => None,
    }
}

/// Parses a wire precision name.
pub fn parse_precision(s: &str) -> Option<Precision> {
    match s {
        "float" | "f32" => Some(Precision::F32),
        "double" | "f64" => Some(Precision::F64),
        _ => None,
    }
}

/// Why a submission was refused. Always reported explicitly.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum RejectReason {
    /// The bounded admission queue is full (load shedding).
    QueueFull,
    /// The service is draining for shutdown.
    ShuttingDown,
    /// The spec failed validation.
    Invalid(String),
    /// The worker executing the job panicked.
    WorkerPanic,
}

impl RejectReason {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::Invalid(_) => "invalid",
            RejectReason::WorkerPanic => "worker-panic",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            RejectReason::QueueFull => "admission queue full; retry later".to_string(),
            RejectReason::ShuttingDown => "service is draining".to_string(),
            RejectReason::Invalid(why) => why.clone(),
            RejectReason::WorkerPanic => "worker panicked while executing the job".to_string(),
        }
    }
}

/// Measured results of a completed job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobReport {
    /// Throughput: nanoseconds per particle per step of the job's run
    /// (the paper's NSPS metric).
    pub nsps: f64,
    /// Time from admission until a worker claimed the job, ns.
    pub queue_wait_ns: u64,
    /// Time from the claim until the first step: seeding the ensemble,
    /// preparing the fields and, on a resume, splicing the checkpoint,
    /// ns. On a merged parent, the largest of its shards'.
    pub setup_ns: u64,
    /// Wall time of the job's steps, ns.
    pub run_ns: u64,
    /// Jobs executed in one sweep. The service runs one job per
    /// execution, so this is always 1; the wire and `BenchRecord` keep
    /// the field.
    pub batch_size: usize,
    /// Steps actually integrated (equals the spec's `steps` unless the
    /// job stopped early).
    pub steps_done: usize,
    /// Particle-count load imbalance of the job's sweeps (0.0 when
    /// single-threaded).
    pub imbalance: f64,
    /// Busy-time load imbalance of the job's sweeps.
    pub time_imbalance: f64,
    /// Final particle state (`pic_particles::io` text format), present
    /// when the spec asked for `return_particles`, on the copy a
    /// [`JobTicket`](crate::JobTicket) hands out: it joins `dump` into
    /// this, newlines restored. Never set inside the service. The wire
    /// escapes it into a JSON string body once (`proto::write_outcome`).
    pub particles: Option<String>,
    /// The same text inside the service, in the pieces it was rendered
    /// in, shared and never joined: one for a monolithic run or a cache
    /// hit; one per shard, in plan order, for a merged parent (shard 0's
    /// leads with the header); none when the spec did not ask. Each piece
    /// is already the body of a JSON string — the text with every newline
    /// written as `\n`, its only character JSON escapes — rendered so by
    /// the shard module's `render_rows`, the one producer; the wire writes
    /// the pieces one after another verbatim (`proto::write_outcome`).
    pub dump: Vec<Arc<String>>,
    /// True when the result was served from the deterministic result
    /// cache, at submit or when a worker claimed the job, instead of a
    /// fresh sweep. Cache hits always report `queue_wait_ns = 0`.
    pub cache_hit: bool,
    /// Times the job was requeued after a worker death and picked up
    /// again (0 = ran uninterrupted).
    pub resumes: u64,
    /// Step the final execution resumed from (0 = started from the
    /// initial ensemble; meaningful when `resumes > 0`).
    pub resumed_from_step: u64,
    /// Shards the job was domain-decomposed into (0 = ran monolithic).
    /// A sharded completion carries the *merged* measurements: its dump
    /// is bitwise-identical to the monolithic run's.
    pub shards: usize,
    /// Final particle state of a shard sub-job as a typed column
    /// segment, handed to the gather. `None` for monolithic jobs and for
    /// merged parents: their segments go to the result cache, their text
    /// (if asked for) to `dump`. Shared, so the outcome's trip through
    /// the finish path, the gather and the cache copies no columns.
    pub columns: Option<Arc<ColumnSegment>>,
    /// Time a shard sub-job spent rendering its piece of `dump`, ns.
    /// Zero everywhere else: a merged parent bills its slowest shard's
    /// render to `gather_ns`.
    pub render_ns: u64,
    /// Time the scatter-gather merge spent splicing the shard results
    /// plus, if the requester asked for particles, the render of its
    /// slowest shard — the render on the job's critical path — ns.
    /// Non-zero only on the merged parent of a sharded completion.
    pub gather_ns: u64,
}

impl JobReport {
    /// Moves the `dump` pieces into `particles`, joined and with each
    /// escaped newline turned back into one: what a caller outside the
    /// service reads. The inverse of the render, whose text holds no
    /// other escape.
    pub(crate) fn join_dump(&mut self) {
        if !self.dump.is_empty() {
            let body: String = self.dump.iter().map(|p| p.as_str()).collect();
            self.particles = Some(body.replace("\\n", "\n"));
            self.dump.clear();
        }
    }
}

/// The exactly-once terminal state of a job.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Ran to completion.
    Completed(JobReport),
    /// Refused — at admission or by worker-panic isolation.
    Rejected(RejectReason),
    /// Cancelled by request before or during execution.
    Cancelled,
    /// Exceeded its wall-clock timeout.
    TimedOut,
}

impl Outcome {
    /// Telemetry/wire name of the outcome.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::Rejected(_) => "rejected",
            Outcome::Cancelled => "cancelled",
            Outcome::TimedOut => "timed-out",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_the_wire_value() {
        let spec = JobSpec {
            scenario: Scenario::Precalculated,
            layout: Layout::Aos,
            precision: Precision::F64,
            particles: 777,
            steps: 3,
            priority: Priority::High,
            timeout_ms: Some(1_500),
            deadline_ms: Some(9),
            seed: 1,
            return_particles: true,
            device: "p630".to_string(),
        };
        let back = JobSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn device_is_additive_on_the_wire() {
        // Host specs serialize without a device entry at all, so the
        // wire format is byte-identical to the pre-device protocol.
        assert!(JobSpec::default().to_value().get("device").is_none());
        // Known aliases canonicalize; unknown names survive verbatim so
        // validation can name them in the rejection.
        let v = Value::obj([("device", Value::Str("iris".into()))]);
        assert_eq!(JobSpec::from_value(&v).unwrap().device, "iris-xe-max");
        let v = Value::obj([("device", Value::Str("fpga".into()))]);
        let spec = JobSpec::from_value(&v).unwrap();
        assert_eq!(spec.device, "fpga");
        let err = spec.validate(10_000, 100).unwrap_err();
        assert!(err.contains("fpga"), "{err}");
    }

    #[test]
    fn missing_fields_take_defaults() {
        let spec = JobSpec::from_value(&Value::obj([])).unwrap();
        assert_eq!(spec, JobSpec::default());
    }

    #[test]
    fn bad_fields_are_named_errors() {
        let v = Value::obj([("scenario", Value::Str("warp-drive".into()))]);
        let err = JobSpec::from_value(&v).unwrap_err();
        assert!(err.contains("warp-drive"), "{err}");
        let v = Value::obj([("particles", Value::Str("many".into()))]);
        assert!(JobSpec::from_value(&v).is_err());
    }

    #[test]
    fn validation_enforces_service_limits() {
        let mut spec = JobSpec::default();
        assert!(spec.validate(10_000, 100).is_ok());
        spec.particles = 0;
        assert!(spec.validate(10_000, 100).is_err());
        spec.particles = 20_000;
        assert!(spec.validate(10_000, 100).unwrap_err().contains("limit"));
        spec.particles = 10;
        spec.steps = 101;
        assert!(spec.validate(10_000, 100).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Priority::parse("high"), Some(Priority::High));
        assert_eq!(Priority::Normal.lane(), 1);
        assert_eq!(RejectReason::QueueFull.name(), "queue-full");
        assert_eq!(Outcome::Cancelled.name(), "cancelled");
        assert_eq!(parse_layout("SoA"), Some(Layout::Soa));
        assert_eq!(parse_precision("double"), Some(Precision::F64));
        assert_eq!(parse_scenario("analytical"), Some(Scenario::Analytical));
    }
}
