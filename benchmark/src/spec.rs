//! Names: the workloads and every metric, exactly as `/BENCHMARK.json`
//! lists them (a test holds the two together).

use std::collections::BTreeMap;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper scenario 1 at 10⁷ particles: bandwidth-bound sweep.
    SweepPrecalc,
    /// Paper scenario 2 at 10⁶ particles: compute-bound sweep.
    SweepAnalytic,
    /// Open-loop stream of small mixed jobs over the wire protocol.
    ServeSmallOpen,
    /// Closed-loop sharded 125 k-particle jobs returning their dumps.
    ServeShardClosed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepPrecalc,
        Workload::SweepAnalytic,
        Workload::ServeSmallOpen,
        Workload::ServeShardClosed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPrecalc => "sweep_precalc_soa_f32",
            Workload::SweepAnalytic => "sweep_analytic_soa_f32",
            Workload::ServeSmallOpen => "serve_small_open",
            Workload::ServeShardClosed => "serve_shard_closed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; every workload reports every one,
/// always with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("cpu_nsps", "ns"),
    m("peak_rss_mib", "MiB"),
];

/// Single-layer metrics of the traced run. A metric reads 0 on a
/// workload that does not run its layer (`serve.*` on the sweeps).
pub const PER_LAYER: &[MetricDef] = &[
    m("particles.init_nspp", "ns"),
    m("particles.init_range_nspp", "ns"),
    m("particles.morton_sort_nspp", "ns"),
    m("particles.dump_write_nspp", "ns"),
    m("particles.segment_build_nspp", "ns"),
    m("particles.segment_bytes_pp", "B"),
    m("particles.traverse_nsps", "ns"),
    m("fields.prepare_nspp", "ns"),
    m("fields.sample_nspp", "ns"),
    m("fields.block_copy_nspp", "ns"),
    m("core.kernel_nsps", "ns"),
    m("core.scalar_nsps", "ns"),
    m("core.flops_pp", "count"),
    m("core.bytes_pp", "B"),
    m("core.nsps_best", "ns"),
    m("runtime.nsps_1t", "ns"),
    m("runtime.nsps", "ns"),
    m("runtime.par_eff", "ratio"),
    m("runtime.time_imbalance", "ratio"),
    m("runtime.chunks_per_step", "count"),
    m("device.stage_nspp", "ns"),
    m("device.modeled_nsps", "ns"),
    m("telemetry.record_json_ns", "ns"),
    m("serve.job_p90_ms", "ms"),
    m("serve.queue_wait_p50_ms", "ms"),
    m("serve.run_p50_ms", "ms"),
    m("serve.gather_p50_us", "us"),
    m("serve.unattributed_share", "ratio"),
    m("serve.batch_size_mean", "count"),
    m("serve.cache_hit_share", "ratio"),
    m("serve.coalesced", "count"),
    m("serve.overhead_nsps", "ns"),
    m("serve.proto_roundtrip_us", "us"),
    m("serve.render_ms", "ms"),
    m("serve.p90_ms_at_half_rate", "ms"),
    m("serve.p90_ms_at_double_rate", "ms"),
    m("serve.p99_ms_at_rate", "ms"),
    m("serve.max_rate_ok", "1/s"),
    m("serve.gen_late_p99_ms", "ms"),
    m("trace.overhead_share", "ratio"),
];

/// What one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted: timed steps or jobs, plus output checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (tracing off) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Free-form notes for the human-readable output (sample counts,
    /// which percentile the sample supports).
    pub notes: Vec<String>,
}

/// Arguments of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunArgs {
    /// Seeds ensembles, the job mix and the arrival order.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// 1/20-scale smoke run for tests: same code path, no meaning in
    /// the numbers.
    pub quick: bool,
}

impl RunArgs {
    /// `full` particles or jobs, scaled down by 20 in a quick run.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Set-ups per run: at least this many, and more while they are cheap;
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
/// Time a run may spend on set-ups beyond the first [`MIN_SETUPS`].
const SETUP_BUDGET_S: f64 = 3.0;

/// Whether to set up once more, given the set-up times so far and how
/// many further set-ups the caller will do regardless.
pub fn more_setups(done_s: &[f64], still_to_come: usize) -> bool {
    let count = done_s.len() + still_to_come;
    count < MIN_SETUPS || (count < MAX_SETUPS && done_s.iter().sum::<f64>() < SETUP_BUDGET_S)
}
