//! Seeded-violation corpus for `pic-analyze`.
//!
//! Each fixture is a tiny self-contained "workspace" (one or two files,
//! given as raw string literals so the scanner blanks them and this
//! file stays invisible to the real workspace run) that violates
//! exactly one rule. `pic_analyze --seeded` analyzes every fixture and
//! exits `0` only when some expected rule *fails* to fire — CI inverts
//! the exit code: a passing CI step proves
//! the analyzer still catches every seeded bug.

/// One seeded violation: `(name, expected rule, files)`.
pub type Fixture = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

/// The corpus — at least one fixture per rule id.
pub const FIXTURES: &[Fixture] = &[
    (
        "relaxed-without-justification",
        "atomics-missing-justification",
        &[(
            "crates/demo/src/counter.rs",
            r#"
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counter {
    pub n: AtomicUsize,
}

impl Counter {
    pub fn bump(&self) -> usize {
        self.n.fetch_add(1, Ordering::Relaxed)
    }
}
"#,
        )],
    ),
    (
        "justification-without-em-dash",
        "atomics-malformed-justification",
        &[(
            "crates/demo/src/counter.rs",
            r#"
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counter {
    pub n: AtomicUsize,
}

impl Counter {
    pub fn bump(&self) -> usize {
        // ordering: relaxed is fine for a statistics counter
        self.n.fetch_add(1, Ordering::Relaxed)
    }
}
"#,
        )],
    ),
    (
        "stale-justification-names-wrong-variant",
        "atomics-stale-justification",
        &[(
            "crates/demo/src/counter.rs",
            r#"
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counter {
    pub n: AtomicUsize,
}

impl Counter {
    pub fn bump(&self) -> usize {
        // ordering: Acquire — pairs with the Release store in `seal`
        self.n.fetch_add(1, Ordering::Relaxed)
    }
}
"#,
        )],
    ),
    (
        "orphan-justification-comment",
        "atomics-orphan-justification",
        &[(
            "crates/demo/src/counter.rs",
            r#"
pub fn plain() -> usize {
    // ordering: Relaxed — leftover from a counter that was removed
    41 + 1
}
"#,
        )],
    ),
    (
        "release-store-with-no-acquire-load",
        "atomics-unpaired-release",
        &[(
            "crates/demo/src/flag.rs",
            r#"
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Flag {
    pub ready: AtomicBool,
}

impl Flag {
    pub fn publish(&self) {
        self.ready.store(true, Ordering::Release);
    }

    pub fn peek(&self) -> bool {
        // ordering: Relaxed — deliberately unpaired for the fixture
        self.ready.load(Ordering::Relaxed)
    }
}
"#,
        )],
    ),
    (
        "acquire-load-with-no-release-store",
        "atomics-unpaired-acquire",
        &[(
            "crates/demo/src/flag.rs",
            r#"
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Flag {
    pub ready: AtomicBool,
}

impl Flag {
    pub fn publish(&self) {
        // ordering: Relaxed — deliberately unpaired for the fixture
        self.ready.store(true, Ordering::Relaxed);
    }

    pub fn wait_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }
}
"#,
        )],
    ),
    (
        "allocation-smuggled-into-kernel-helper",
        "purity-alloc",
        &[(
            "crates/demo/src/kernel.rs",
            r#"
pub struct SoaBorisKernel;

impl SoaBorisKernel {
    pub fn apply_chunk(&self, out: &mut [f64]) {
        let scratch = make_scratch();
        for (o, s) in out.iter_mut().zip(scratch.iter()) {
            *o += *s;
        }
    }
}

fn make_scratch() -> Vec<f64> {
    Vec::with_capacity(8)
}
"#,
        )],
    ),
    (
        "allocation-behind-device-kernel-entry",
        "purity-alloc",
        &[(
            "crates/demo/src/exec.rs",
            r#"
pub struct DeviceExecutor;

impl DeviceExecutor {
    pub fn execute_chunk(&self, out: &mut [f64]) {
        let staged = stage(out.len());
        for (o, s) in out.iter_mut().zip(staged.iter()) {
            *o += *s;
        }
    }
}

fn stage(n: usize) -> Vec<f64> {
    Vec::with_capacity(n)
}
"#,
        )],
    ),
    (
        "lock-inside-pusher",
        "purity-lock",
        &[(
            "crates/demo/src/pusher.rs",
            r#"
use std::sync::Mutex;

pub trait Pusher {
    fn push(&self, x: &mut [f64]);
}

pub struct LockingPusher {
    pub state: Mutex<f64>,
}

impl Pusher for LockingPusher {
    fn push(&self, x: &mut [f64]) {
        let _guard = self.state.lock();
        for v in x.iter_mut() {
            *v += 1.0;
        }
    }
}
"#,
        )],
    ),
    (
        "print-inside-pusher",
        "purity-io",
        &[(
            "crates/demo/src/pusher.rs",
            r#"
pub trait Pusher {
    fn push(&self, x: &mut [f64]);
}

pub struct ChattyPusher;

impl Pusher for ChattyPusher {
    fn push(&self, x: &mut [f64]) {
        println!("pushing a chunk of len {}", x.len());
        for v in x.iter_mut() {
            *v += 1.0;
        }
    }
}
"#,
        )],
    ),
    (
        "unwrap-inside-sampler",
        "purity-panic",
        &[(
            "crates/demo/src/sampler.rs",
            r#"
pub trait BatchSampler {
    fn sample_into(&self, out: &mut [f64]);
}

pub struct FirstSampler;

impl BatchSampler for FirstSampler {
    fn sample_into(&self, out: &mut [f64]) {
        let _v = out.first().copied().unwrap();
    }
}
"#,
        )],
    ),
    (
        "unjustified-indexing-in-field-source",
        "purity-index",
        &[(
            "crates/demo/src/fields.rs",
            r#"
pub trait FieldSource {
    fn field_block(&self, out: &mut [f64], i: usize);
}

pub struct PointSource;

impl FieldSource for PointSource {
    fn field_block(&self, out: &mut [f64], i: usize) {
        out[i] = 1.0;
    }
}
"#,
        )],
    ),
    (
        "inverted-lock-pair",
        "lock-order-cycle",
        &[(
            "crates/serve/src/seeded_cycle.rs",
            r#"
use std::sync::{Mutex, MutexGuard};

pub struct TwoLocks {
    pub jobs: Mutex<u32>,
    pub results: Mutex<u32>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("mutex poisoned")
}

impl TwoLocks {
    pub fn forward(&self) {
        let g = lock(&self.jobs);
        let _h = lock(&self.results);
        drop(g);
    }

    pub fn backward(&self) {
        let g = lock(&self.results);
        let _h = lock(&self.jobs);
        drop(g);
    }
}
"#,
        )],
    ),
];

/// Runs the whole corpus; returns `(fixture name, expected rule,
/// caught)` per fixture.
pub fn run_all() -> Vec<(&'static str, &'static str, bool)> {
    FIXTURES
        .iter()
        .map(|(name, rule, files)| {
            let sources: Vec<(String, String)> = files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect();
            let analysis = super::analyze_sources(&sources);
            let caught = analysis.diagnostics.iter().any(|d| d.rule == *rule);
            (*name, *rule, caught)
        })
        .collect()
}
