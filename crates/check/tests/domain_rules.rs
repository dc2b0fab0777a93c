//! The domain rules' verdicts (crates/check/src/analyze/domain.rs): in
//! each table the violating forms fire their rule and the conforming or
//! justified forms are clean. Every row is one file analyzed alone by
//! `analyze_sources`, and the row lists every finding it must produce,
//! in line order, so a rule that starts firing elsewhere fails too.

use pic_check::analyze::analyze_sources;

/// `(workspace-relative path, source, the rules it fires)`.
type Case = (&'static str, &'static str, &'static [&'static str]);

fn check(cases: &[Case]) {
    for (path, src, expected) in cases {
        let analysis = analyze_sources(&[(path.to_string(), src.to_string())]);
        let fired: Vec<&str> = analysis.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(&fired, expected, "{path}:\n{src}");
    }
}

const CLEAN: &[&str] = &[];
const PRECISION: &[&str] = &["precision-pollution"];
const INSTANT: &[&str] = &["instant-outside-telemetry"];
const SLEEP: &[&str] = &["sleep-in-service"];
const COLUMNS: &[&str] = &["column-list"];

/// A library source path outside every rule's special scope.
const LIB: &str = "crates/demo/src/demo.rs";
const KERNEL: &str = "crates/core/src/demo.rs";

const CLOCK_READ: &str = "fn f() { let t = std::time::Instant::now(); }\n";
const PAUSE: &str = "fn idle() { std::thread::sleep(IDLE_WAIT); }\n";
const PROXY: &str = "struct Lanes<'a, R> {\n    x: &'a mut [R],\n    y: &'a mut [R],\n    \
    z: &'a mut [R],\n    px: &'a mut [R],\n    py: &'a mut [R],\n    pz: &'a mut [R],\n}\n";

#[test]
fn precision_pollution_fires_on_casts_and_suffixes_in_real_generic_code() {
    let impl_level = "impl<R: Real> P<R> {\n    fn f(&self) { let c = 1.0f32; }\n}\n";
    let where_clause =
        "fn f<R>(x: R) -> R\nwhere\n    R: Real + Copy,\n{\n    let h = 2_f32;\n    x\n}\n";
    check(&[
        (
            KERNEL,
            "fn push<R: Real>(x: R) -> R {\n    let s = n as f64;\n    x\n}\n",
            PRECISION,
        ),
        ("crates/particles/src/demo.rs", impl_level, PRECISION),
        (KERNEL, where_clause, PRECISION),
    ]);
}

#[test]
fn precision_pollution_spares_boundary_conversions_and_non_kernel_code() {
    // Type mentions and from_f64/to_f64 boundaries are the intended
    // design; non-generic code may cast freely; outside the kernel scope
    // the rule does not apply at all; a justification silences a hit.
    let boundary = "fn setup<R: Real>(x: f64) -> R {\n    let v: Vec3<f64> = table();\n    \
        R::from_f64(x)\n}\n";
    let diag = "fn frac<R: Real>(n: usize, m: usize) -> f64 { n as f64 / m as f64 }\n";
    let justified = "fn f<R: Real>(n: usize) -> f64 {\n    \
        // analyze: allow(precision-pollution): diagnostic ratio\n    n as f64\n}\n";
    check(&[
        (KERNEL, boundary, CLEAN),
        (KERNEL, "fn stats(n: usize) -> f64 { n as f64 }\n", CLEAN),
        ("crates/sim/src/demo.rs", diag, CLEAN),
        (KERNEL, justified, CLEAN),
    ]);
}

#[test]
fn instant_stays_in_the_measuring_layers() {
    let justified = "// analyze: allow(instant-outside-telemetry): cold-path setup timing\n\
        fn f() { let t = Instant::now(); }\n";
    check(&[
        (LIB, CLOCK_READ, INSTANT),
        // The record schema and the regress gate read no clock.
        ("crates/telemetry/src/demo.rs", CLOCK_READ, INSTANT),
        ("crates/bench/src/demo.rs", CLOCK_READ, CLEAN),
        ("crates/runtime/src/sweep.rs", CLOCK_READ, CLEAN),
        // The runner every served job steps through is not a measuring
        // layer: pic-bench times it from outside.
        ("crates/sim/src/run.rs", CLOCK_READ, INSTANT),
        // The job service gets exactly one clock module; the rest of the
        // crate routes wall-time reads through it. The cache, checkpoint,
        // exec and shard modules are step-based, not wall-clock-based.
        ("crates/serve/src/clock.rs", CLOCK_READ, CLEAN),
        ("crates/serve/src/scheduler.rs", CLOCK_READ, INSTANT),
        ("crates/serve/src/cache.rs", CLOCK_READ, INSTANT),
        ("crates/serve/src/checkpoint.rs", CLOCK_READ, INSTANT),
        ("crates/serve/src/exec.rs", CLOCK_READ, INSTANT),
        ("crates/serve/src/shard.rs", CLOCK_READ, INSTANT),
        // The device layer has one clock module too (the executor times
        // launches through `Stopwatch`), so modeled GPU timings cannot be
        // mixed with ad-hoc host timers.
        ("crates/device/src/clock.rs", CLOCK_READ, CLEAN),
        ("crates/device/src/exec.rs", CLOCK_READ, INSTANT),
        (LIB, justified, CLEAN),
    ]);
}

#[test]
fn service_threads_block_instead_of_sleeping() {
    let imported = "use std::thread::sleep;\nfn idle() { sleep(IDLE_WAIT); }\n";
    let in_test = "#[cfg(test)]\nmod tests {\n    fn pause() { std::thread::sleep(D); }\n}\n";
    let justified =
        "// analyze: allow(sleep-in-service): back-off before re-reading a sysfs node\n\
        fn f() { std::thread::sleep(D); }\n";
    check(&[
        ("crates/serve/src/dispatch.rs", PAUSE, SLEEP),
        ("crates/runtime/src/sweep.rs", PAUSE, SLEEP),
        (
            "crates/serve/src/dispatch.rs",
            imported,
            &["sleep-in-service"; 2],
        ),
        // Tests may pause; so may code outside the service and its
        // runtime.
        ("crates/serve/src/dispatch.rs", in_test, CLEAN),
        ("crates/serve/tests/idle.rs", PAUSE, CLEAN),
        ("crates/telemetry/src/record.rs", PAUSE, CLEAN),
        ("crates/runtime/src/topology.rs", justified, CLEAN),
    ]);
}

#[test]
fn column_lists_are_declared_only_in_the_schema_module() {
    // A constructor that takes the columns one by one restates them as
    // much as a proxy struct does. Positions alone, locals in a body,
    // unit structs and path segments are not a column list.
    let ctor = "fn from_columns(\n    x: Vec<f32>, y: Vec<f32>, z: Vec<f32>,\n    \
        px: Vec<f32>, py: Vec<f32>, pz: Vec<f32>,\n) -> Store {\n    todo()\n}\n";
    let locals = "fn f(v: &V) {\n    let (x, y, z, px, py, pz) = v.get();\n    \
        let q: f32 = x + y + z + px + py + pz;\n}\n";
    let paths =
        "struct Marker;\nfn g(a: x::T, b: y::T, c: z::T, d: px::T, e: py::T, f: pz::T) {}\n";
    let justified = "// analyze: allow(column-list): FFI mirror of a C struct\n\
        struct Lanes<'a, R> {\n    x: &'a mut [R],\n    y: &'a mut [R],\n    \
        z: &'a mut [R],\n    px: &'a mut [R],\n    py: &'a mut [R],\n    pz: &'a mut [R],\n}\n";
    check(&[
        (LIB, PROXY, COLUMNS),
        (LIB, ctor, COLUMNS),
        ("crates/particles/src/columns.rs", PROXY, CLEAN),
        (LIB, "fn fill(x: &[f32], y: &[f32], z: &[f32]) {}\n", CLEAN),
        (LIB, locals, CLEAN),
        (LIB, paths, CLEAN),
        (LIB, justified, CLEAN),
    ]);
}
