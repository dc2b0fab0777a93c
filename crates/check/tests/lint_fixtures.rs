//! One fixture per lint rule: the violating form fires, the justified /
//! conforming form is clean. The final test runs the linter over the
//! real workspace and requires zero findings, so CI cannot go green
//! while an invariant is broken.

use pic_check::{lint_source, lint_workspace};

fn rules(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).into_iter().map(|d| d.rule).collect()
}

// A library source path that is not a crate root (crate roots would
// additionally trip `forbid-unsafe-attr` on attribute-less fixtures).
const LIB: &str = "crates/demo/src/demo.rs";

#[test]
fn precision_pollution_fires_on_casts_and_suffixes_in_real_generic_code() {
    let bad_cast = "fn push<R: Real>(x: R) -> R {\n    let s = n as f64;\n    x\n}\n";
    assert_eq!(
        rules("crates/core/src/demo.rs", bad_cast),
        vec!["precision-pollution"]
    );

    let bad_suffix = "impl<R: Real> P<R> {\n    fn f(&self) { let c = 1.0f32; }\n}\n";
    assert_eq!(
        rules("crates/particles/src/demo.rs", bad_suffix),
        vec!["precision-pollution"]
    );
}

#[test]
fn precision_pollution_spares_boundary_conversions_and_non_kernel_code() {
    // Type mentions and from_f64/to_f64 boundaries are the intended design.
    let boundary =
        "fn setup<R: Real>(x: f64) -> R {\n    let v: Vec3<f64> = table();\n    R::from_f64(x)\n}\n";
    assert!(rules("crates/core/src/demo.rs", boundary).is_empty());

    // Non-generic code may cast freely.
    let plain = "fn stats(n: usize) -> f64 { n as f64 }\n";
    assert!(rules("crates/core/src/demo.rs", plain).is_empty());

    // Outside the kernel scope the rule does not apply at all.
    let diag = "fn frac<R: Real>(n: usize, m: usize) -> f64 { n as f64 / m as f64 }\n";
    assert!(rules("crates/sim/src/demo.rs", diag).is_empty());

    // An inline justification silences an in-scope hit.
    let justified = "fn f<R: Real>(n: usize) -> f64 {\n    \
        // lint: allow(precision-pollution): diagnostic ratio\n    n as f64\n}\n";
    assert!(rules("crates/core/src/demo.rs", justified).is_empty());
}

#[test]
fn unsafe_is_refused_everywhere() {
    let bad = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert_eq!(rules(LIB, bad), vec!["unsafe-outside-allowlist"]);

    // `unsafe_code` (the lint name) is not the keyword.
    let attr = "#![forbid(unsafe_code)]\nfn f() {}\n";
    assert!(!rules(LIB, attr).contains(&"unsafe-outside-allowlist"));

    // No inline escape hatch: a justification comment does not help.
    let justified = "// lint: allow(unsafe-outside-allowlist): please\nfn f() { unsafe {} }\n";
    assert_eq!(rules(LIB, justified), vec!["unsafe-outside-allowlist"]);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let missing = "//! docs\npub fn f() {}\n";
    assert_eq!(
        rules("crates/demo/src/lib.rs", missing),
        vec!["forbid-unsafe-attr"]
    );

    let present = "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(rules("crates/demo/src/lib.rs", present).is_empty());

    // Non-root files are not checked.
    assert!(rules("crates/demo/src/other.rs", missing).is_empty());
}

#[test]
fn instant_stays_in_the_measuring_layers() {
    let bad = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(rules(LIB, bad), vec!["instant-outside-telemetry"]);

    // The record schema and the regress gate read no clock.
    assert_eq!(
        rules("crates/telemetry/src/demo.rs", bad),
        vec!["instant-outside-telemetry"]
    );
    assert!(rules("crates/bench/src/demo.rs", bad).is_empty());
    assert!(rules("crates/runtime/src/sweep.rs", bad).is_empty());
    // The runner every served job steps through is not a measuring
    // layer: pic-bench times it from outside.
    assert_eq!(
        rules("crates/sim/src/run.rs", bad),
        vec!["instant-outside-telemetry"],
        "pic-sim has no clock"
    );

    // The job service gets exactly one clock module; the rest of the
    // crate must route wall-time reads through it.
    assert!(rules("crates/serve/src/clock.rs", bad).is_empty());
    assert_eq!(
        rules("crates/serve/src/scheduler.rs", bad),
        vec!["instant-outside-telemetry"],
        "only clock.rs is allowlisted in pic-serve"
    );
    // The cache/checkpoint/shard subsystem is deliberately step-based,
    // not wall-clock-based: checkpoints land at step-segment boundaries,
    // the kill plan keys on (seed, step), and the shard gather merges
    // timings the workers already measured through clock.rs. None of
    // these modules earned an allowlist slot, and the lint must keep
    // firing there.
    for module in [
        "crates/serve/src/cache.rs",
        "crates/serve/src/checkpoint.rs",
        "crates/serve/src/exec.rs",
        "crates/serve/src/shard.rs",
    ] {
        assert_eq!(
            rules(module, bad),
            vec!["instant-outside-telemetry"],
            "{module} must route wall-time reads through clock.rs"
        );
    }

    // The device layer follows the same discipline: one clock module
    // (the executor times launches through `Stopwatch`), and the rest
    // of pic-device stays off the raw wall clock so modeled GPU timings
    // can't be quietly mixed with ad-hoc host timers.
    assert!(rules("crates/device/src/clock.rs", bad).is_empty());
    assert_eq!(
        rules("crates/device/src/exec.rs", bad),
        vec!["instant-outside-telemetry"],
        "the executor must route wall-time reads through clock.rs"
    );

    let justified =
        "// lint: allow(instant-outside-telemetry): cold-path setup timing\nfn f() { let t = Instant::now(); }\n";
    assert!(rules(LIB, justified).is_empty());
}

#[test]
fn service_threads_block_instead_of_sleeping() {
    let bad = "fn idle() { std::thread::sleep(IDLE_WAIT); }\n";
    let imported = "use std::thread::sleep;\nfn idle() { sleep(IDLE_WAIT); }\n";
    for module in [
        "crates/serve/src/dispatch.rs",
        "crates/runtime/src/sweep.rs",
    ] {
        assert_eq!(rules(module, bad), vec!["sleep-in-service"], "{module}");
    }
    assert_eq!(
        rules("crates/serve/src/dispatch.rs", imported),
        vec!["sleep-in-service"; 2]
    );

    // Tests may pause; so may code outside the service and its runtime.
    let in_test = "#[cfg(test)]\nmod tests {\n    fn pause() { std::thread::sleep(D); }\n}\n";
    assert!(rules("crates/serve/src/dispatch.rs", in_test).is_empty());
    assert!(rules("crates/serve/tests/idle.rs", bad).is_empty());
    assert!(rules("crates/telemetry/src/record.rs", bad).is_empty());

    let justified =
        "// lint: allow(sleep-in-service): back-off before re-reading a sysfs node\nfn f() { std::thread::sleep(D); }\n";
    assert!(rules("crates/runtime/src/topology.rs", justified).is_empty());
}

#[test]
fn unwrap_in_lib_rules_out_panicky_library_code() {
    let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules(LIB, bad), vec!["unwrap-in-lib"]);

    let bad_expect = "fn f(x: Option<u32>) -> u32 { x.expect(\"present\") }\n";
    assert_eq!(rules(LIB, bad_expect), vec!["unwrap-in-lib"]);

    // A method *named* expect taking a non-string argument is not the
    // Option/Result combinator (the telemetry JSON parser has one).
    let method = "fn f(p: &mut P) { p.expect(b'[') }\n";
    assert!(rules(LIB, method).is_empty());

    // Tests, test files, and justified sites are exempt.
    let in_test = "#[test]\nfn t() { Some(1).unwrap(); }\n";
    assert!(rules(LIB, in_test).is_empty());
    assert!(rules("crates/demo/tests/t.rs", bad).is_empty());
    let justified =
        "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(unwrap-in-lib): x is Some by construction\n    x.unwrap()\n}\n";
    assert!(rules(LIB, justified).is_empty());

    // Mentions in strings or comments don't fire.
    let in_string = "fn f() -> &'static str { \".unwrap()\" } // .unwrap()\n";
    assert!(rules(LIB, in_string).is_empty());
}

#[test]
fn column_lists_are_declared_only_in_the_schema_module() {
    // The seeded restatement: a proxy struct that lists the columns.
    let proxy = "struct Lanes<'a, R> {\n    x: &'a mut [R],\n    y: &'a mut [R],\n    \
        z: &'a mut [R],\n    px: &'a mut [R],\n    py: &'a mut [R],\n    pz: &'a mut [R],\n}\n";
    assert_eq!(rules(LIB, proxy), vec!["column-list"]);

    // ... and a constructor that takes them one by one.
    let ctor = "fn from_columns(\n    x: Vec<f32>, y: Vec<f32>, z: Vec<f32>,\n    \
        px: Vec<f32>, py: Vec<f32>, pz: Vec<f32>,\n) -> Store {\n    todo()\n}\n";
    assert_eq!(rules(LIB, ctor), vec!["column-list"]);

    // The schema module is where the list lives.
    assert!(rules("crates/particles/src/columns.rs", proxy).is_empty());

    // Positions alone, locals in a body, unit structs and path segments
    // are not a column list.
    let positions = "fn fill(x: &[f32], y: &[f32], z: &[f32]) {}\n";
    assert!(rules(LIB, positions).is_empty());
    let locals = "fn f(v: &V) {\n    let (x, y, z, px, py, pz) = v.get();\n    \
        let q: f32 = x + y + z + px + py + pz;\n}\n";
    assert!(rules(LIB, locals).is_empty());
    let unit = "struct Marker;\nfn g(a: x::T, b: y::T, c: z::T, d: px::T, e: py::T, f: pz::T) {}\n";
    assert!(rules(LIB, unit).is_empty());

    let justified = format!("// lint: allow(column-list): FFI mirror of a C struct\n{proxy}");
    assert!(rules(LIB, &justified).is_empty());
}

#[test]
fn the_workspace_is_clean() {
    let root = pic_check::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let diags = lint_workspace(&root).expect("scan workspace");
    assert!(
        diags.is_empty(),
        "pic-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
