//! Pass 4 — the domain rules: invariants that protect the paper's own
//! claims rather than Rust hygiene (rustc and clippy hold those).
//!
//! | rule | protects |
//! |------|----------|
//! | `precision-pollution` | no `as f64`/`as f32` cast or `f64`/`f32` literal suffix in the body of a fn whose generic bounds (impl, fn or `where` level) name `Real`, in the kernel layers (`PRECISION_SCOPE`) — an `f64` literal in a generic kernel silently turns the float rows of Table 2 into double precision |
//! | `instant-outside-telemetry` | wall-clock reads (`Instant`) stay inside the measuring layer (`pic-bench`, which times `pic-sim`'s runner from outside) plus the audited clock modules of `INSTANT_ALLOW`; the runner itself reads no clock, so NSPS timing is not skewed by scattered timers |
//! | `column-list` | the particle columns `x y z px py pz` are declared once, in `COLUMN_SCHEMA`: no other struct's fields or fn's parameters list them |
//! | `sleep-in-service` | no `sleep` in the job service or the sweep runtime outside tests (`SLEEP_SCOPE`): a thread with nothing to do blocks on what it waits for, it does not poll on a timer |
//!
//! The first and third read the symbol index (`FnDef::bounds` and
//! bodies, `StructDef::fields`, `FnDef::params`); the other two are word
//! scans of each file's code channel, so a mention in a comment or a
//! string does not count. A finding is suppressed by an adjacent
//! `// analyze: allow(<rule>): <reason>`, like every analyzer rule.

use super::atomics::allow;
use super::index::{FileInfo, Index};
use super::tree::{Node, Tok};
use crate::scan::has_word;
use crate::Diagnostic;

/// Directory prefixes where `precision-pollution` applies: the kernel
/// layers the paper benchmarks (pusher math and particle storage).
/// Setup, field-table sampling, and diagnostics code elsewhere converts
/// at the f64 boundary by design.
const PRECISION_SCOPE: &[&str] = &["crates/core/src/", "crates/particles/src/"];

/// Files allowed to use `std::time::Instant` besides the measuring
/// crate (`crates/bench`), each with the reason.
/// The job runner (`crates/sim`) has no entry: what it runs is timed by
/// its callers.
const INSTANT_ALLOW: &[(&str, &str)] = &[
    (
        "crates/runtime/src/sweep.rs",
        "per-chunk kernel timing behind each thread's `busy_ns`",
    ),
    (
        "crates/device/src/clock.rs",
        "the device layer's single clock read point; queue and executor \
         wall time feeding the modeled-GPU event timeline goes through it",
    ),
    (
        "crates/serve/src/clock.rs",
        "the job service's single clock read point; queue-wait and \
         timeout accounting go through it, never through ad-hoc timers",
    ),
];

/// Directory prefixes where `sleep-in-service` applies: the job service
/// and the sweep runtime under it.
const SLEEP_SCOPE: &[&str] = &["crates/serve/src/", "crates/runtime/src/"];

/// The particle column schema: the one file that may declare the
/// column list as fields or parameters (`column-list` rule).
const COLUMN_SCHEMA: &str = "crates/particles/src/columns.rs";

/// The names whose joint appearance marks a restated column list.
const COLUMN_NAMES: [&str; 6] = ["x", "y", "z", "px", "py", "pz"];

/// A finding before its escape is looked up: `(file, 0-based line,
/// rule, message)`.
type Finding = (usize, usize, &'static str, String);

/// Runs the four domain rules over the index.
pub fn check(idx: &Index) -> Vec<Diagnostic> {
    let mut found = precision_pollution(idx);
    found.extend(column_list(idx));
    for (file, info) in idx.files.iter().enumerate() {
        found.extend(word_scans(file, info));
    }
    // A nested fn is walked in its parent's body too.
    found.sort();
    found.dedup();
    found
        .into_iter()
        .filter(|&(file, line, rule, _)| !allow(&idx.files[file].scanned, line, rule))
        .map(|(file, line, rule, message)| Diagnostic {
            path: idx.files[file].path.clone(),
            line: line + 1,
            rule,
            message,
            hint: Some(format!(
                "justify a deliberate site with `// analyze: allow({rule}): <reason>`"
            )),
        })
        .collect()
}

/// `precision-pollution`: width-forcing tokens in the bodies of
/// `Real`-bounded fns of the kernel layers.
fn precision_pollution(idx: &Index) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &idx.fns {
        let path = &idx.files[f.file].path;
        let real_bound = |(_, traits): &(String, Vec<String>)| traits.iter().any(|t| t == "Real");
        if !PRECISION_SCOPE.iter().any(|p| path.starts_with(p)) || !f.bounds.iter().any(real_bound)
        {
            continue;
        }
        let mut hits = Vec::new();
        width_forcing(&f.body, &mut hits);
        out.extend(hits.into_iter().map(|(line, ty)| {
            let message = format!(
                "`as {ty}` cast or `{ty}` literal suffix inside Real-generic code forces a \
                 concrete width and corrupts the float-vs-double comparison (paper Table 2); \
                 use the Real trait's conversions instead"
            );
            (f.file, line, "precision-pollution", message)
        }));
    }
    out
}

/// Collects `(line, width)` for every `as f64` / `as f32` cast target and
/// every float literal with an `f64` / `f32` suffix (`1.0f64`, `2_f32`).
/// Plain type mentions (`Vec3<f64>`, `x: f64`) are the boundary
/// conversions the `Real` design intends and are not collected.
fn width_forcing(nodes: &[Node], out: &mut Vec<(usize, &'static str)>) {
    for (i, n) in nodes.iter().enumerate() {
        let t = match n {
            Node::Group(g) => {
                width_forcing(&g.children, out);
                continue;
            }
            Node::Leaf(t) => t,
        };
        let after_as = i > 0
            && matches!(&nodes[i - 1], Node::Leaf(p) if matches!(&p.tok, Tok::Ident(a) if a == "as"));
        for ty in ["f64", "f32"] {
            let hit = match &t.tok {
                Tok::Ident(w) => after_as && w == ty,
                Tok::Num(lit) => lit.ends_with(ty) && !lit.starts_with("0x"),
                _ => false,
            };
            if hit {
                out.push((t.line, ty));
            }
        }
    }
}

/// `column-list`: a struct whose fields, or a fn whose parameters,
/// include every column name restates the schema.
fn column_list(idx: &Index) -> Vec<Finding> {
    let restates = |names: Vec<&str>| COLUMN_NAMES.iter().all(|c| names.contains(c));
    let structs = idx
        .structs
        .iter()
        .filter(|s| restates(s.fields.iter().map(|fd| fd.name.as_str()).collect()))
        .map(|s| (s.file, s.line, "struct"));
    let fns = idx
        .fns
        .iter()
        .filter(|f| restates(f.params.iter().map(|(p, _)| p.as_str()).collect()))
        .map(|f| (f.file, f.line, "fn"));
    structs
        .chain(fns)
        .filter(|&(file, ..)| idx.files[file].path != COLUMN_SCHEMA)
        .map(|(file, line, keyword)| {
            let message = format!(
                "this `{keyword}` declares the particle columns x y z px py pz by name; they \
                 are declared once, in {COLUMN_SCHEMA} — use `ParticleColumns` (or a `Row`) \
                 over the container you need"
            );
            (file, line, "column-list", message)
        })
        .collect()
}

/// `instant-outside-telemetry` (every `Instant` in workspace code outside
/// `crates/bench` and the `INSTANT_ALLOW` files, tests included) and
/// `sleep-in-service` (every `sleep` in `SLEEP_SCOPE` outside tests).
fn word_scans(file: usize, info: &FileInfo) -> Vec<Finding> {
    let path = info.path.as_str();
    let instant_scope = (path.starts_with("crates/") || path.starts_with("src/"))
        && !path.starts_with("crates/bench/")
        && !INSTANT_ALLOW.iter().any(|(p, _)| *p == path);
    let sleep_scope = SLEEP_SCOPE.iter().any(|p| path.starts_with(p));
    let mut out = Vec::new();
    for (line, code) in info.scanned.code.iter().enumerate() {
        if instant_scope && has_word(code, "Instant") {
            let message = "wall-clock timing belongs to pic-bench (or an INSTANT_ALLOW entry in \
                           crates/check/src/analyze/domain.rs); scattered timers skew the NSPS \
                           measurements the paper tables depend on";
            out.push((file, line, "instant-outside-telemetry", message.to_string()));
        }
        if sleep_scope && has_word(code, "sleep") && !info.line_in_test(line) {
            let message = "`thread::sleep` in service code is a polling loop in the making: an \
                           idle service thread blocks on the queue, a condvar or a channel \
                           (with a bounded wait), so that being idle costs no CPU and adds no \
                           latency";
            out.push((file, line, "sleep-in-service", message.to_string()));
        }
    }
    out
}
