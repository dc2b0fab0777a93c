//! `pic-check`: static analysis and concurrency verification for the
//! Boris-pusher workspace.
//!
//! Two halves:
//!
//! 1. **`pic-lint`** (this library + `src/bin/pic_lint.rs`): a
//!    lexer-level source scanner — no `syn`, offline-safe — enforcing
//!    repo invariants that protect the paper reproduction:
//!
//!    | rule | protects |
//!    |------|----------|
//!    | `precision-pollution` | no `f64`/`f32` tokens, casts, or literal suffixes inside `Real`-generic code — an `f64` literal in a generic kernel silently turns the float rows of Table 2 into double precision |
//!    | `ordering-justification` | every `Ordering::SeqCst`/`Ordering::Relaxed` carries an adjacent `// ordering:` comment arguing why it is sound |
//!    | `unsafe-outside-allowlist` | no `unsafe` anywhere in the workspace, `vendor/` included; there is no allowlist, the id is kept stable |
//!    | `forbid-unsafe-attr` | every crate, `vendor/` included, keeps `#![forbid(unsafe_code)]` in its `lib.rs` |
//!    | `instant-outside-telemetry` | wall-clock reads (`std::time::Instant`) stay inside the measuring layers (`pic-telemetry`, and `pic-bench`, which times `pic-sim`'s runner from outside) plus three audited call sites; the runner itself reads no clock |
//!    | `unwrap-in-lib` | no `.unwrap()` / `.expect("…")` in library code outside tests |
//!    | `column-list` | the particle columns `x y z px py pz …` are declared once, in `crates/particles/src/columns.rs`: no other `struct` body or `fn` signature lists them as fields/parameters |
//!    | `sleep-in-service` | no `thread::sleep` in the job service or the sweep runtime outside tests: a thread with nothing to do blocks on what it waits for, it does not poll on a timer |
//!
//!    A finding can be suppressed at a specific line by an adjacent
//!    justification comment: `// lint: allow(<rule>): <reason>` on the
//!    same line or within the three preceding lines. The `unsafe` and
//!    `forbid` rules honor no comment and have no allowlist: admitting
//!    `unsafe` anywhere must be a reviewed change to this file, not a
//!    drive-by comment.
//!
//! 2. **The interleave suites** (`tests/interleave_*.rs`, built with
//!    `RUSTFLAGS="--cfg interleave"`): exhaustive model checking of the
//!    telemetry `Registry` drain-after-join protocol and of the job
//!    service's admission, cache and shard protocols, including a seeded
//!    drain-*before*-join bug that the checker must catch (see
//!    `src/bin/seeded_race.rs` and the CI self-check).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod scan;

use scan::{scan, word_hits, Scanned};
use std::fmt;
use std::path::{Path, PathBuf};

/// How many preceding lines a justification comment may sit above its
/// use site and still count as "adjacent".
const ADJACENT_LINES: usize = 3;

/// Files allowed to use `std::time::Instant` besides the measuring
/// crates (`crates/telemetry`, `crates/bench`), each with the reason.
/// The job runner (`crates/sim`) has no entry: what it runs is timed by
/// its callers.
const INSTANT_ALLOW: &[(&str, &str)] = &[
    (
        "crates/runtime/src/sweep.rs",
        "per-chunk kernel timing, compiled only under the `telemetry` feature",
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

/// Directory prefixes where `precision-pollution` applies: the kernel
/// layers the paper benchmarks (pusher math and particle storage).
/// Setup, field-table sampling, and diagnostics code elsewhere converts
/// at the f64 boundary by design.
const PRECISION_SCOPE: &[&str] = &["crates/core/src/", "crates/particles/src/"];

/// Directory prefixes where `sleep-in-service` applies: the job service
/// and the sweep runtime under it.
const SLEEP_SCOPE: &[&str] = &["crates/serve/src/", "crates/runtime/src/"];

/// The particle column schema: the one file that may declare the
/// column list as fields or parameters (`column-list` rule).
const COLUMN_SCHEMA: &str = "crates/particles/src/columns.rs";

/// The names whose joint appearance marks a restated column list.
const COLUMN_NAMES: [&str; 6] = ["x", "y", "z", "px", "py", "pz"];

/// One finding, shared by `pic-lint` and `pic-analyze`.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (usable in `// lint: allow(<rule>): …` /
    /// `// analyze: allow(<rule>): …`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Optional fix hint, rendered on its own line and in `--json`.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with no fix hint (the common case in `pic-lint`).
    pub fn new(path: String, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            path,
            line,
            rule,
            message,
            hint: None,
        }
    }

    /// Serializes to a single JSON object (hand-rolled: the workspace
    /// builds offline with no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"path\":{}", json_str(&self.path)));
        out.push_str(&format!(",\"line\":{}", self.line));
        out.push_str(&format!(",\"rule\":{}", json_str(self.rule)));
        out.push_str(&format!(",\"message\":{}", json_str(&self.message)));
        if let Some(h) = &self.hint {
            out.push_str(&format!(",\"hint\":{}", json_str(h)));
        }
        out.push('}');
        out
    }
}

/// JSON string literal with the escapes the wire needs.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a diagnostic list as one JSON document:
/// `{"tool":…,"count":N,"diagnostics":[…]}`.
pub fn diagnostics_json(tool: &str, diags: &[Diagnostic]) -> String {
    let body: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!(
        "{{\"tool\":{},\"count\":{},\"diagnostics\":[{}]}}",
        json_str(tool),
        diags.len(),
        body.join(",")
    )
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )?;
        if let Some(h) = &self.hint {
            write!(f, "\n    hint: {h}")?;
        }
        Ok(())
    }
}

/// True for paths whose whole content is test/bench/example code.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// True for library source files of workspace member crates (the
/// domain of the `unwrap-in-lib` rule).
fn is_lib_source(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !is_test_path(path)
}

fn allowlisted(list: &[(&str, &str)], path: &str) -> bool {
    list.iter().any(|(p, _)| *p == path)
}

/// Line spans (0-based, inclusive) of `#[cfg(test)]` / `#[test]` items,
/// found by brace matching on blanked code. Shared with the `analyze`
/// passes, which skip test regions for most rules.
pub fn test_item_regions(s: &Scanned) -> Vec<(usize, usize)> {
    test_regions(s)
}

fn test_regions(s: &Scanned) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, line) in s.code.iter().enumerate() {
        if line.contains("#[cfg(test)]") || line.contains("#[test]") {
            if let Some(span) = brace_region(s, i) {
                out.push(span);
            }
        }
    }
    out
}

fn in_regions(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// From `start_line`, finds the first `{` and returns the line span up
/// to its matching `}`.
fn brace_region(s: &Scanned, start_line: usize) -> Option<(usize, usize)> {
    delimited(s, start_line, 0, '{', '}').map(|(end, _)| (start_line, end))
}

/// From byte `col` of line `start`, finds the first `open` and returns
/// the line of its matching `close` with the text between the two — a
/// block, a struct body, a parameter list. `None` when a `;` ends the
/// item before anything opens (unit structs, `use` lines).
fn delimited(
    s: &Scanned,
    start: usize,
    col: usize,
    open: char,
    close: char,
) -> Option<(usize, String)> {
    let mut depth = 0usize;
    let mut text = String::new();
    for (li, line) in s.code.iter().enumerate().skip(start) {
        let from = if li == start { col } else { 0 };
        for c in line[from..].chars() {
            match c {
                ';' if depth == 0 => return None,
                c if c == open => depth += 1,
                c if c == close && depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((li, text));
                    }
                }
                _ => {}
            }
            if depth > 0 {
                text.push(c);
            }
        }
        text.push('\n');
    }
    None
}

/// Identifiers declared with a type in `text`: every `name:` that is not
/// a path segment (`a::b`).
fn declared_names(text: &str) -> Vec<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(ident) {
        let tail = &rest[start..];
        let len = tail.find(|c| !ident(c)).unwrap_or(tail.len());
        let after = tail[len..].trim_start();
        if after.starts_with(':') && !after.starts_with("::") {
            out.push(&tail[..len]);
        }
        rest = &tail[len..];
    }
    out
}

/// Line spans of code generic over the `Real` trait: bodies of `fn` or
/// `impl` items whose header (up to the opening `{`) names `Real`.
fn real_generic_regions(s: &Scanned) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, line) in s.code.iter().enumerate() {
        let has_item =
            !word_hits(line, "fn", false).is_empty() || !word_hits(line, "impl", false).is_empty();
        if !has_item {
            continue;
        }
        // Header: from this line to the line with the first `{`
        // (capped; headers in this workspace are short).
        let mut header = String::new();
        let mut body_start = None;
        for (j, hline) in s.code.iter().enumerate().skip(i).take(30) {
            match hline.find('{') {
                Some(pos) => {
                    header.push_str(&hline[..pos]);
                    body_start = Some(j);
                    break;
                }
                None => {
                    header.push_str(hline);
                    header.push(' ');
                }
            }
        }
        let (Some(start), false) = (body_start, word_hits(&header, "Real", false).is_empty())
        else {
            continue;
        };
        if let Some(span) = brace_region(s, start) {
            out.push(span);
        }
    }
    out
}

/// Classifies an `f64`/`f32` word hit at byte offset `at`: true when it
/// is an `as` cast target or a numeric literal suffix (`1.0f64`,
/// `2_f32`) — the forms that force a concrete float width.
fn is_cast_or_suffix(line: &str, at: usize) -> bool {
    let before = &line[..at];
    // Literal suffix: digit, `.`, or digit + `_` immediately before.
    let mut rev = before.chars().rev();
    match rev.next() {
        Some(c) if c.is_ascii_digit() || c == '.' => return true,
        Some('_') if rev.next().is_some_and(|c| c.is_ascii_digit()) => return true,
        _ => {}
    }
    // Cast: the previous token is the keyword `as`.
    let trimmed = before.trim_end();
    trimmed.ends_with("as")
        && !trimmed
            .chars()
            .rev()
            .nth(2)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Does a `// lint: allow(<rule>): …` comment justify `line`?
fn justified(s: &Scanned, line: usize, rule: &str) -> bool {
    s.comment_near(line, ADJACENT_LINES, &format!("lint: allow({rule})"))
}

/// Lints one source file. `path` must be workspace-relative with
/// forward slashes — it decides which rules apply.
pub fn lint_source(path: &str, text: &str) -> Vec<Diagnostic> {
    let s = scan(text);
    let mut out = Vec::new();
    let tests = test_regions(&s);
    let diag = |line: usize, rule: &'static str, message: String| {
        Diagnostic::new(path.to_string(), line + 1, rule, message)
    };

    // unsafe-outside-allowlist — applies everywhere, no inline escape.
    for (i, line) in s.code.iter().enumerate() {
        if !word_hits(line, "unsafe", false).is_empty() {
            out.push(diag(
                i,
                "unsafe-outside-allowlist",
                "`unsafe` in the workspace; every crate, vendored ones included, \
                 is safe Rust"
                    .to_string(),
            ));
        }
    }

    // forbid-unsafe-attr — crate roots must pin #![forbid(unsafe_code)].
    if let Some(krate) = path.strip_suffix("/src/lib.rs") {
        let has = s.code.iter().any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has {
            out.push(diag(
                0,
                "forbid-unsafe-attr",
                format!("crate `{krate}` has no `#![forbid(unsafe_code)]`; add it"),
            ));
        }
    }

    // ordering-justification — production code only.
    if !is_test_path(path) {
        for (i, line) in s.code.iter().enumerate() {
            if in_regions(&tests, i) {
                continue;
            }
            for variant in ["Ordering::Relaxed", "Ordering::SeqCst"] {
                if line.contains(variant)
                    && !s.comment_near(i, ADJACENT_LINES, "ordering:")
                    && !justified(&s, i, "ordering-justification")
                {
                    out.push(diag(
                        i,
                        "ordering-justification",
                        format!(
                            "{variant} without an adjacent `// ordering:` comment arguing \
                             why this ordering is sound"
                        ),
                    ));
                }
            }
        }
    }

    // precision-pollution — Real-generic kernel bodies must stay
    // generic: no `… as f64` casts, no `1.0f64` literal suffixes.
    // Plain type mentions (`Vec3<f64>`, `from_f64(x: f64)`) are
    // boundary conversions the Real design intends and are not flagged.
    if PRECISION_SCOPE.iter().any(|p| path.starts_with(p)) {
        let regions = real_generic_regions(&s);
        for (i, line) in s.code.iter().enumerate() {
            if !in_regions(&regions, i) || justified(&s, i, "precision-pollution") {
                continue;
            }
            for ty in ["f64", "f32"] {
                if word_hits(line, ty, true)
                    .into_iter()
                    .any(|at| is_cast_or_suffix(line, at))
                {
                    out.push(diag(
                        i,
                        "precision-pollution",
                        format!(
                            "`as {ty}` cast or `{ty}` literal suffix inside Real-generic \
                             code forces a concrete width and corrupts the float-vs-double \
                             comparison (paper Table 2); use the Real trait's conversions \
                             instead"
                        ),
                    ));
                }
            }
        }
    }

    // column-list — the schema module declares the particle columns;
    // a struct or signature elsewhere that lists them is a restatement.
    if path != COLUMN_SCHEMA {
        for (i, line) in s.code.iter().enumerate() {
            for (keyword, open, close) in [("struct", '{', '}'), ("fn", '(', ')')] {
                for at in word_hits(line, keyword, false) {
                    let restated = delimited(&s, i, at, open, close).is_some_and(|(_, text)| {
                        let names = declared_names(&text);
                        COLUMN_NAMES.iter().all(|n| names.contains(n))
                    });
                    if restated && !justified(&s, i, "column-list") {
                        out.push(diag(
                            i,
                            "column-list",
                            format!(
                                "this `{keyword}` declares the particle columns x y z px py pz \
                                 by name; they are declared once, in {COLUMN_SCHEMA} — use \
                                 `ParticleColumns` (or a `Row`) over the container you need"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // instant-outside-telemetry.
    let instant_scope = (path.starts_with("crates/") || path.starts_with("src/"))
        && !path.starts_with("crates/telemetry/")
        && !path.starts_with("crates/bench/")
        && !allowlisted(INSTANT_ALLOW, path);
    if instant_scope {
        for (i, line) in s.code.iter().enumerate() {
            if !word_hits(line, "Instant", false).is_empty()
                && !justified(&s, i, "instant-outside-telemetry")
            {
                out.push(diag(
                    i,
                    "instant-outside-telemetry",
                    "wall-clock timing belongs to pic-telemetry / pic-bench (or an \
                     INSTANT_ALLOW entry in crates/check/src/lib.rs); scattered timers \
                     skew the NSPS measurements the paper tables depend on"
                        .to_string(),
                ));
            }
        }
    }

    // sleep-in-service.
    if SLEEP_SCOPE.iter().any(|p| path.starts_with(p)) {
        for (i, line) in s.code.iter().enumerate() {
            if !word_hits(line, "sleep", false).is_empty()
                && !in_regions(&tests, i)
                && !justified(&s, i, "sleep-in-service")
            {
                out.push(diag(
                    i,
                    "sleep-in-service",
                    "`thread::sleep` in service code is a polling loop in the making: an \
                     idle service thread blocks on the queue, a condvar or a channel (with \
                     a bounded wait), so that being idle costs no CPU and adds no latency"
                        .to_string(),
                ));
            }
        }
    }

    // unwrap-in-lib.
    if is_lib_source(path) {
        for (i, line) in s.code.iter().enumerate() {
            if in_regions(&tests, i) || justified(&s, i, "unwrap-in-lib") {
                continue;
            }
            for needle in [".unwrap()", ".expect(\""] {
                if line.contains(needle) {
                    out.push(diag(
                        i,
                        "unwrap-in-lib",
                        format!(
                            "`{needle}…` in library code; return an error, propagate the \
                             panic payload, or justify with `// lint: allow(unwrap-in-lib): …`"
                        ),
                    ));
                }
            }
        }
    }

    out
}

/// Recursively collects workspace `.rs` files (skipping `target/` and
/// dot-directories), sorted for deterministic output.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every source file under `root`; diagnostics carry
/// workspace-relative paths.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        out.extend(lint_source(&rel, &text));
    }
    Ok(out)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if std::fs::read_to_string(d.join("Cargo.toml"))
            .is_ok_and(|text| text.contains("[workspace]"))
        {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
