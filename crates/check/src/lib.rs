//! `pic-check`: static analysis and concurrency verification for the
//! Boris-pusher workspace.
//!
//! Two halves:
//!
//! 1. **`pic-analyze`** ([`analyze`] + `src/bin/pic_analyze.rs`): one
//!    static checker over token trees and a workspace symbol index — no
//!    `syn`, offline-safe. Its passes audit atomics orderings, prove the
//!    hot kernels pure, check the service's lock order, and hold the
//!    four domain rules that protect the paper reproduction
//!    (`precision-pollution`, `instant-outside-telemetry`, `column-list`,
//!    `sleep-in-service`; see [`analyze::domain`]). A finding is
//!    suppressed by an adjacent `// analyze: allow(<rule>): <reason>`.
//!    The generic rules belong to the toolchain: `unsafe_code = "forbid"`
//!    in the workspace lint table (every member inherits it,
//!    `tests/manifests.rs` checks that) and clippy's `unwrap_used` /
//!    `expect_used` on library and binary code (CI's `clippy` job).
//!
//! 2. **The interleave suites** (`tests/interleave_*.rs`, built with
//!    `RUSTFLAGS="--cfg interleave"`): exhaustive model checking of the
//!    job service's admission and shard protocols. Two
//!    `#[should_panic]` twins run a broken variant of the shipped
//!    types and prove the checker catches it
//!    (`interleave_serve.rs::checking_the_flag_before_claiming_the_slot_is_caught`,
//!    `interleave_shard.rs::finishing_with_a_load_then_a_store_is_caught`).

pub mod analyze;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding of `pic-analyze`.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (usable in `// analyze: allow(<rule>): …`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Optional fix hint, rendered on its own line.
    pub hint: Option<String>,
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
