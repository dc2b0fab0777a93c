//! `pic-analyze` — workspace-wide static analysis on top of the
//! offline-safe lexer.
//!
//! Three passes, one shared token-tree + symbol-index substrate:
//!
//! 1. [`atomics`] — atomics ordering audit: a complete inventory of
//!    every `Ordering::…` use site, pairing rules (a `Release` store
//!    needs an `Acquire`/`SeqCst` load of the same field somewhere, and
//!    vice versa), and justification rules (`Relaxed`/`SeqCst` need an
//!    adjacent `// ordering: <Ordering> — <reason>` comment; stale or
//!    malformed comments are themselves diagnostics).
//! 2. [`purity`] — hot-kernel purity proof: from the Boris-kernel root
//!    set, walk the call graph and fail on any reachable allocation,
//!    lock, I/O, or panic-capable construct.
//! 3. [`locks`] — lock-order check for `crates/serve`: nested
//!    acquisitions form a digraph; cycles are potential deadlocks.
//!
//! Rule ids are stable (see EXPERIMENTS.md) and every diagnostic
//! carries a fix hint. [`fixtures`] holds the seeded-violation corpus
//! that proves each rule actually fires — CI runs it under an inverted
//! exit code.

pub mod atomics;
pub mod fixtures;
pub mod index;
pub mod locks;
pub mod purity;
pub mod tree;

use crate::Diagnostic;
use std::path::Path;

/// The result of a full analysis run.
pub struct Analysis {
    /// All diagnostics, sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// The complete `Ordering::…` inventory (production *and* test
    /// code) — coverage is asserted against an independent grep.
    pub ordering_sites: Vec<atomics::OrderingSite>,
    /// Every nested lock acquisition in the serving layer as `(held,
    /// acquired)` keys; a key never on the left is a leaf lock.
    pub lock_nesting: Vec<(String, String)>,
    /// Size of the symbol index the checks ran over: `(fns, structs)`,
    /// test code included — the workspace's surface as one number pair.
    pub indexed: (usize, usize),
}

/// Analyzes a set of `(workspace-relative path, source text)` pairs.
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let idx = index::Index::build(sources);
    let (mut diagnostics, ordering_sites) = atomics::check(&idx);
    diagnostics.extend(purity::check(&idx));
    let (lock_cycles, lock_nesting) = locks::check(&idx);
    diagnostics.extend(lock_cycles);
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Analysis {
        diagnostics,
        ordering_sites,
        lock_nesting,
        indexed: (idx.fns.len(), idx.structs.len()),
    }
}

/// Analyzes every `.rs` file under `root` (skipping `target/` and
/// dot-directories, like `lint_workspace`).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut sources = Vec::new();
    for path in crate::workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(analyze_sources(&sources))
}
