//! Workspace static analyzer. Run from anywhere inside the repo:
//!
//! ```text
//! cargo run -p pic-check --bin pic-analyze
//! cargo run -p pic-check --bin pic-analyze -- --seeded
//! ```
//!
//! Four passes: atomics ordering audit, hot-kernel purity proof,
//! lock-order check and the domain rules (see `pic_check::analyze`).
//! Exit codes: `0` clean, `1` findings, `2` setup error.
//!
//! `--seeded` ignores the workspace and runs the seeded-violation
//! corpus instead, with *inverted* semantics: it exits `0` only when
//! the analyzer is blind to some fixture (so CI wraps it in
//! `if …; then echo broken; exit 1; fi`), and `1` when every seeded bug
//! was caught.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut seeded = false;
    let mut root_arg: Option<String> = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--seeded" => seeded = true,
            _ => root_arg = Some(a),
        }
    }

    if seeded {
        let results = pic_check::analyze::fixtures::run_all();
        let mut missed = 0usize;
        for (name, rule, caught) in &results {
            let status = if *caught { "caught" } else { "MISSED" };
            println!("pic-analyze --seeded: {status} {name} ({rule})");
            if !caught {
                missed += 1;
            }
        }
        return if missed > 0 {
            println!("pic-analyze --seeded: analyzer is blind to {missed} seeded violation(s)");
            ExitCode::SUCCESS
        } else {
            println!(
                "pic-analyze --seeded: all {} seeded violations caught",
                results.len()
            );
            ExitCode::FAILURE
        };
    }

    let root = match &root_arg {
        Some(p) => Some(Path::new(p).to_path_buf()),
        None => {
            let start = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
            pic_check::find_workspace_root(&start).or_else(|| {
                std::env::current_dir()
                    .ok()
                    .and_then(|d| pic_check::find_workspace_root(&d))
            })
        }
    };
    let Some(root) = root else {
        eprintln!("pic-analyze: could not locate the workspace root (pass it as an argument)");
        return ExitCode::from(2);
    };

    let analysis = match pic_check::analyze::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pic-analyze: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if analysis.diagnostics.is_empty() {
        println!(
            "pic-analyze: workspace clean ({} `Ordering::` sites inventoried; \
             {} fns and {} structs indexed)",
            analysis.ordering_sites.len(),
            analysis.indexed.0,
            analysis.indexed.1
        );
        return ExitCode::SUCCESS;
    }
    for d in &analysis.diagnostics {
        println!("{d}");
    }
    println!("pic-analyze: {} finding(s)", analysis.diagnostics.len());
    ExitCode::FAILURE
}
