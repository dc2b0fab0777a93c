//! `pic-analyze` acceptance tests: the real workspace is clean, every
//! seeded fixture is caught, and the atomics inventory is complete
//! against an independent textual count.

use pic_check::analyze;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    let start = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    pic_check::find_workspace_root(&start).expect("workspace root not found")
}

/// The analyzer reports zero diagnostics on the actual repository —
/// the same gate CI enforces.
#[test]
fn the_workspace_is_clean_under_analyze() {
    let analysis = analyze::analyze_workspace(&workspace_root()).expect("workspace scan failed");
    let rendered: Vec<String> = analysis
        .diagnostics
        .iter()
        .map(|d| format!("{d}"))
        .collect();
    assert!(
        rendered.is_empty(),
        "pic-analyze found {} diagnostic(s) in the workspace:\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

/// The job queue's mutex (`JobQueue::waiting`, crates/serve/src/queue.rs)
/// is a leaf of the lock order: it is taken under nothing's protection
/// but its own, and nothing — directly or through a call — is locked
/// while it is held. The analyzer must see the lock to be able to say so.
#[test]
fn the_job_queue_mutex_is_a_leaf_lock() {
    let root = workspace_root();
    let queue_rs = "crates/serve/src/queue.rs";
    let text = std::fs::read_to_string(root.join(queue_rs)).expect("queue.rs");
    let queue_only = analyze::index::Index::build(&[(queue_rs.to_string(), text)]);
    assert!(
        analyze::locks::acquisition_sites(&queue_only).len() >= 3,
        "push, pop and wake_all each take the queue's lock"
    );
    let analysis = analyze::analyze_workspace(&root).expect("workspace scan failed");
    let under_queue: Vec<_> = analysis
        .lock_nesting
        .iter()
        .filter(|(held, _)| held == "waiting")
        .collect();
    assert!(
        under_queue.is_empty(),
        "locked while the queue is: {under_queue:?}"
    );
}

/// Every fixture in the seeded-violation corpus trips its rule — the
/// non-inverted twin of the CI `--seeded` step.
#[test]
fn every_seeded_fixture_is_caught() {
    let results = analyze::fixtures::run_all();
    let missed: Vec<String> = results
        .iter()
        .filter(|(_, _, caught)| !caught)
        .map(|(name, rule, _)| format!("{name} ({rule})"))
        .collect();
    assert!(
        missed.is_empty(),
        "analyzer is blind to seeded fixture(s): {}",
        missed.join(", ")
    );
    // Every rule family is represented (purity-alloc has two fixtures:
    // the host kernel root and the device executor root), and each
    // domain rule has one.
    assert_eq!(results.len(), 17);
    for family in [
        "atomics-",
        "purity-",
        "lock-order-",
        "precision-pollution",
        "instant-outside-telemetry",
        "column-list",
        "sleep-in-service",
    ] {
        assert!(
            results.iter().any(|(_, rule, _)| rule.starts_with(family)),
            "no fixture for rule family {family}"
        );
    }
}

/// The `Ordering::` inventory covers every use site. The expected count
/// comes from a plain textual scan of the blanked code channel — no
/// token trees, no symbol index — so a tokenizer regression cannot hide
/// sites from both sides.
#[test]
fn ordering_inventory_covers_every_use_site() {
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let root = workspace_root();
    let mut expected = 0usize;
    for path in pic_check::workspace_sources(&root).expect("workspace scan failed") {
        let text = std::fs::read_to_string(&path).expect("source read failed");
        let scanned = pic_check::scan::scan(&text);
        for line in &scanned.code {
            for (pos, _) in line.match_indices("Ordering::") {
                let after = &line[pos + "Ordering::".len()..];
                if VARIANTS.iter().any(|v| {
                    after.starts_with(v)
                        && !after[v.len()..]
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_')
                }) {
                    expected += 1;
                }
            }
        }
    }
    let analysis = analyze::analyze_workspace(&root).expect("workspace scan failed");
    assert_eq!(
        analysis.ordering_sites.len(),
        expected,
        "inventory ({}) disagrees with the independent textual count ({})",
        analysis.ordering_sites.len(),
        expected
    );
    // Sanity: the workspace genuinely uses atomics (62 sites).
    assert!(expected > 50, "implausibly low site count: {expected}");
}
