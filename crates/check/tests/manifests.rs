//! The workspace lint table is the one place the generic source rules
//! live (`unsafe_code = "forbid"`, clippy's `unwrap_used`), and it
//! reaches only the members that opt in. A member manifest without
//! `[lints] workspace = true` would compile `unsafe` silently, so every
//! manifest is read here.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    pic_check::find_workspace_root(start).expect("workspace root not found")
}

/// The lines of the `[name]` table of a manifest, whitespace removed
/// (`workspace=true`).
fn table(manifest: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    let mut lines = manifest.lines().map(str::trim);
    if !lines.any(|l| l == header) {
        return Vec::new();
    }
    lines
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

/// Every member's `Cargo.toml`: the root package and each directory
/// under `crates/` and `vendor/` (the workspace's `members` globs).
fn member_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("member directory") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            if manifest.is_file() {
                out.push(manifest);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert_eq!(
        table(&root_manifest, "workspace")
            .iter()
            .find(|l| l.starts_with("members=")),
        Some(&r#"members=["crates/*","vendor/*"]"#.to_string()),
        "the member globs this test walks changed"
    );
    assert!(
        table(&root_manifest, "workspace.lints.rust")
            .contains(&r#"unsafe_code="forbid""#.to_string()),
        "the workspace lint table must forbid `unsafe`"
    );

    let manifests = member_manifests(&root);
    assert!(manifests.len() >= 16, "root package, crates/* and vendor/*");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("member manifest");
            !table(&text, "lints").contains(&"workspace=true".to_string())
        })
        .map(|path| path.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true`: {missing:?}"
    );
}
