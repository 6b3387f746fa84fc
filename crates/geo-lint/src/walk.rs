//! Workspace file discovery.
//!
//! Finds every `.rs` file the linter should scan under a root directory:
//! each crate's `src/`, `tests/`, `examples/`, and `benches/` plus the
//! workspace-level `tests/` and `examples/` trees. Vendored stand-in
//! crates and build output are skipped. Results are sorted so reports are
//! byte-stable across filesystems.

use crate::rules::VENDORED_CRATES;
use std::path::{Path, PathBuf};

/// Collects root-relative (`/`-separated) paths of all files to lint.
pub fn discover(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !entry.path().is_dir() || VENDORED_CRATES.contains(&name.as_str()) {
                continue;
            }
            for sub in ["src", "tests", "examples", "benches"] {
                collect_rs(&entry.path().join(sub), root, &mut files)?;
            }
        }
    }
    for sub in ["tests", "examples"] {
        collect_rs(&root.join(sub), root, &mut files)?;
    }

    files.sort();
    files.dedup();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (if it exists) as
/// root-relative paths.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                // `fixtures` trees hold deliberately-violating lint-test
                // inputs; they are data, not workspace source.
                if path
                    .file_name()
                    .is_some_and(|n| n == "target" || n == "fixtures")
                {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}
