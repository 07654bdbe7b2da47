#![deny(missing_docs)]
//! `tia-lint` — the workspace's static invariant checker.
//!
//! The runtime test suite samples behavior; this crate checks *every line
//! of every PR* for the static footprint of the contracts the tests
//! sample: panic-freedom in the serving stack, bitwise determinism (no
//! ambient clock reads, no unordered-map iteration in scheduler code), the
//! zero-allocation hot path, justified atomic orderings, and error
//! hygiene — plus one cross-file rule, no public API that nothing uses.
//! It is dependency-free by construction: a hand-written Rust token
//! scanner ([`lexer`]), a self-parsed `lint.toml` ([`config`]), a per-file
//! rule engine ([`rules`]) and the cross-file `unreferenced-pub` pass.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p tia-lint -- --check
//! ```

pub mod config;
pub mod lexer;
pub mod rules;
mod unreferenced;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::Diagnostic;

/// Result of linting a tree: findings plus how many files were scanned
/// (so callers can detect a mis-rooted scan that silently checked nothing).
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Recursively collects `.rs` files under `roots` (relative to `root`),
/// skipping the directory names in `skip`, in sorted (deterministic) order.
fn collect_files(root: &Path, roots: &[String], skip: &[String]) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for r in roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, skip, &mut files)?;
        } else if dir.extension().is_some_and(|e| e == "rs") && dir.is_file() {
            files.push(dir);
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || skip.iter().any(|s| s.as_str() == name) {
                continue;
            }
            walk(&path, skip, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` using `cfg`: the per-file rules,
/// then the cross-file `unreferenced-pub` pass.
pub fn lint_root(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    let files = collect_files(root, &cfg.roots, &cfg.skip_dirs)?;
    let mut diagnostics = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = config::relative_slash(root, path);
        diagnostics.extend(rules::check_file(&rel, &src, cfg));
    }
    diagnostics.extend(unreferenced::check_tree(root, cfg)?);
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Lints the workspace rooted at `root` using its `lint.toml`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let cfg_path = root.join("lint.toml");
    let src = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&src)
        .and_then(|cfg| cfg.check_paths(root).map(|()| cfg))
        .map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    lint_root(root, &cfg).map_err(|e| format!("scan failed: {e}"))
}
