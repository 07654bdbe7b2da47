//! Fixture tests for every rule: each file under `tests/fixtures/` encodes
//! its expected diagnostics as trailing `//~ <rule>` comments. The harness
//! runs the full rule engine over the fixture (every rule scoped to the
//! fixture directory) and requires the `(line, rule)` sets to match
//! *exactly* — so tagged lines prove a rule fires, and untagged violations
//! with `tia-lint: allow(...)` suppressions prove suppressions work. The
//! cross-file `unreferenced-pub` rule is checked the same way over a
//! directory fixture.

use std::path::Path;
use tia_lint::config::Config;
use tia_lint::{lint_root, rules};

/// Parses `//~ <rule>` expectation tags (one or more rules per tag).
fn expectations(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                out.push((i + 1, rule.to_string()));
            }
        }
    }
    out
}

fn run_fixture(name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let cfg = Config::all_rules_at("fixtures");
    let diags = rules::check_file(&format!("fixtures/{name}"), &src, &cfg);
    let mut got: Vec<(usize, String)> =
        diags.iter().map(|d| (d.line, d.rule.to_string())).collect();
    got.sort();
    let mut want = expectations(&src);
    want.sort();
    assert_eq!(
        got,
        want,
        "fixture {name}: diagnostics do not match the //~ tags.\nreported:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn panic_freedom_fixture() {
    run_fixture("panic_freedom.rs");
}

#[test]
fn determinism_time_fixture() {
    run_fixture("determinism_time.rs");
}

#[test]
fn determinism_map_iter_fixture() {
    run_fixture("determinism_map_iter.rs");
}

#[test]
fn hot_path_alloc_fixture() {
    run_fixture("hot_path_alloc.rs");
}

#[test]
fn atomic_ordering_fixture() {
    run_fixture("atomic_ordering.rs");
}

#[test]
fn error_hygiene_fixture() {
    run_fixture("error_hygiene.rs");
}

#[test]
fn unsafe_safety_fixture() {
    run_fixture("unsafe_safety.rs");
}

#[test]
fn annotations_fixture() {
    run_fixture("annotations.rs");
}

/// The cross-file rule needs a tree: `lint_root` runs over the
/// `unreferenced_pub/` directory with both of the rule's keys scoped to it,
/// and the tags of all its files must match together.
#[test]
fn unreferenced_pub_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let cfg = Config::parse(
        "[scan]\nroots = [\"unreferenced_pub\"]\n\
         [rules.unreferenced-pub]\n\
         include = [\"unreferenced_pub\"]\nreferences = [\"unreferenced_pub\"]\n",
    )
    .expect("fixture config parses");
    let report = lint_root(&root, &cfg).expect("fixture tree lints");
    let mut got: Vec<(String, usize, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule.to_string()))
        .collect();
    got.sort();
    let mut want = Vec::new();
    for rel in [
        "unreferenced_pub/api.rs",
        "unreferenced_pub/bin/tool.rs",
        "unreferenced_pub/caller.rs",
        "unreferenced_pub/lib.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel))
            .unwrap_or_else(|e| panic!("cannot read fixture {rel}: {e}"));
        want.extend(
            expectations(&src)
                .into_iter()
                .map(|(line, rule)| (rel.to_string(), line, rule)),
        );
    }
    want.sort();
    assert_eq!(report.files_scanned, 4);
    assert_eq!(
        got,
        want,
        "unreferenced_pub: diagnostics do not match the //~ tags.\nreported:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_fixture_has_a_test_and_vice_versa() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "annotations.rs",
            "atomic_ordering.rs",
            "determinism_map_iter.rs",
            "determinism_time.rs",
            "error_hygiene.rs",
            "hot_path_alloc.rs",
            "panic_freedom.rs",
            "unreferenced_pub",
            "unsafe_safety.rs",
        ],
        "fixture set changed — add or remove the matching #[test]"
    );
}

/// A fixture scoped *outside* every rule's include list reports nothing,
/// whatever it contains.
#[test]
fn out_of_scope_files_are_ignored() {
    let cfg = Config::all_rules_at("fixtures");
    let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let diags = rules::check_file("elsewhere/f.rs", src, &cfg);
    assert!(diags.is_empty(), "{diags:?}");
}
