//! Golden-file tests for call-graph mode: run the linter with
//! reachability analysis over a fixture workspace that violates every
//! transitive rule, and compare both renderings byte-for-byte.

use geo_lint::rules::Config;
use geo_lint::CheckOptions;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("golden file")
}

fn check_transitive() -> geo_lint::report::Report {
    let opts = CheckOptions { call_graph: true };
    geo_lint::check_with(&fixture("transitive"), &Config::workspace(), opts).unwrap()
}

#[test]
fn transitive_fixture_matches_golden_human_report() {
    let report = check_transitive();
    let rendered = report.render_human();
    let expected = golden("transitive.expected.txt");
    assert_eq!(
        rendered, expected,
        "\n--- rendered ---\n{rendered}\n--- expected ---\n{expected}"
    );
    assert!(!report.is_clean());
}

#[test]
fn transitive_fixture_matches_golden_json() {
    let report = check_transitive();
    let rendered = report.render_json();
    let expected = golden("transitive.expected.json");
    assert_eq!(
        rendered, expected,
        "\n--- rendered ---\n{rendered}\n--- expected ---\n{expected}"
    );
}

#[test]
fn every_transitive_rule_fires_exactly_once_with_a_full_chain() {
    let report = check_transitive();
    for rule in ["R1T", "R4T", "D1T", "P1T", "L1"] {
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule)
            .collect();
        assert_eq!(hits.len(), 1, "{rule}: {hits:?}");
        assert!(
            hits[0].chain.len() >= 2,
            "{rule} chain too short: {:?}",
            hits[0].chain
        );
    }
    // Witness chains start at the root, end at the sink's function.
    let r1t = report.diagnostics.iter().find(|d| d.rule == "R1T").unwrap();
    assert_eq!(
        r1t.chain,
        vec![
            "geo_serve::server::worker_loop",
            "net_sim::shared::risky_get"
        ]
    );
    let d1t = report.diagnostics.iter().find(|d| d.rule == "D1T").unwrap();
    assert_eq!(
        d1t.chain,
        vec!["world_sim::sim::step", "geo_serve::util::stamp"]
    );
}

#[test]
fn unresolved_calls_are_reported_not_treated_as_safe() {
    let report = check_transitive();
    // `mystery::frobnicate()` cannot be resolved; it must surface in the
    // unresolved section (reachable from the serve-entry root), never
    // silently pass as safe.
    assert_eq!(report.unresolved.len(), 1, "{:?}", report.unresolved);
    let u = &report.unresolved[0];
    assert_eq!(u.name, "mystery::frobnicate");
    assert_eq!(u.from, "geo_serve::server::worker_loop");
    assert_eq!(u.why, "unresolved path");
    // And the graph summary counts it.
    assert_eq!(report.graph.as_ref().unwrap().unresolved, 1);
}

#[test]
fn transitive_allow_suppresses_and_scoped_out_allow_is_stale() {
    let report = check_transitive();
    // The fn-scoped allow(R1T) on `pick` suppresses its finding…
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "R1T");
    assert!(report.suppressed[0].reason.contains("caller contract"));
    // …and the allow(D1) in a crate where D1 never runs is flagged stale
    // with the scoped-out rationale, not silently ignored.
    let x2 = report.diagnostics.iter().find(|d| d.rule == "X2").unwrap();
    assert!(
        x2.rationale.contains("out of scope for its crate"),
        "{x2:?}"
    );
}

#[test]
fn without_call_graph_the_fixture_has_no_transitive_findings() {
    // The same tree linted per-file only: transitive rules stay silent,
    // their allows are exempt from X2 (the graph never ran), and the
    // per-file rules see nothing wrong with any single file.
    let report = geo_lint::check(&fixture("transitive"), &Config::workspace()).unwrap();
    let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["X2"], "{:?}", report.diagnostics);
    assert!(report.graph.is_none());
    assert!(report.unresolved.is_empty());
}

#[test]
fn cli_call_graph_json_carries_chains_and_exits_nonzero() {
    let root = fixture("transitive");
    let out = Command::new(env!("CARGO_BIN_EXE_geo-lint"))
        .args([
            "check",
            "--json",
            "--call-graph",
            "--root",
            root.to_str().unwrap(),
        ])
        .output()
        .expect("spawn geo-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.as_ref(), golden("transitive.expected.json"));
}
