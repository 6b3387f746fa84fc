//! Golden-file tests for the call graph: run the linter over a fixture
//! workspace whose every violation is visible only across calls (the
//! reachable parts of D1, R1, R4 and P1, and L1), and compare both
//! renderings byte-for-byte.

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
    geo_lint::check(&fixture("transitive")).unwrap()
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
    for rule in ["R1", "R4", "D1", "P1", "L1"] {
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
    let r1 = report.diagnostics.iter().find(|d| d.rule == "R1").unwrap();
    assert_eq!(
        r1.chain,
        vec![
            "geo_serve::server::worker_loop",
            "net_sim::shared::risky_get"
        ]
    );
    let d1 = report.diagnostics.iter().find(|d| d.rule == "D1").unwrap();
    assert_eq!(
        d1.chain,
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
    assert_eq!(report.graph.unresolved, 1);
}

#[test]
fn transitive_allow_suppresses_and_scoped_out_allow_is_stale() {
    let report = check_transitive();
    // The fn-scoped allow(R1) on `pick` suppresses its finding…
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "R1");
    assert!(report.suppressed[0].reason.contains("caller contract"));
    // …and the allow(R5) in a crate where R5 never runs is flagged stale
    // with the scoped-out rationale, not silently ignored.
    let x2 = report.diagnostics.iter().find(|d| d.rule == "X2").unwrap();
    assert!(
        x2.rationale.contains("out of scope for its crate"),
        "{x2:?}"
    );
}

#[test]
fn cli_call_graph_json_carries_chains_and_exits_nonzero() {
    let root = fixture("transitive");
    let out = Command::new(env!("CARGO_BIN_EXE_geo-lint"))
        .args(["check", "--json", "--root", root.to_str().unwrap()])
        .output()
        .expect("spawn geo-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.as_ref(), golden("transitive.expected.json"));
}
