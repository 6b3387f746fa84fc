//! Golden-file tests: run the linter over fixture workspaces with known
//! violations and compare the full human report byte-for-byte, plus CLI
//! exit-code and JSON-mode checks through the real binary.

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

#[test]
fn violations_fixture_matches_golden_report() {
    let report = geo_lint::check(&fixture("violations")).unwrap();
    let rendered = report.render_human();
    let expected = golden("violations.expected.txt");
    assert_eq!(
        rendered, expected,
        "\n--- rendered ---\n{rendered}\n--- expected ---\n{expected}"
    );
    assert!(!report.is_clean());
}

#[test]
fn clean_fixture_is_clean() {
    let report = geo_lint::check(&fixture("clean")).unwrap();
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(report.suppressed.is_empty());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn violations_fixture_finds_every_rule() {
    let report = geo_lint::check(&fixture("violations")).unwrap();
    for rule in [
        "D1", "D2", "D3", "P1", "R1", "R2", "R3", "R4", "R5", "X1", "X2",
    ] {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "no {rule} diagnostic in:\n{}",
            report.render_human()
        );
    }
    // The sorted/aggregate/suppressed idioms must not add D2 noise: exactly
    // the bare loop and the unsorted keys remain.
    let d2: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "D2")
        .collect();
    assert_eq!(d2.len(), 2, "{d2:?}");
    // Marked-but-clean and unmarked-allocating functions add no P1 noise.
    let p1: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "P1")
        .collect();
    assert_eq!(p1.len(), 3, "{p1:?}");
    // The bootstrap-exempt spawn and the unmarked spawn are told apart:
    // exactly the serving-path spawn and the blocking read are flagged.
    let r4: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R4")
        .collect();
    assert_eq!(r4.len(), 2, "{r4:?}");
    // The `metered` read loop checks `body_limit` and must not be flagged:
    // exactly the EOF slurp and the budget-less drip loop remain.
    let r5: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R5")
        .collect();
    assert_eq!(r5.len(), 2, "{r5:?}");
    // The four legitimate allows are recorded, with their reasons.
    assert_eq!(report.suppressed.len(), 4);
    assert_eq!(report.suppressed[0].rule, "R4");
    assert!(report.suppressed[0].reason.contains("one-shot test client"));
    assert_eq!(report.suppressed[1].rule, "R5");
    assert!(report.suppressed[1].reason.contains("debug dump"));
    assert_eq!(report.suppressed[2].rule, "P1");
    assert!(report.suppressed[2].reason.contains("cold fallback"));
    assert_eq!(report.suppressed[3].rule, "D2");
    assert!(report.suppressed[3].reason.contains("re-sorted"));
}

#[test]
fn cfg_test_regions_are_exempt() {
    let report = geo_lint::check(&fixture("violations")).unwrap();
    // server.rs has an unwrap inside #[cfg(test)]; only the two serving-path
    // diagnostics (unwrap + panic!) may appear for that file.
    let server: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file.ends_with("geo-serve/src/server.rs"))
        .collect();
    assert_eq!(server.len(), 2, "{server:?}");
    assert!(server.iter().all(|d| d.rule == "R1"));
    assert!(server.iter().all(|d| d.line < 11), "{server:?}");
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_geo-lint"))
        .args(args)
        .output()
        .expect("spawn geo-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean() {
    let bad = fixture("violations");
    let (code, _) = run_cli(&["check", "--root", bad.to_str().unwrap()]);
    assert_eq!(code, 1);
    let good = fixture("clean");
    let (code, out) = run_cli(&["check", "--root", good.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 diagnostics"), "{out}");
}

#[test]
fn cli_json_mode_is_well_formed() {
    let bad = fixture("violations");
    let (code, out) = run_cli(&["check", "--json", "--root", bad.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.trim_start().starts_with('{'), "{out}");
    assert!(out.contains("\"rule\": \"D1\""), "{out}");
    assert!(out.contains("\"clean\": false"), "{out}");
    assert_eq!(out.trim_end().chars().last(), Some('}'), "{out}");
    // Snippets with embedded quotes/backslashes must be escaped.
    assert!(out.contains(r#"panic!(\"empty request\");"#), "{out}");
}

#[test]
fn cli_rules_lists_all_rules() {
    let (code, out) = run_cli(&["rules"]);
    assert_eq!(code, 0);
    for rule in [
        "D1", "D2", "D3", "P1", "R1", "R2", "R3", "R4", "R5", "X1", "X2",
    ] {
        assert!(out.contains(rule), "{out}");
    }
}

#[test]
fn cli_usage_errors_exit_2() {
    let (code, _) = run_cli(&[]);
    assert_eq!(code, 2);
    let (code, _) = run_cli(&["check", "--root"]);
    assert_eq!(code, 2);
    let (code, _) = run_cli(&["check", "--frobnicate"]);
    assert_eq!(code, 2);
    // The call graph always runs; its old opt-in flag is gone.
    let (code, _) = run_cli(&["check", "--call-graph"]);
    assert_eq!(code, 2);
}
