//! Every per-layer count marked exact must repeat bit for bit: across two
//! traced runs of one seed, and across `IPGEO_THREADS` 1 and 2.
//!
//! Each test runs the benchmark binary three times on one workload, so it
//! takes as long as three traced passes (the campaign, about 90 s).

use std::process::Command;

const SEED: &str = "7";

/// Runs one traced pass and returns its metrics from the result line.
fn traced(workload: &str, threads: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", "1", "--threads", threads])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} at {threads} threads failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices("\": {\"value\": ")
        .map(|(i, m)| {
            let name_start = metrics[..i].rfind('"').expect("name opens") + 1;
            let rest = &metrics[i + m.len()..];
            let value = &rest[..rest.find(',').expect("value ends")];
            (
                metrics[name_start..i].to_string(),
                value.parse().expect("a number"),
            )
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

fn assert_exact(workload: &str, names: &[&str]) {
    let first = traced(workload, "2");
    let again = traced(workload, "2");
    let serial = traced(workload, "1");
    for name in names {
        let v = value(&first, name);
        assert_eq!(
            v.to_bits(),
            value(&again, name).to_bits(),
            "{workload} {name} between runs"
        );
        assert_eq!(
            v.to_bits(),
            value(&serial, name).to_bits(),
            "{workload} {name} at 1 thread"
        );
    }
}

#[test]
fn campaign_counts_are_exact() {
    assert_exact(
        "campaign",
        &["net-sim.hotpath.pings", "core.sanitize.removed"],
    );
}

#[test]
fn publish_counts_are_exact() {
    assert_exact(
        "publish",
        &[
            "core.resilient.attempts",
            "core.resilient.retries",
            "core.resilient.credits",
            "net-sim.cache.entries",
            "core.cbg.solves",
            "geo-hints.probe_attempts",
            "geo-hints.verified_ratio",
            "geo-serve.format.bytes",
        ],
    );
}

const SERVE_EXACT: [&str; 5] = [
    "geo-serve.cache.hit_rate",
    "geo-serve.cache.evictions",
    "geo-serve.store.lookups",
    "geo-serve.server.errors",
    "geo-serve.format.bytes",
];

#[test]
fn serve_zipf_counts_are_exact() {
    assert_exact("serve-zipf", &SERVE_EXACT);
}

#[test]
fn serve_line_counts_are_exact() {
    assert_exact("serve-line", &SERVE_EXACT);
}
