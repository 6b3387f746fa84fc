//! `geo-lint`: the workspace determinism & robustness auditor.
//!
//! Everything this replication publishes rests on one claim: a campaign is
//! a pure function of `(seed, src, dst, nonce)`, so datasets and `.igds`
//! snapshots are byte-identical at any thread count. Equivalence tests
//! guard that invariant at a handful of points; this crate guards it
//! *statically*, across the whole workspace, by scanning every source file
//! for the constructs that historically break it:
//!
//! | rule | violation |
//! |------|-----------|
//! | `D1` | wall-clock / ambient entropy in deterministic crates, or reachable from them |
//! | `D2` | iteration over `HashMap`/`HashSet` outside sort-then-iterate |
//! | `D3` | RNG construction bypassing `geo_model::rng` seeding |
//! | `R1` | `unwrap`/`expect`/`panic!` in `geo-serve` serving paths; any panic or indexing reachable from a `// geo-lint: serve-entry` fn |
//! | `R2` | `static mut` / `unsafe impl` shared mutable state |
//! | `R3` | retry loops over `ApiFault`s without bounded attempts |
//! | `R4` | `thread::spawn` / blocking reads in serving paths, or reachable from them; a lock held across a write |
//! | `R5` | unbounded buffer growth (`read_to_end`, budget-less read loops) in serving paths |
//! | `P1` | heap allocation inside a `// geo-lint: hot-path` function or its callees |
//! | `L1` | lock-acquisition-order cycle between mutex classes |
//! | `X1` | malformed or unknown `geo-lint: allow(...)` directive |
//! | `X2` | stale allow (suppresses nothing, or allows an unchecked rule) |
//!
//! D2, D3, R2, R3 and R5 scan one file's tokens (`rules`). The others read
//! an item-level parser (`parser`), which extracts every `fn` with its
//! calls and sinks, and the sinks outside fn bodies (clock identifiers,
//! and `macro_rules!` templates), over a best-effort cross-crate call graph
//! (`callgraph`): each of D1, R1, R4 and P1 flags a sink inside its own
//! scope directly, and one outside it when a reachability walk (`reach`)
//! gets there from the rule's roots.
//!
//! Every reachable finding carries its witness call chain, and calls the
//! resolver could not pin down are *reported* (never silently treated as
//! safe). A violation is suppressed with an inline
//! `// geo-lint: allow(<rule>, reason = "...")` on the offending line (or
//! on its own line directly above; for a reachable finding, above the
//! sink's `fn` to scope the allow to the whole function); every
//! suppression is recorded in the report. The tool is dependency-free — a
//! hand-rolled lexer, no registry crates — and runs as
//! `cargo run -p geo-lint -- check`.

pub(crate) mod callgraph;
pub mod lexer;
pub(crate) mod parser;
pub(crate) mod reach;
pub mod report;
pub mod rules;
pub mod walk;

use report::{GraphSummary, Report, UnresolvedCall};
use std::collections::BTreeMap;
use std::path::Path;

/// Checks every discovered file under `root`, returning the sorted report.
pub fn check(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for rel in walk::discover(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(lint(&files, &callgraph::crate_idents(root)))
}

/// Lints `files` — `(root-relative path, source)` pairs in path order — as
/// one workspace whose crate directories map to lib identifiers through
/// `crate_idents` (missing ones fall back to the directory name).
pub(crate) fn lint(files: &[(String, String)], crate_idents: &BTreeMap<String, String>) -> Report {
    // The per-file pass is pure, so the parallel map is safe and — because
    // `par_map_indexed` returns results in index order — byte-identical at
    // any `IPGEO_THREADS`, serial at 1.
    let analyses: Vec<rules::FileAnalysis> =
        geo_model::runtime::par_map_indexed(files.len(), |i| {
            rules::analyze_file(&files[i].0, &files[i].1)
        });

    let inputs: Vec<callgraph::FileInput<'_>> = analyses
        .iter()
        .map(|a| callgraph::FileInput {
            rel: &a.rel,
            parsed: &a.parsed,
        })
        .collect();
    let graph = callgraph::build(&inputs, crate_idents);
    let outcome = reach::analyze(&graph, &inputs);

    let mut report = Report {
        unresolved: outcome
            .unresolved
            .into_iter()
            .map(|u| UnresolvedCall {
                from: u.from_key,
                name: u.name,
                file: u.file,
                line: u.line,
                why: u.why,
            })
            .collect(),
        graph: GraphSummary {
            functions: outcome.functions,
            edges: outcome.edges,
            unresolved: outcome.unresolved_total,
        },
        ..Report::default()
    };
    rules::merge(analyses, outcome.findings, &mut report);
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `IPGEO_THREADS` is process-global; the test that flips it must not
    /// overlap the timed workspace run.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crate lives at <root>/crates/geo-lint")
    }

    /// The real workspace must stay clean: the same gate CI runs, enforced
    /// from the tier-1 test suite so a violating change cannot land even
    /// when CI is skipped. The graph must be of credible size and the
    /// whole run must fit the 5 s CI budget.
    #[test]
    fn workspace_call_graph_is_clean() {
        let _env = ENV_LOCK.lock().unwrap();
        #[allow(clippy::disallowed_methods)] // timing a test, not product code
        let t0 = std::time::Instant::now();
        let report = check(repo_root()).expect("workspace scan");
        let elapsed = t0.elapsed();
        assert!(report.files_scanned > 50, "suspiciously few files scanned");
        assert!(
            report.is_clean(),
            "geo-lint violations in the workspace:\n{}",
            report.render_human()
        );
        let g = report.graph;
        assert!(g.functions > 100, "suspiciously small graph: {g:?}");
        assert!(g.edges > 100, "suspiciously few edges: {g:?}");
        assert!(
            elapsed.as_secs_f64() < 5.0,
            "full-workspace call-graph lint took {elapsed:?}, budget is 5 s"
        );
    }

    /// The serial pass (`IPGEO_THREADS=1`) and an 8-worker pass must be
    /// byte-identical in both renderings, call graph included.
    #[test]
    fn parallel_and_serial_reports_are_byte_identical() {
        let _env = ENV_LOCK.lock().unwrap();
        let mk = |threads| {
            std::env::set_var("IPGEO_THREADS", threads);
            check(repo_root()).expect("workspace scan")
        };
        let ser = mk("1");
        let par = mk("8");
        std::env::remove_var("IPGEO_THREADS");
        assert_eq!(par.render_human(), ser.render_human());
        assert_eq!(par.render_json(), ser.render_json());
    }
}
