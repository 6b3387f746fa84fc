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
//! | `D1` | wall-clock / ambient entropy in deterministic crates |
//! | `D2` | iteration over `HashMap`/`HashSet` outside sort-then-iterate |
//! | `D3` | RNG construction bypassing `geo_model::rng` seeding |
//! | `R1` | `unwrap`/`expect`/`panic!` in `geo-serve` serving paths |
//! | `R2` | `static mut` / `unsafe impl` shared mutable state |
//! | `R5` | unbounded buffer growth (`read_to_end`, budget-less read loops) in serving paths |
//! | `P1` | heap allocation inside a `// geo-lint: hot-path` function |
//! | `X1` | malformed or unknown `geo-lint: allow(...)` directive |
//! | `X2` | stale allow (suppresses nothing, or allows an unchecked rule) |
//!
//! With `--call-graph` the per-file rules gain interprocedural siblings.
//! An item-level parser (`parser`) extracts every `fn` with its calls
//! and sinks, a best-effort resolver (`callgraph`) links them across
//! crates, and a reachability engine (`reach`) walks the graph:
//!
//! | rule  | violation |
//! |-------|-----------|
//! | `R1T` | panic/indexing reachable from a `// geo-lint: serve-entry` fn |
//! | `R4T` | blocking construct / lock-across-write reachable from serving |
//! | `D1T` | clock/entropy reachable from a deterministic crate |
//! | `P1T` | allocation in callees of `// geo-lint: hot-path` functions |
//! | `L1`  | lock-acquisition-order cycle between mutex classes |
//!
//! Every transitive finding carries its witness call chain, and calls the
//! resolver could not pin down are *reported* (never silently treated as
//! safe). A violation is suppressed with an inline
//! `// geo-lint: allow(<rule>, reason = "...")` on the offending line (or
//! on its own line directly above; for transitive rules, above the sink's
//! `fn` to scope the allow to the whole function); every suppression is
//! recorded in the report. The tool is dependency-free — a hand-rolled
//! lexer, no registry crates — and runs as `cargo run -p geo-lint -- check`.

pub(crate) mod callgraph;
pub mod lexer;
pub(crate) mod parser;
pub(crate) mod reach;
pub mod report;
pub mod rules;
pub mod walk;

use report::{GraphSummary, Report, UnresolvedCall};
use rules::Config;
use std::path::Path;

/// Knobs for a check run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Build the workspace call graph and run the transitive rules.
    pub call_graph: bool,
}

/// Checks every discovered file under `root`, returning the sorted report.
pub fn check(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    check_with(root, cfg, CheckOptions::default())
}

/// [`check`], with explicit options.
pub fn check_with(root: &Path, cfg: &Config, opts: CheckOptions) -> std::io::Result<Report> {
    let rels = walk::discover(root, cfg)?;
    let mut srcs: Vec<String> = Vec::with_capacity(rels.len());
    for rel in &rels {
        srcs.push(std::fs::read_to_string(root.join(rel))?);
    }

    // The per-file pass is pure, so the parallel map is safe and — because
    // `par_map_indexed` returns results in index order — byte-identical at
    // any `IPGEO_THREADS`, serial at 1.
    let analyses: Vec<rules::FileAnalysis> = geo_model::runtime::par_map_indexed(rels.len(), |i| {
        rules::analyze_file(cfg, &rels[i], &srcs[i])
    });

    let mut report = Report::default();
    let mut transitive = Vec::new();
    if opts.call_graph {
        let idents = callgraph::crate_idents(root);
        let inputs: Vec<callgraph::FileInput<'_>> = analyses
            .iter()
            .map(|a| callgraph::FileInput {
                rel: &a.rel,
                parsed: &a.parsed,
            })
            .collect();
        let graph = callgraph::build(&inputs, &idents);
        let outcome = reach::analyze(cfg, &graph);
        transitive = outcome.findings;
        report.unresolved = outcome
            .unresolved
            .into_iter()
            .map(|u| UnresolvedCall {
                from: u.from_key,
                name: u.name,
                file: u.file,
                line: u.line,
                why: u.why,
            })
            .collect();
        report.graph = Some(GraphSummary {
            functions: outcome.functions,
            edges: outcome.edges,
            unresolved: outcome.unresolved_total,
        });
    }

    rules::merge(cfg, analyses, transitive, opts.call_graph, &mut report);
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `IPGEO_THREADS` is process-global; the test that flips it must not
    /// overlap the timed call-graph run.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crate lives at <root>/crates/geo-lint")
    }

    /// The real workspace must stay clean: this is the same gate CI runs,
    /// enforced from the tier-1 test suite so a violating change cannot
    /// land even when CI is skipped.
    #[test]
    fn workspace_is_clean() {
        let report = check(repo_root(), &Config::workspace()).expect("workspace scan");
        assert!(report.files_scanned > 50, "suspiciously few files scanned");
        assert!(
            report.is_clean(),
            "geo-lint violations in the workspace:\n{}",
            report.render_human()
        );
    }

    /// The call-graph gate: zero unsuppressed transitive findings in the
    /// real tree, a graph of credible size, and a total wall time under
    /// the 5 s CI budget.
    #[test]
    fn workspace_call_graph_is_clean() {
        let _env = ENV_LOCK.lock().unwrap();
        #[allow(clippy::disallowed_methods)] // timing a test, not product code
        let t0 = std::time::Instant::now();
        let report = check_with(
            repo_root(),
            &Config::workspace(),
            CheckOptions { call_graph: true },
        )
        .expect("workspace scan");
        let elapsed = t0.elapsed();
        assert!(
            report.is_clean(),
            "transitive geo-lint violations in the workspace:\n{}",
            report.render_human()
        );
        let g = report.graph.expect("graph summary present");
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
        let cfg = Config::workspace();
        let mk = |threads| {
            std::env::set_var("IPGEO_THREADS", threads);
            check_with(repo_root(), &cfg, CheckOptions { call_graph: true })
                .expect("workspace scan")
        };
        let ser = mk("1");
        let par = mk("8");
        std::env::remove_var("IPGEO_THREADS");
        assert_eq!(par.render_human(), ser.render_human());
        assert_eq!(par.render_json(), ser.render_json());
    }
}
