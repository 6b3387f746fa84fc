//! CLI: `geo-lint check [--json] [--root <dir>]` and `geo-lint rules`.
//!
//! Exit codes: 0 clean (suppressions alone are fine), 1 diagnostics found,
//! 2 usage or I/O error. Wall time goes to stderr so piped `--json` output
//! stays valid JSON.

use geo_lint::rules::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: geo-lint <check [--json] [--root <dir>] | rules>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("rules") => {
            for r in RULES {
                println!("{}  {}", r.id, r.summary);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    // When invoked via `cargo run` the working directory is the workspace
    // root already; fall back to the manifest's grandparent so the binary
    // also works from anywhere inside the tree.
    if !root.join("crates").is_dir() {
        let from_manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .map(std::path::Path::to_path_buf);
        if let Some(p) = from_manifest.filter(|p| p.join("crates").is_dir()) {
            root = p;
        }
    }

    #[allow(clippy::disallowed_methods)] // CLI wall-time, not simulation code
    let t0 = std::time::Instant::now();
    match geo_lint::check(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            eprintln!("geo-lint: wall time {:.3}s", t0.elapsed().as_secs_f64());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("geo-lint: {e}");
            ExitCode::from(2)
        }
    }
}
