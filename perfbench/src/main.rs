//! `perfbench` — the repository's end-to-end and per-layer benchmark of
//! building and serving the geolocation dataset.
//!
//! ```text
//! perfbench --workload <campaign|publish|serve-zipf|serve-line|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) replays the workload's layer calls from outside under
//! spans and prints every per-layer metric. Either way the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is nonzero when
//! an output check failed. `--workload all` runs each workload in a child
//! process of its own, so that each one's peak memory is its own. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.

// Reading the wall clock is this program's job; the workspace's
// clippy.toml bans it for the deterministic crates.
#![allow(clippy::disallowed_methods)]

mod campaign;
mod publish;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, to confirm a claim on unseen inputs.
pub const HOLDOUT_SEED: u64 = 2_718_281;
/// Worker threads for the builds, unless `--threads` says otherwise.
pub const DEFAULT_THREADS: usize = 2;
/// "City level" in the paper: an estimate within 40 km of the truth.
pub const CITY_KM: f64 = 40.0;

/// End-to-end metrics (untraced run): name and unit. Every workload
/// reports each of them; README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("city_frac", "share"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("world-sim.generate_s", "s"),
    ("web-sim.generate_s", "s"),
    ("net-sim.hotpath.rows_s", "s"),
    ("net-sim.hotpath.pings", "count"),
    ("core.sanitize.s", "s"),
    ("core.sanitize.removed", "count"),
    ("geo-model.matrix.s", "s"),
    ("core.two_step.select_s", "s"),
    ("core.resilient.s", "s"),
    ("core.resilient.attempts", "count"),
    ("core.resilient.retries", "count"),
    ("core.resilient.credits", "count"),
    ("net-sim.cache.hit_rate", "share"),
    ("net-sim.cache.entries", "count"),
    ("core.cbg.s", "s"),
    ("core.cbg.solves", "count"),
    ("core.dbsim.s", "s"),
    ("geo-hints.s", "s"),
    ("geo-hints.probe_attempts", "count"),
    ("geo-hints.verified_ratio", "share"),
    ("geo-serve.format.encode_s", "s"),
    ("geo-serve.format.open_s", "s"),
    ("geo-serve.format.bytes", "count"),
    ("geo-serve.proto.decode_ns", "ns"),
    ("geo-serve.proto.encode_ns", "ns"),
    ("geo-serve.cache.hit_rate", "share"),
    ("geo-serve.cache.evictions", "count"),
    ("geo-serve.cache.ns", "ns"),
    ("geo-serve.store.lookup_ns", "ns"),
    ("geo-serve.store.lookups", "count"),
    ("geo-serve.line.format_ns", "ns"),
    ("geo-serve.server.socket_ns", "ns"),
    ("geo-serve.server.errors", "count"),
    ("trace.residual", "share"),
    ("trace.overhead", "share"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// False when any output check failed.
    pub correct: bool,
    /// Operations attempted (builds' hosts or prefixes, served queries).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result: sample counts,
    /// tail percentiles, spreads and failed checks.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed output check; the run's exit code becomes nonzero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// One run's settings, shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// A file in `.bench_out/` under the working directory, where snapshots
/// and span files go; the directory is created on first use.
pub fn out_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("output directory is writable");
    dir.join(name)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The peak and the current resident set, for the notes.
pub fn memory_note() -> String {
    format!(
        "VmHWM {:.1} MB, VmRSS {:.1} MB",
        status_mb("VmHWM:"),
        status_mb("VmRSS:")
    )
}

/// Kernel clock ticks per second in `/proc` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// This process's CPU time (user and system, all threads) and the host's
/// steal time (summed over vCPUs: time a vCPU had work but the hypervisor
/// ran something else), in seconds. Printed beside wall times, they tell a
/// build the host stalled from one that did more work.
#[derive(Debug, Clone, Copy)]
pub struct Clocks {
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Clocks {
    pub fn now() -> Clocks {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised name: utime and stime are the
        // 12th and 13th.
        let cpu_ticks: f64 = stat
            .rsplit_once(')')
            .map(|(_, rest)| {
                rest.split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|v| v.parse::<f64>().ok())
                    .sum()
            })
            .unwrap_or(f64::NAN);
        let host = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // `cpu  user nice system idle iowait irq softirq steal ...`
        let steal_ticks = host
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN);
        Clocks {
            cpu_s: cpu_ticks / USER_HZ,
            steal_s: steal_ticks / USER_HZ,
        }
    }

    /// What each clock advanced by since `self`.
    pub fn since(self) -> Clocks {
        let now = Clocks::now();
        Clocks {
            cpu_s: now.cpu_s - self.cpu_s,
            steal_s: now.steal_s - self.steal_s,
        }
    }
}

/// A note line with the CPU and steal seconds of each build.
pub fn clocks_note(what: &str, clocks: &[Clocks]) -> String {
    let cpu: Vec<String> = clocks.iter().map(|c| format!("{:.2}", c.cpu_s)).collect();
    let steal: Vec<String> = clocks.iter().map(|c| format!("{:.2}", c.steal_s)).collect();
    format!(
        "{what}: process cpu_s [{}], host steal_s [{}]",
        cpu.join(", "),
        steal.join(", ")
    )
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

const USAGE: &str = "usage: perfbench --workload <campaign|publish|serve-zipf|serve-line|all> \
[--seed N] [--seconds S] [--trace 0|1] [--threads N]";

const WORKLOADS: [&str; 4] = ["campaign", "publish", "serve-zipf", "serve-line"];

fn parse(argv: &[String]) -> Result<(Vec<&'static str>, Settings), String> {
    let mut workloads = Vec::new();
    let mut settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        threads: DEFAULT_THREADS,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" if value == "all" => workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let known = WORKLOADS
                    .iter()
                    .find(|k| *k == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workloads = vec![*known];
            }
            "--seed" => settings.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            "--threads" => {
                settings.threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("bad threads `{value}`"))?;
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    if workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok((workloads, settings))
}

fn run_one(workload: &str, settings: &Settings) -> Outcome {
    match workload {
        "campaign" => campaign::run(settings),
        "publish" => publish::run(settings),
        "serve-zipf" => serve::run(serve::Mode::Zipf, settings),
        "serve-line" => serve::run(serve::Mode::Line, settings),
        other => unreachable!("workload `{other}` passed argument parsing"),
    }
}

/// Runs one workload in a child process of this program with the same
/// settings, echoes the child's output and returns its result line.
fn run_child(workload: &str, s: &Settings) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if s.trace { "1" } else { "0" }])
        .args(["--threads", &s.threads.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    if !last.starts_with('{') {
        return Err(format!(
            "the {workload} run ({}) printed no result",
            out.status
        ));
    }
    Ok(last.to_string())
}

/// A result line's `correct`, `attempted`, `failed` and the value of each
/// metric in `table`, as `result_line` writes them (`null` reads as NaN).
fn parse_result(line: &str, table: &[(&str, &str)]) -> (bool, u64, u64, Vec<f64>) {
    let after = |key: &str| -> &str {
        line.find(key)
            .map_or("", |i| &line[i + key.len()..])
            .split([',', '}'])
            .next()
            .unwrap_or_default()
            .trim()
    };
    let values = table
        .iter()
        .map(|(name, _)| {
            after(&format!("\"{name}\": {{\"value\": "))
                .parse()
                .unwrap_or(f64::NAN)
        })
        .collect();
    (
        after("\"correct\": ") == "true",
        after("\"attempted\": ").parse().unwrap_or(0),
        after("\"failed\": ").parse().unwrap_or(0),
        values,
    )
}

/// Formats a metric value as JSON: finite numbers with every digit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Orders a workload's metrics by the declared table, filling layers the
/// workload never calls with 0. A non-finite value fails the run.
fn declared_metrics(outcome: &mut Outcome, trace: bool) -> Vec<(String, f64, &'static str)> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::new();
    for (name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        if !value.is_finite() {
            outcome.check(false, || format!("metric {name} is not a finite number"));
        }
        out.push(((*name).to_string(), value, *unit));
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::SNAPSHOT_FLAG) {
        return serve::write_snapshot_main(&argv[1..]);
    }
    let (workloads, settings) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every build layer reads its worker count from IPGEO_THREADS; set it
    // before any thread starts so the whole run uses the stated budget.
    std::env::set_var("IPGEO_THREADS", settings.threads.to_string());
    println!(
        "# perfbench seed={} (default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}) seconds={} trace={} \
         IPGEO_THREADS={} available_parallelism={}",
        settings.seed,
        settings.seconds,
        u8::from(settings.trace),
        settings.threads,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let ok = if let [w] = workloads[..] {
        run_here(w, &settings)
    } else {
        run_each(&workloads, &settings)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result line.
fn run_here(w: &str, settings: &Settings) -> bool {
    let mut outcome = run_one(w, settings);
    let metrics = declared_metrics(&mut outcome, settings.trace);
    for note in &outcome.notes {
        println!("# {w}: {note}");
    }
    for (name, value, unit) in &metrics {
        println!("# {w}: {name} = {value} {unit}");
    }
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    outcome.correct && outcome.failed == 0
}

/// Runs each workload in a child process, then prints one result line
/// with every workload's metrics under `<workload>/<metric>`.
fn run_each(workloads: &[&str], settings: &Settings) -> bool {
    let table: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut combined = Vec::new();
    for w in workloads {
        let (correct, a, f, values) = match run_child(w, settings) {
            Ok(line) => parse_result(&line, table),
            Err(e) => {
                println!("# {w}: CHECK FAILED: {e}");
                (false, 0, 0, vec![f64::NAN; table.len()])
            }
        };
        all_ok &= correct && values.iter().all(|v| v.is_finite());
        attempted += a;
        failed += f;
        combined.extend(
            table
                .iter()
                .zip(values)
                .map(|((name, unit), value)| (format!("{w}/{name}"), value, *unit)),
        );
    }
    println!("{}", result_line(all_ok, attempted, failed, &combined));
    all_ok && failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must list exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("name closes")].to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        let workloads = names("workloads");
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn a_result_line_parses_back() {
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| (name.to_string(), 0.1 + i as f64 * 1e6, *unit))
            .collect();
        let line = result_line(true, 12, 3, &metrics);
        let (correct, attempted, failed, values) = parse_result(&line, &END_TO_END);
        assert!(correct);
        assert_eq!((attempted, failed), (12, 3));
        let want: Vec<f64> = metrics.iter().map(|m| m.1).collect();
        assert_eq!(values, want);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
