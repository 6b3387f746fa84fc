//! Bulk-campaign benchmarks: the serial vs parallel measurement engine
//! (`IPGEO_THREADS`) and the cold vs warm base-delay cache.
//!
//! `cargo bench -p bench --bench campaigns` runs the Criterion group;
//! `cargo bench -p bench --bench campaigns -- --snapshot` additionally
//! rewrites `BENCH_campaigns.json` at the repo root with one fixed-shape
//! timing pass (the committed snapshot).

// Timing measurement is this code's purpose; the workspace bans
// wall-clock reads by default (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, Criterion};
use eval::dataset::Dataset;
use eval::EvalScale;
use geo_model::rng::Seed;
use net_sim::Network;
use world_sim::{World, WorldConfig};

/// Builds the tiny-scale dataset with a fixed worker count. The env knob
/// is read per campaign, so setting it around the build is enough.
fn build_dataset(scale: EvalScale, threads: &str) -> Dataset {
    std::env::set_var("IPGEO_THREADS", threads);
    let d = Dataset::load(scale);
    std::env::remove_var("IPGEO_THREADS");
    d
}

/// One probe→anchor sweep of `Network::base_rtt`, the one path through
/// the base-delay cache (`ping_min` computes base delays without it):
/// every lookup in the sweep is a cache hit after the first pass.
fn base_delay_sweep(world: &World, net: &Network) -> f64 {
    let mut acc = 0.0;
    for &p in &world.probes {
        for &a in &world.anchors {
            acc += net.base_rtt(world, p, a).value();
        }
    }
    acc
}

fn bench_campaigns(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaigns");
    g.sample_size(10);
    g.bench_function("dataset_build/serial", |b| {
        b.iter(|| build_dataset(EvalScale::tiny(Seed(631)), "1"));
    });
    g.bench_function("dataset_build/parallel", |b| {
        b.iter(|| build_dataset(EvalScale::tiny(Seed(631)), "0"));
    });

    let world = World::generate(WorldConfig::small(Seed(441))).expect("small world");
    let net = Network::new(Seed(441));
    g.bench_function("base_delay/cold", |b| {
        b.iter(|| {
            net.clear_cache();
            base_delay_sweep(&world, &net)
        });
    });
    base_delay_sweep(&world, &net); // warm the cache once
    g.bench_function("base_delay/warm", |b| {
        b.iter(|| base_delay_sweep(&world, &net));
    });
    g.finish();
}

criterion_group!(campaigns, bench_campaigns);

/// Median of `reps` wall-clock timings of `f`, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            criterion::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One fixed-shape measurement pass, written to `BENCH_campaigns.json`.
///
/// Schema (`"schema": "campaigns-v2"`): `dataset_build_*` blocks report a
/// serial wall-clock time and a `parallel_threads`-way time for the *same*
/// build (outputs are bit-identical at any thread count); `speedup` is
/// their ratio and is honest for the committed host — on a 1-core
/// container it sits near 1.0 by design. The optional `stage_budget`
/// block is owned by `benches/stages.rs --snapshot` and preserved here.
fn write_snapshot() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaigns.json");
    // Carry over the stage budget from a previous stages snapshot, if any,
    // so the two snapshot tools can run in either order.
    let stage_budget = std::fs::read_to_string(path)
        .ok()
        .and_then(|old| {
            let start = old.find("  \"stage_budget\":")?;
            let end = old[start..].find("\n  \"note\":")?;
            Some(format!("{}\n", &old[start..start + end]))
        })
        .unwrap_or_default();
    println!("snapshot: timing tiny-scale dataset builds (serial vs parallel)");
    let tiny_serial = time_median(3, || build_dataset(EvalScale::tiny(Seed(631)), "1"));
    let tiny_parallel = time_median(3, || build_dataset(EvalScale::tiny(Seed(631)), "4"));
    println!("snapshot: timing quick-scale dataset builds (one pass each)");
    let quick_serial = time_median(1, || build_dataset(EvalScale::quick(Seed(2023)), "1"));
    let quick_parallel = time_median(1, || build_dataset(EvalScale::quick(Seed(2023)), "4"));

    let world = World::generate(WorldConfig::small(Seed(441))).expect("small world");
    let net = Network::new(Seed(441));
    let cold = time_median(5, || {
        net.clear_cache();
        base_delay_sweep(&world, &net)
    });
    net.clear_cache();
    base_delay_sweep(&world, &net);
    let stats_after_first_pass = net.cache_stats();
    let warm = time_median(5, || base_delay_sweep(&world, &net));
    let stats = net.cache_stats();

    let json = format!(
        r#"{{
  "bench": "campaigns",
  "schema": "campaigns-v2",
  "host": {{ "available_parallelism": {cores} }},
  "parallel_threads": 4,
  "dataset_build_tiny": {{
    "serial_s": {tiny_serial:.3},
    "parallel_4_threads_s": {tiny_parallel:.3},
    "speedup": {:.2}
  }},
  "dataset_build_quick": {{
    "serial_s": {quick_serial:.2},
    "parallel_4_threads_s": {quick_parallel:.2},
    "speedup": {:.2}
  }},
  "base_delay_cache": {{
    "cold_sweep_s": {cold:.4},
    "warm_sweep_s": {warm:.4},
    "speedup": {:.2},
    "entries": {},
    "first_pass_hits": {},
    "first_pass_misses": {},
    "warm_hits": {},
    "warm_misses": {},
    "warm_hit_rate": {:.4}
  }},
{stage_budget}  "note": "timings from the committed container; parallel speedup scales with available_parallelism (1 core here => parity by design, matrices are bit-identical at any IPGEO_THREADS); stage_budget (if present) comes from benches/stages.rs --snapshot"
}}
"#,
        tiny_serial / tiny_parallel,
        quick_serial / quick_parallel,
        cold / warm,
        stats.entries,
        stats_after_first_pass.hits,
        stats_after_first_pass.misses,
        stats.hits - stats_after_first_pass.hits,
        stats.misses - stats_after_first_pass.misses,
        stats.hit_rate(),
    );
    std::fs::write(path, &json).expect("write BENCH_campaigns.json");
    println!("snapshot written to {path}:\n{json}");
}

fn main() {
    if std::env::args().any(|a| a == "--snapshot") {
        write_snapshot();
        return;
    }
    campaigns();
}
