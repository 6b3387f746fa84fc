//! Criterion benchmarks of the pipeline stages, plus the per-stage time
//! budget snapshot.
//!
//! `cargo bench -p bench --bench stages` runs the Criterion group;
//! `cargo bench -p bench --bench stages -- --snapshot` times the four
//! hot-path stages (route synthesis, delay model, constraint solve,
//! publish encode) on the small CI preset and merges a `stage_budget`
//! object into `BENCH_campaigns.json` (run the campaigns snapshot first —
//! it owns the rest of the file). The CI `bench-smoke` job runs this on
//! every push and validates the emitted schema.

// Timing measurement is this code's purpose; the workspace bans
// wall-clock reads by default (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, BatchSize, Criterion};
use geo_hints::{build_dataset_fused, FusedConfig};
use geo_model::constraint::{Circle, Region, RegionScratch};
use geo_model::ip::Prefix24;
use geo_model::matrix::DelayMatrix;
use geo_model::point::GeoPoint;
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Km;
use ipgeo::cbg::{cbg, cbg_with, VpMeasurement};
use ipgeo::two_step::greedy_coverage;
use ipgeo::Resilience;
use net_sim::{Network, RowScratch};
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

fn world() -> (World, Network) {
    let w = World::generate(WorldConfig::small(Seed(401))).expect("small world");
    let net = Network::new(Seed(401));
    (w, net)
}

fn synthetic_measurements(n: usize) -> Vec<VpMeasurement> {
    let target = GeoPoint::new(48.0, 8.0);
    (0..n)
        .map(|i| {
            let bearing = (i as f64 * 137.5) % 360.0;
            let dist = 50.0 + (i as f64 * 97.0) % 4000.0;
            let loc = target.destination(bearing, Km(dist));
            VpMeasurement {
                vp: HostId(i as u32),
                location: loc,
                rtt: SpeedOfInternet::CBG.min_rtt(Km(dist)) * 1.4,
            }
        })
        .collect()
}

fn bench_cbg(c: &mut Criterion) {
    let mut g = c.benchmark_group("cbg_intersection");
    for n in [10usize, 100, 1000, 10_000] {
        let ms = synthetic_measurements(n);
        g.bench_function(format!("{n}_vps"), |b| {
            b.iter(|| cbg(criterion::black_box(&ms), SpeedOfInternet::CBG));
        });
        let mut scratch = RegionScratch::new();
        g.bench_function(format!("{n}_vps_scratch"), |b| {
            b.iter(|| {
                cbg_with(
                    criterion::black_box(&ms),
                    SpeedOfInternet::CBG,
                    &mut scratch,
                )
            });
        });
    }
    g.finish();
}

fn bench_region_redundancy(c: &mut Criterion) {
    let ms = synthetic_measurements(5000);
    let circles: Vec<Circle> = ms
        .iter()
        .map(|m| Circle::new(m.location, SpeedOfInternet::CBG.max_distance(m.rtt)))
        .collect();
    let region = Region::from_circles(circles);
    c.bench_function("active_circles_5000", |b| {
        b.iter(|| criterion::black_box(&region).active_circles());
    });
}

fn bench_ping(c: &mut Criterion) {
    let (w, net) = world();
    let src = w.probes[0];
    let dst = w.host(w.anchors[0]).ip;
    c.bench_function("ping_min_3", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            net.ping_min(&w, src, dst, 3, nonce)
        });
    });
}

fn bench_campaign_row(c: &mut Criterion) {
    let (w, net) = world();
    let lane = net.target_lane(&w, &w.anchors);
    let mut scratch = RowScratch::new();
    let src = w.probes[0];
    c.bench_function("campaign_row", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            let mut acc = 0.0f64;
            net.campaign_row(
                &w,
                &lane,
                &mut scratch,
                src,
                3,
                |c| nonce ^ c as u64,
                None,
                |_, o| {
                    if let Some(rtt) = o.rtt() {
                        acc += rtt.value();
                    }
                },
            );
            acc
        });
    });
}

fn bench_traceroute(c: &mut Criterion) {
    let (w, net) = world();
    let src = w.probes[1];
    let dst = w.host(w.anchors[1]).ip;
    c.bench_function("traceroute", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            net.traceroute(&w, src, dst, nonce)
        });
    });
}

fn bench_greedy_coverage(c: &mut Criterion) {
    let (w, _) = world();
    let vps: Vec<HostId> = w.probes.clone();
    let mut g = c.benchmark_group("greedy_coverage");
    for k in [10usize, 50, 150] {
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| greedy_coverage(&w, criterion::black_box(&vps), k));
        });
    }
    g.finish();
}

/// The anchor mesh as the campaign engine builds it (see
/// `eval::dataset`): one row per source anchor, NaN diagonal.
fn anchor_mesh(w: &World, net: &Network) -> DelayMatrix {
    net.campaign(
        w,
        &w.anchors,
        &w.anchors,
        w.anchors.len(),
        3,
        |i, j| 9 ^ ((i as u64) << 24 | j as u64),
        Some,
        |row, _, j, o| row[j] = DelayMatrix::cell(o.rtt()),
    )
}

fn bench_sanitize(c: &mut Criterion) {
    let (w, net) = world();
    let mesh = anchor_mesh(&w, &net);
    c.bench_function("sanitize_anchors", |b| {
        b.iter_batched(
            || mesh.clone(),
            |m| ipgeo::sanitize_anchors(&w, &w.anchors, &m, SpeedOfInternet::CBG),
            BatchSize::SmallInput,
        );
    });
}

fn bench_fused_publish(c: &mut Criterion) {
    let (w, net) = world();
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    let prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
    let cfg = FusedConfig::new(1.0, 0.8);
    c.bench_function("publish_fused_anchor_prefixes", |b| {
        b.iter(|| {
            let res = Resilience::none();
            build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg)
                .0
                .len()
        });
    });
}

fn bench_world_generation(c: &mut Criterion) {
    c.bench_function("world_generate_small", |b| {
        b.iter(|| World::generate(WorldConfig::small(Seed(402))).expect("valid"));
    });
}

criterion_group!(
    benches,
    bench_cbg,
    bench_region_redundancy,
    bench_ping,
    bench_campaign_row,
    bench_traceroute,
    bench_greedy_coverage,
    bench_sanitize,
    bench_fused_publish,
    bench_world_generation
);

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

/// Times the four hot-path stages on `WorldConfig::small` and returns the
/// `stage_budget` JSON object (without trailing comma).
fn stage_budget_json() -> String {
    let (w, net) = world();
    let rows = w.probes.len();
    let cols = w.anchors.len();
    let lane = net.target_lane(
        &w,
        &w.probes
            .iter()
            .chain(&w.anchors)
            .copied()
            .collect::<Vec<_>>(),
    );
    // Stage 1: route synthesis — base RTTs only (count = 0), every probe
    // row against every host column through the campaign engine.
    let route_synth = time_median(3, || {
        let mut scratch = RowScratch::new();
        let mut acc = 0.0f64;
        for &p in &w.probes {
            net.campaign_row(
                &w,
                &lane,
                &mut scratch,
                p,
                0,
                |_| 0,
                None,
                |_, o| {
                    if let Some(rtt) = o.rtt() {
                        acc += rtt.value();
                    }
                },
            );
        }
        acc
    });
    // Stage 2: delay model — the same rows with 3-packet noise sampling;
    // the delta over stage 1 is the noise model's share.
    let delay_model = time_median(3, || {
        let mut scratch = RowScratch::new();
        let mut acc = 0.0f64;
        for (pi, &p) in w.probes.iter().enumerate() {
            net.campaign_row(
                &w,
                &lane,
                &mut scratch,
                p,
                3,
                |c| 0xB07 ^ ((pi as u64) << 20 | c as u64),
                None,
                |_, o| {
                    if let Some(rtt) = o.rtt() {
                        acc += rtt.value();
                    }
                },
            );
        }
        acc
    });
    // Stage 3: constraint solve — CBG over 1000 synthetic VPs, one shared
    // scratch across 50 targets (the campaign access pattern).
    let ms = synthetic_measurements(1000);
    let solve_targets = 50usize;
    let constraint_solve = time_median(3, || {
        let mut scratch = RegionScratch::new();
        let mut hits = 0usize;
        for t in 0..solve_targets {
            let mut shifted = ms.clone();
            for m in &mut shifted {
                m.rtt = m.rtt * (1.0 + t as f64 * 1e-3);
            }
            if cbg_with(&shifted, SpeedOfInternet::CBG, &mut scratch).is_some() {
                hits += 1;
            }
        }
        hits
    });
    // Stage 4: publish encode — CSV and .igds serialization of a built
    // dataset (the build itself is the campaigns snapshot's job).
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    let mut prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
    prefixes.extend(w.probes.iter().take(60).map(|&p| w.host(p).ip.prefix24()));
    prefixes.sort();
    prefixes.dedup();
    let (entries, _) =
        ipgeo::publish::build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 7);
    let publish_encode = time_median(3, || {
        let csv = ipgeo::publish::to_csv(&entries);
        let igds = geo_serve::format::encode(&entries, 401, 7);
        csv.len() + igds.len()
    });

    format!(
        r#""stage_budget": {{
    "preset": "world_small_seed_401",
    "route_synth_s": {route_synth:.4},
    "route_synth_rows": {rows},
    "route_synth_cols": {},
    "delay_model_s": {delay_model:.4},
    "constraint_solve_s": {constraint_solve:.4},
    "constraint_solve_targets": {solve_targets},
    "publish_encode_s": {publish_encode:.4},
    "publish_prefixes": {}
  }}"#,
        rows + cols,
        prefixes.len(),
    )
}

/// Times the fused publish path against the pure-latency baseline on the
/// same preset: the delta is the full cost of the hints tier (rDNS
/// mining, extraction, region verification, verification probes, fusion).
fn fusion_cost_json() -> String {
    let (w, net) = world();
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    let mut prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
    prefixes.extend(w.probes.iter().take(60).map(|&p| w.host(p).ip.prefix24()));
    prefixes.sort();
    prefixes.dedup();
    let res = Resilience::none();
    let baseline_s = time_median(3, || {
        ipgeo::publish::build_dataset(&w, &net, &res, &vps, &prefixes, 7)
            .0
            .len()
    });
    let cfg = FusedConfig::new(1.0, 0.8);
    let fused_s = time_median(3, || {
        build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg)
            .0
            .len()
    });
    let (entries, report) = build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg);
    let fused_entries = entries
        .iter()
        .filter(|e| matches!(e.evidence, ipgeo::publish::Evidence::Fused { .. }))
        .count();
    let overhead_pct = if baseline_s > 0.0 {
        (fused_s / baseline_s - 1.0) * 100.0
    } else {
        0.0
    };
    format!(
        r#""fusion": {{
    "preset": "world_small_seed_401",
    "coverage": 1.0,
    "truthfulness": 0.8,
    "baseline_build_s": {baseline_s:.4},
    "fused_build_s": {fused_s:.4},
    "overhead_pct": {overhead_pct:.1},
    "fused_entries": {fused_entries},
    "total_prefixes": {},
    "hint_probe_attempts": {},
    "hint_probe_credits": {}
  }}"#,
        prefixes.len(),
        report.hints.attempts,
        report.hints.credits.net(),
    )
}

/// Merges the `stage_budget` object into `BENCH_campaigns.json`, replacing
/// any previous one. The campaigns snapshot owns the rest of the file and
/// always keeps `"note"` as the final key, which anchors the splice.
fn write_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaigns.json");
    let current = std::fs::read_to_string(path)
        .expect("BENCH_campaigns.json missing: run the campaigns snapshot first");
    let anchor = "  \"note\":";
    let note_at = current.find(anchor).expect(
        "no \"note\" anchor in BENCH_campaigns.json: regenerate with the campaigns snapshot",
    );
    // Replace everything between a previous stage_budget (if any) and the
    // note anchor.
    let head_end = match current.find("  \"stage_budget\":") {
        Some(at) => at,
        None => note_at,
    };
    let budget = format!("{},\n  {}", stage_budget_json(), fusion_cost_json());
    let merged = format!(
        "{}  {budget},\n{}",
        &current[..head_end],
        &current[note_at..]
    );
    std::fs::write(path, &merged).expect("write BENCH_campaigns.json");
    println!("stage budget merged into {path}:\n{budget}");
}

fn main() {
    if std::env::args().any(|a| a == "--snapshot") {
        write_snapshot();
        return;
    }
    benches();
}
