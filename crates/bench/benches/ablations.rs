//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - speed-of-Internet factor (2/3 c vs 4/9 c) in CBG;
//! - greedy earth-covering vs arbitrary first-step subsets in the
//!   two-step selection;
//! - routing asymmetry on vs off (the `D1 + D2` noise source);
//! - the redundant-circle filter in the region intersection.

use criterion::{criterion_group, criterion_main, Criterion};
use geo_model::constraint::{Circle, Region};
use geo_model::point::GeoPoint;
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Km;
use ipgeo::cbg::{cbg, VpMeasurement};
use ipgeo::{Resilience, TargetLog};
use net_sim::{NetParams, Network};
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

fn measurements(n: usize, inflation: f64) -> Vec<VpMeasurement> {
    let target = GeoPoint::new(45.0, 10.0);
    (0..n)
        .map(|i| {
            let bearing = (i as f64 * 137.5) % 360.0;
            let dist = 30.0 + (i as f64 * 71.0) % 3000.0;
            VpMeasurement {
                vp: HostId(i as u32),
                location: target.destination(bearing, Km(dist)),
                rtt: SpeedOfInternet::CBG.min_rtt(Km(dist)) * inflation,
            }
        })
        .collect()
}

fn ablate_soi_factor(c: &mut Criterion) {
    let ms = measurements(500, 1.5);
    let mut g = c.benchmark_group("ablation_soi_factor");
    g.bench_function("cbg_two_thirds_c", |b| {
        b.iter(|| cbg(criterion::black_box(&ms), SpeedOfInternet::CBG));
    });
    g.bench_function("cbg_four_ninths_c", |b| {
        b.iter(|| cbg(criterion::black_box(&ms), SpeedOfInternet::STREET_LEVEL));
    });
    g.finish();
}

fn ablate_coverage_strategy(c: &mut Criterion) {
    let w = World::generate(WorldConfig::small(Seed(421))).expect("small world");
    let vps: Vec<HostId> = w.probes.clone();
    let mut g = c.benchmark_group("ablation_first_step_subset");
    g.bench_function("greedy_coverage_50", |b| {
        b.iter(|| ipgeo::two_step::greedy_coverage(&w, &vps, 50));
    });
    g.bench_function("arbitrary_prefix_50", |b| {
        b.iter(|| vps.iter().copied().take(50).collect::<Vec<_>>());
    });
    g.finish();
}

fn ablate_asymmetry(c: &mut Criterion) {
    let w = World::generate(WorldConfig::small(Seed(422))).expect("small world");
    let symmetric = {
        let p = NetParams {
            asymmetry_rate: 0.0,
            ..NetParams::default()
        };
        Network::with_params(Seed(422), p)
    };
    let asymmetric = Network::new(Seed(422));
    let src = w.probes[0];
    let dst = w.host(w.anchors[0]).ip;
    let mut g = c.benchmark_group("ablation_routing_asymmetry");
    g.bench_function("traceroute_symmetric", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            symmetric.traceroute(&w, src, dst, nonce)
        });
    });
    g.bench_function("traceroute_asymmetric", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce += 1;
            asymmetric.traceroute(&w, src, dst, nonce)
        });
    });
    g.finish();
}

fn ablate_redundancy_filter(c: &mut Criterion) {
    // Intersect with and without the redundant-circle pre-filter: the
    // filter is what makes 10k-VP CBG tractable.
    let ms = measurements(2000, 1.5);
    let circles: Vec<Circle> = ms
        .iter()
        .map(|m| Circle::new(m.location, SpeedOfInternet::CBG.max_distance(m.rtt)))
        .collect();
    let full = Region::from_circles(circles.clone());
    let reduced = Region::from_circles(full.active_circles());
    let mut g = c.benchmark_group("ablation_redundancy_filter");
    g.sample_size(20);
    g.bench_function("intersect_with_filter", |b| {
        b.iter(|| criterion::black_box(&full).intersect());
    });
    g.bench_function("intersect_prefiltered_input", |b| {
        b.iter(|| criterion::black_box(&reduced).intersect());
    });
    g.finish();
}

fn ablate_rounds(c: &mut Criterion) {
    // §7.2.3: more selection rounds trade measurements for API latency.
    let w = World::generate(WorldConfig::small(Seed(423))).expect("small world");
    let net = Network::new(Seed(423));
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    let coverage = ipgeo::two_step::greedy_coverage(&w, &vps, 20);
    let target = w.host(w.anchors[0]).ip;
    let mut g = c.benchmark_group("ablation_selection_rounds");
    g.sample_size(20);
    for rounds in [2u32, 3, 4] {
        g.bench_function(format!("rounds_{rounds}"), |b| {
            let mut nonce = 0u64;
            b.iter(|| {
                nonce += 1;
                let mut log = TargetLog::default();
                ipgeo::multi_round::geolocate(
                    &w,
                    &net,
                    &Resilience::none(),
                    &coverage,
                    &vps,
                    target,
                    rounds,
                    nonce,
                    &mut log,
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_soi_factor,
    ablate_coverage_strategy,
    ablate_asymmetry,
    ablate_redundancy_filter,
    ablate_rounds
);
criterion_main!(benches);
