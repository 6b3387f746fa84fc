//! The determinism contract of the parallel measurement engine: every
//! campaign cell is a pure function of (seed, src, dst, nonce), so the
//! thread count must never leak into the output.

use eval::dataset::{Dataset, EvalScale, RttMatrix};
use geo_model::rng::Seed;
use net_sim::Network;
use std::sync::Mutex;
use world_sim::{World, WorldConfig};

/// `IPGEO_THREADS` is process-global; tests that flip it must not
/// interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Every cell of a matrix as raw bits, row-major. Bit comparison (rather
/// than `==`) keeps NaN timeout cells comparable.
fn matrix_bits(m: &RttMatrix) -> Vec<u32> {
    (0..m.rows())
        .flat_map(|r| m.row(r).iter().map(|c| c.to_bits()))
        .collect()
}

fn dataset_bits(scale: EvalScale) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let d = Dataset::load(scale);
    let rep = matrix_bits(d.rep_rtt());
    (matrix_bits(&d.rtt), matrix_bits(&d.anchor_rtt), rep)
}

/// Tentpole acceptance: a Dataset built serially and one built with four
/// workers carry byte-identical RTT matrices (mesh, probe matrix, and the
/// lazy representative campaign).
#[test]
fn dataset_is_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    let scale = || EvalScale::tiny(Seed(977));
    std::env::set_var("IPGEO_THREADS", "1");
    assert_eq!(geo_model::runtime::threads(), 1);
    let serial = dataset_bits(scale());
    std::env::set_var("IPGEO_THREADS", "4");
    assert_eq!(geo_model::runtime::threads(), 4);
    let parallel = dataset_bits(scale());
    std::env::remove_var("IPGEO_THREADS");
    assert_eq!(serial.0, parallel.0, "probe matrix differs");
    assert_eq!(serial.1, parallel.1, "anchor mesh differs");
    assert_eq!(serial.2, parallel.2, "representative matrix differs");
}

/// The published dataset is a campaign too: `publish::build_dataset` fans
/// out over the same engine, so its entries — locations bit-for-bit, full
/// evidence trail, and the serialized CSV — must not depend on the worker
/// count.
#[test]
fn published_dataset_is_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    let build = || {
        let world = World::generate(WorldConfig::small(Seed(351))).unwrap();
        let net = Network::new(Seed(351));
        let vps: Vec<_> = world
            .probes
            .iter()
            .copied()
            .filter(|&p| !world.host(p).is_mis_geolocated())
            .collect();
        let prefixes: Vec<_> = world
            .anchors
            .iter()
            .map(|&a| world.host(a).ip.prefix24())
            .collect();
        ipgeo::publish::build_dataset(&world, &net, &ipgeo::Resilience::none(), &vps, &prefixes, 1)
            .0
    };
    std::env::set_var("IPGEO_THREADS", "1");
    let serial = build();
    std::env::set_var("IPGEO_THREADS", "4");
    let parallel = build();
    std::env::remove_var("IPGEO_THREADS");

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.prefix, p.prefix);
        assert_eq!(
            s.location.lat().to_bits(),
            p.location.lat().to_bits(),
            "latitude differs for {}",
            s.prefix
        );
        assert_eq!(
            s.location.lon().to_bits(),
            p.location.lon().to_bits(),
            "longitude differs for {}",
            s.prefix
        );
        assert_eq!(s.evidence, p.evidence, "evidence differs for {}", s.prefix);
    }
    assert_eq!(
        ipgeo::publish::to_csv(&serial),
        ipgeo::publish::to_csv(&parallel)
    );
}
