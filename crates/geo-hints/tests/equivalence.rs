//! Determinism contracts of the fused pipeline:
//!
//! - the fused dataset — entries, CSV, `.igds` snapshot, and both
//!   campaign books — is bit-identical at `IPGEO_THREADS` 1 and 8;
//! - at hint coverage 0 with `Resilience::none()`, the fused pipeline's
//!   output is byte-identical to the no-hints baseline down to the
//!   `.igds` snapshot.

use geo_hints::{build_dataset_fused, FusedConfig, FusedReport};
use geo_model::ip::Prefix24;
use geo_model::rng::Seed;
use ipgeo::publish::{build_dataset, to_csv, DatasetEntry};
use ipgeo::Resilience;
use net_sim::Network;
use std::sync::Mutex;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// `IPGEO_THREADS` is process-global; tests that flip it must not
/// interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (World, Network, Vec<HostId>, Vec<Prefix24>) {
    let world = World::generate(WorldConfig::small(Seed(351))).unwrap();
    let net = Network::new(Seed(351));
    let vps: Vec<HostId> = world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect();
    let mut prefixes: Vec<Prefix24> = world
        .anchors
        .iter()
        .map(|&a| world.host(a).ip.prefix24())
        .collect();
    prefixes.extend(
        world
            .probes
            .iter()
            .take(40)
            .map(|&p| world.host(p).ip.prefix24()),
    );
    prefixes.sort();
    prefixes.dedup();
    (world, net, vps, prefixes)
}

fn build_fused(cfg: &FusedConfig) -> (Vec<DatasetEntry>, FusedReport, String, Vec<u8>) {
    let (world, net, vps, prefixes) = setup();
    let res = Resilience::none();
    let (entries, report) = build_dataset_fused(&world, &net, &res, &vps, &prefixes, 7, cfg);
    let csv = to_csv(&entries);
    let igds = geo_serve::format::encode(&entries, 351, 7);
    (entries, report, csv, igds)
}

fn entry_bits(entries: &[DatasetEntry]) -> Vec<(u32, u64, u64, String)> {
    entries
        .iter()
        .map(|e| {
            (
                e.prefix.0,
                e.location.lat().to_bits(),
                e.location.lon().to_bits(),
                format!("{:?}", e.evidence),
            )
        })
        .collect()
}

#[test]
fn fused_build_is_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FusedConfig::new(0.7, 0.8);
    std::env::set_var("IPGEO_THREADS", "1");
    let (e1, r1, csv1, igds1) = build_fused(&cfg);
    std::env::set_var("IPGEO_THREADS", "8");
    let (e8, r8, csv8, igds8) = build_fused(&cfg);
    std::env::remove_var("IPGEO_THREADS");
    assert_eq!(entry_bits(&e1), entry_bits(&e8));
    assert_eq!(csv1, csv8);
    assert_eq!(igds1, igds8);
    assert_eq!(r1, r8);
    assert_eq!(r1.to_string(), r8.to_string());
}

#[test]
fn coverage_zero_matches_the_baseline_byte_for_byte() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("IPGEO_THREADS");
    let (world, net, vps, prefixes) = setup();
    let res = Resilience::none();
    let (base_entries, base_report) = build_dataset(&world, &net, &res, &vps, &prefixes, 7);
    let cfg = FusedConfig::new(0.0, 0.5);
    let (entries, report) = build_dataset_fused(&world, &net, &res, &vps, &prefixes, 7, &cfg);
    assert_eq!(entry_bits(&entries), entry_bits(&base_entries));
    assert_eq!(to_csv(&entries), to_csv(&base_entries));
    assert_eq!(
        geo_serve::format::encode(&entries, 351, 7),
        geo_serve::format::encode(&base_entries, 351, 7)
    );
    assert_eq!(report.base, base_report);
    assert_eq!(report.hints.attempts, 0);
    assert_eq!(report.hints.credits.net(), 0);
}
