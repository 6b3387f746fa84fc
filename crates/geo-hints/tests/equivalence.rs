//! Determinism contracts of the fused pipeline:
//!
//! - the fused dataset — entries, CSV, `.igds` snapshot, and both
//!   campaign books — is bit-identical at `IPGEO_THREADS` 1 and 8;
//! - at hint coverage 0 with `Resilience::none()`, the fused pipeline's
//!   output is byte-identical to the no-hints baseline down to the
//!   `.igds` snapshot;
//! - at the CLI's hint defaults, the fused output under the `none` and
//!   `hostile` fault profiles matches digests pinned across commits, so
//!   a change to the probe path or the CBG sampler that moves one bit
//!   fails here, not only when two thread counts disagree.

use atlas_sim::{FaultPlan, FaultProfile};
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

/// FNV-1a over the entry bits, the `FusedReport` and the `.igds` bytes.
fn fused_digest(entries: &[DatasetEntry], report: &FusedReport, igds: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (prefix, lat, lon, evidence) in entry_bits(entries) {
        feed(&prefix.to_le_bytes());
        feed(&lat.to_le_bytes());
        feed(&lon.to_le_bytes());
        feed(&(evidence.len() as u64).to_le_bytes());
        feed(evidence.as_bytes());
    }
    // `Debug` prints every counter and the shortest round-trip form of
    // each f64, so equal text means an equal report.
    feed(format!("{report:?}").as_bytes());
    feed(&(igds.len() as u64).to_le_bytes());
    feed(igds);
    h
}

/// The fused build with the CLI's hint defaults (`--hint-coverage 0.6
/// --hint-truthfulness 0.9`) and fault plan, pinned bit for bit. The
/// constants were recorded before the probe path dropped its insert-once
/// memos and before the CBG sampler took its bearing trig from a table
/// and skipped circles that contain a whole ring.
#[test]
fn fused_build_matches_pinned_digests() {
    let cfg = FusedConfig::new(0.6, 0.9);
    let got: Vec<(FaultProfile, u64)> = [FaultProfile::None, FaultProfile::Hostile]
        .into_iter()
        .map(|profile| {
            let (world, net, vps, prefixes) = setup();
            let plan = FaultPlan::new(Seed(351), profile);
            let res = Resilience::with_plan(&plan);
            let (entries, report) =
                build_dataset_fused(&world, &net, &res, &vps, &prefixes, 7, &cfg);
            let igds = geo_serve::format::encode(&entries, 351, 7);
            (profile, fused_digest(&entries, &report, &igds))
        })
        .collect();
    let want = [
        (FaultProfile::None, 0x7af4_e12d_2a6a_612b),
        (FaultProfile::Hostile, 0x8c2c_ecfb_ee85_ba18),
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
