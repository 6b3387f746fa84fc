//! Bit-equivalence of the optimized hot path against the pre-optimization
//! reference.
//!
//! The hot-path PR (route memoization, SoA RTT matrices, allocation-free
//! constraint solving) promises *bit-identical* output. These digests were
//! computed from the tree immediately before the optimizations landed, on
//! `WorldConfig::small(Seed(351))`, and must never change: entry
//! coordinates are hashed at full f64 precision, the CSV byte-for-byte,
//! and the published `.igds` snapshot byte-for-byte, each at
//! `IPGEO_THREADS=1` and `IPGEO_THREADS=8`.
//!
//! Traceroutes ride along because the street-level pipeline depends on
//! reverse-path synthesis, which the route cache also memoizes.

use geo_model::ip::Prefix24;
use geo_model::rng::Seed;
use ipgeo::publish::{build_dataset, to_csv};
use ipgeo::Resilience;
use net_sim::Network;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// FNV-1a over an arbitrary byte stream (matches `geo_model::rng::fnv1a`).
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn setup() -> (World, Network, Vec<HostId>, Vec<Prefix24>) {
    let w = World::generate(WorldConfig::small(Seed(351))).unwrap();
    let net = Network::new(Seed(351));
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    // Anchor prefixes exercise geofeed/DNS/latency; probe prefixes skew
    // toward the latency + WHOIS rungs of the evidence ladder.
    let mut prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
    prefixes.extend(w.probes.iter().take(60).map(|&p| w.host(p).ip.prefix24()));
    prefixes.sort();
    prefixes.dedup();
    (w, net, vps, prefixes)
}

/// Full-precision digest over the dataset entries: prefix, exact
/// coordinate bits, method, and evidence detail.
fn entries_digest(entries: &[ipgeo::publish::DatasetEntry]) -> u64 {
    let mut d = Digest::new();
    for e in entries {
        d.u64(e.prefix.0 as u64);
        d.f64(e.location.lat());
        d.f64(e.location.lon());
        d.u64(fnv1a_bytes(e.evidence.method().as_bytes()));
        d.u64(fnv1a_bytes(e.evidence.detail().as_bytes()));
    }
    d.0
}

fn run_at(threads: &str) -> (u64, u64, u64) {
    std::env::set_var("IPGEO_THREADS", threads);
    let (w, net, vps, prefixes) = setup();
    let (entries, _) = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 7);
    assert_eq!(entries.len(), prefixes.len());
    let csv = to_csv(&entries);
    let igds = geo_serve::format::encode(&entries, 351, 7);
    (
        entries_digest(&entries),
        fnv1a_bytes(csv.as_bytes()),
        fnv1a_bytes(&igds),
    )
}

fn traceroute_digest() -> u64 {
    std::env::set_var("IPGEO_THREADS", "1");
    let (w, net, _, _) = setup();
    let mut d = Digest::new();
    for i in 0..w.probes.len().min(40) {
        let src = w.probes[i];
        let dst = w.host(w.anchors[i % w.anchors.len()]).ip;
        let tr = net.traceroute(&w, src, dst, 0xBEEF ^ i as u64);
        for hop in &tr.hops {
            d.u64((hop.waypoint.asn.0 as u64) << 32 | hop.waypoint.city.0 as u64);
            match hop.rtt {
                Some(ms) => d.f64(ms.value()),
                None => d.u64(u64::MAX),
            }
        }
        match tr.dst_rtt {
            Some(ms) => d.f64(ms.value()),
            None => d.u64(u64::MAX),
        }
    }
    d.0
}

// Reference digests from the pre-optimization tree (see module docs).
// The entries digest (coordinates/method/detail) is the original value;
// the CSV and `.igds` digests were re-pinned when the published formats
// gained the confidence column (CSV v2 / `.igds` VERSION 2) — entry
// *content* is still bit-identical to the pre-optimization tree.
const REF_SERIAL: (u64, u64, u64) = (
    0x07fc_1624_a49a_dba7,
    0x061e_b0ac_e61d_ce88,
    0x70c1_bb13_8466_f868,
);
const REF_THREADS8: (u64, u64, u64) = REF_SERIAL;
const REF_TRACEROUTE: u64 = 0x2c3d_3d5f_3505_7e1d;

#[test]
fn dataset_bits_match_pre_optimization_reference() {
    // One test body: IPGEO_THREADS is process-global env.
    let serial = run_at("1");
    let threads8 = run_at("8");
    let tr = traceroute_digest();
    println!("serial   = {serial:#x?}");
    println!("threads8 = {threads8:#x?}");
    println!("traceroute = {tr:#x}");
    assert_eq!(
        serial, REF_SERIAL,
        "serial entries/CSV/.igds digests drifted"
    );
    assert_eq!(
        threads8, REF_THREADS8,
        "threaded entries/CSV/.igds digests drifted"
    );
    assert_eq!(serial, threads8, "thread count changed output bits");
    assert_eq!(tr, REF_TRACEROUTE, "traceroute digests drifted");
}
