//! Bit-equivalence of world and web synthesis against pinned digests.
//!
//! `World::generate` and `WebEcosystem::generate` run on flat tables (a
//! dense CSR city grid holding each center's trig, contiguous per-city
//! entity ranges, a counting-sorted zip table and one distinct-zip
//! counting pass), scan CDN edges with a chord bound and find entity zips
//! on the worker pool. They must reproduce the hash-map implementation
//! they replaced draw for draw, at any `IPGEO_THREADS`. These digests
//! were computed from that implementation and must never change: every
//! host, entity and website field is hashed at full precision (f64 bits),
//! along with both entity indexes and a probe grid of `CityIndex` queries
//! that reaches the poles and the antimeridian.

use geo_model::point::GeoPoint;
use geo_model::rng::Seed;
use geo_model::units::Km;
use web_sim::ecosystem::{EntityKind, Hosting, WebConfig, WebEcosystem};
use world_sim::ids::{CityId, ZipCode};
use world_sim::{World, WorldConfig};

/// FNV-1a over little-endian words (matches `hotpath_equivalence`).
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn point(&mut self, p: &GeoPoint) {
        self.f64(p.lat());
        self.f64(p.lon());
    }
    fn zip(&mut self, z: ZipCode) {
        self.u64(z.city.0 as u64);
        self.u64(z.cell as u64);
    }
}

/// The four digests of one synthesized world.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    hosts: u64,
    web: u64,
    indexes: u64,
    spatial: u64,
}

fn kind_code(k: EntityKind) -> u64 {
    match k {
        EntityKind::Business => 0,
        EntityKind::University => 1,
        EntityKind::GovernmentOffice => 2,
    }
}

fn hosting_code(h: Hosting) -> u64 {
    match h {
        Hosting::Local => 0,
        Hosting::Cloud => 1,
        Hosting::Cdn => 2,
    }
}

/// Probe points on a fixed grid from lat -89.5 to 89.5 and lon -179.5 to
/// 179.5, so the scan reaches both poles and wraps the antimeridian.
fn probe_grid() -> Vec<GeoPoint> {
    let mut out = Vec::new();
    for i in 0..=12 {
        for j in 0..=16 {
            let lat = -89.5 + 179.0 * i as f64 / 12.0;
            let lon = -179.5 + 359.0 * j as f64 / 16.0;
            out.push(GeoPoint::new(lat, lon));
        }
    }
    out
}

fn digests(config: WorldConfig) -> Digests {
    let mut w = World::generate(config).expect("valid preset");
    let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).expect("valid web config");

    let mut hosts = Digest::new();
    hosts.u64(w.hosts.len() as u64);
    for h in &w.hosts {
        hosts.u64(h.id.0 as u64);
        hosts.u64(h.ip.0 as u64);
        hosts.u64(h.asn.0 as u64);
        hosts.u64(h.city.0 as u64);
        hosts.point(&h.location);
    }

    let mut web = Digest::new();
    web.u64(eco.entities.len() as u64);
    for e in &eco.entities {
        web.u64(e.id.0 as u64);
        web.u64(kind_code(e.kind));
        web.point(&e.location);
        web.u64(e.city.0 as u64);
        web.zip(e.zip);
        web.u64(e.website.0 as u64);
    }
    web.u64(eco.websites.len() as u64);
    for s in &eco.websites {
        web.u64(s.id.0 as u64);
        web.u64(hosting_code(s.hosting));
        web.u64(s.server.0 as u64);
        web.u64(s.zip_appearances as u64);
        web.bytes(s.domain().as_bytes());
    }

    let mut indexes = Digest::new();
    for c in &w.cities {
        let ids: Vec<u32> = eco.entities_in_city(c.id).iter().map(|e| e.id.0).collect();
        indexes.u64(ids.len() as u64);
        for id in ids {
            indexes.u64(id as u64);
        }
    }
    let mut zips: Vec<ZipCode> = eco.entities.iter().map(|e| e.zip).collect();
    zips.sort_unstable();
    zips.dedup();
    indexes.u64(zips.len() as u64);
    for &z in &zips {
        indexes.zip(z);
        let ids = eco.entities_in_zip(z);
        indexes.u64(ids.len() as u64);
        for id in ids {
            indexes.u64(id.0 as u64);
        }
    }
    // Cells are built from two 6-bit offsets, so `u16::MAX` never occurs.
    let absent = ZipCode {
        city: CityId(0),
        cell: u16::MAX,
    };
    assert!(zips.binary_search(&absent).is_err());
    assert!(eco.entities_in_zip(absent).is_empty());

    let mut spatial = Digest::new();
    for p in probe_grid() {
        spatial.point(&p);
        match w.city_index.nearest(&p) {
            Some((id, d)) => {
                spatial.u64(id.0 as u64);
                spatial.f64(d.value());
            }
            None => spatial.u64(u64::MAX),
        }
        for radius in [40.0, 300.0] {
            let hits = w.city_index.within(&p, Km(radius));
            spatial.u64(hits.len() as u64);
            for (id, d) in hits {
                spatial.u64(id.0 as u64);
                spatial.f64(d.value());
            }
        }
    }

    Digests {
        hosts: hosts.0,
        web: web.0,
        indexes: indexes.0,
        spatial: spatial.0,
    }
}

#[test]
fn paper_world_seed_42_synthesis_is_pinned() {
    let got = digests(WorldConfig::paper(Seed(42)));
    assert_eq!(
        got,
        Digests {
            hosts: 8_640_151_501_569_458_624,
            web: 1_729_051_611_858_081_074,
            indexes: 8_205_463_973_848_676_493,
            spatial: 5_859_645_368_346_712_383,
        }
    );
}

#[test]
fn small_world_seed_5001_synthesis_is_pinned() {
    let got = digests(WorldConfig::small(Seed(5001)));
    assert_eq!(
        got,
        Digests {
            hosts: 11_571_435_010_312_368_359,
            web: 17_976_048_844_573_684_964,
            indexes: 15_657_260_606_473_462_174,
            spatial: 6_940_797_159_331_458_007,
        }
    );
}
