//! Routing vocabulary: path endpoints, router waypoints, and the transit
//! choice.
//!
//! Rather than running a global routing protocol,
//! [`RouteCache`](crate::RouteCache) synthesizes paths per pair with the
//! decision rules that shape real interdomain paths:
//!
//! 1. intra-AS traffic rides the AS backbone between its PoPs;
//! 2. if the two ASes share a city, they peer there — preferring a handoff
//!    near the *source* (hot-potato);
//! 3. otherwise traffic goes through a transit AS whose identity depends on
//!    the ordered (src-AS, dst-AS) pair ([`pick_transit`]), entering at the
//!    transit PoP nearest the source and leaving at the PoP nearest the
//!    destination.
//!
//! Rule 3's direction dependence is what produces asymmetric forward and
//! reverse paths — the noise source behind the street-level paper's
//! unusable `D1 + D2` delays.

use crate::params::NetParams;
use geo_model::point::GeoPoint;
use geo_model::rng::{fnv1a, splitmix64};

use world_sim::ids::{AsId, CityId, HostId};
use world_sim::World;

/// One endpoint of a path: a host, or a bare router PoP (used when
/// computing reverse paths from a traceroute hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A host in the world.
    Host(HostId),
    /// A router at an AS point of presence.
    Router(AsId, CityId),
}

/// A router on a path, identified by its PoP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Waypoint {
    /// The AS operating the router.
    pub asn: AsId,
    /// The city of the PoP.
    pub city: CityId,
}

impl Waypoint {
    /// The router's physical location: the city center nudged by a
    /// deterministic per-PoP offset (so different ASes' routers in one city
    /// don't coincide exactly).
    pub fn location(&self, world: &World) -> GeoPoint {
        let center = world.city(self.city).center;
        let h = splitmix64((self.asn.0 as u64) << 32 | self.city.0 as u64 ^ fnv1a(b"router-site"));
        let bearing = (h % 360) as f64;
        let dist = 1.0 + ((h >> 16) % 60) as f64 / 10.0; // 1..7 km
        center.destination(bearing, geo_model::units::Km(dist))
    }
}

/// Picks the transit provider for the ordered (src, dst) AS pair.
///
/// Hot-potato reality: the *source* AS hands traffic to one of its own
/// upstream providers, so traceroutes from one vantage point toward two
/// nearby destinations share the provider (and its destination-side PoP —
/// the street-level paper's "last common router"), while the reverse
/// direction rides the *destination's* provider. That is the interdomain
/// asymmetry behind the unusable `D1 + D2` values.
///
/// `asymmetry_rate` interpolates toward a symmetric Internet: with
/// probability `1 - asymmetry_rate` (hashed on the unordered pair) both
/// directions agree on one provider — the ablation knob for the
/// `D1 + D2` noise.
pub fn pick_transit(world: &World, params: &NetParams, src_as: AsId, dst_as: AsId) -> AsId {
    let (lo, hi) = if src_as.0 <= dst_as.0 {
        (src_as.0, dst_as.0)
    } else {
        (dst_as.0, src_as.0)
    };
    let unordered = splitmix64(((lo as u64) << 32 | hi as u64) ^ fnv1a(b"transit-pick"));
    let symmetric = (unordered >> 11) as f64 / (1u64 << 53) as f64 >= params.asymmetry_rate;
    if symmetric {
        // Symmetric regime: both directions agree on the lower AS's
        // provider set and index.
        let set = world.providers(AsId(lo));
        set[(splitmix64(unordered) % 2) as usize]
    } else {
        // Hot potato: the source's provider, selected per destination
        // (coarse traffic engineering across the two upstreams).
        let set = world.providers(src_as);
        let h = splitmix64(((src_as.0 as u64) << 32 | dst_as.0 as u64) ^ fnv1a(b"te-split"));
        set[(h % 2) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteCache;
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::small(Seed(81))).unwrap()
    }

    #[test]
    fn path_starts_and_ends_at_endpoint_pops() {
        let w = world();
        let p = NetParams::default();
        let src = w.anchors[0];
        let dst = w.anchors[1];
        let shape = RouteCache::new(&p).shape(&w, &p, Endpoint::Host(src), Endpoint::Host(dst));
        let wps = shape.waypoints();
        assert!(!wps.is_empty());
        let first = wps.first().unwrap();
        let last = wps.last().unwrap();
        assert_eq!(first.0, w.host(src).asn);
        assert_eq!(first.1, w.host(src).city);
        assert_eq!(last.1, w.host(dst).city);
    }

    #[test]
    fn no_consecutive_duplicate_waypoints() {
        let w = world();
        let p = NetParams::default();
        let cache = RouteCache::new(&p);
        for i in 0..w.anchors.len().min(10) {
            for j in 0..w.probes.len().min(10) {
                let shape = cache.shape(
                    &w,
                    &p,
                    Endpoint::Host(w.probes[j]),
                    Endpoint::Host(w.anchors[i]),
                );
                for win in shape.waypoints().windows(2) {
                    assert_ne!(win[0], win[1]);
                }
                let len = shape.waypoints().len();
                assert!(len <= 4, "path too long: {len}");
            }
        }
    }

    #[test]
    fn same_host_pair_same_path() {
        let w = world();
        let p = NetParams::default();
        let cache = RouteCache::new(&p);
        let a = Endpoint::Host(w.anchors[0]);
        let b = Endpoint::Host(w.probes[0]);
        assert_eq!(cache.shape(&w, &p, a, b), cache.shape(&w, &p, a, b));
    }

    #[test]
    fn reverse_paths_can_differ() {
        let w = world();
        let p = NetParams::default();
        let cache = RouteCache::new(&p);
        let mut asymmetric = 0;
        let mut total = 0;
        for i in 0..w.anchors.len() {
            for j in 0..w.probes.len().min(20) {
                let a = Endpoint::Host(w.anchors[i]);
                let b = Endpoint::Host(w.probes[j]);
                let fwd = cache.shape(&w, &p, a, b);
                let mut rev = cache.shape(&w, &p, b, a).waypoints().to_vec();
                rev.reverse();
                total += 1;
                if fwd.waypoints() != rev {
                    asymmetric += 1;
                }
            }
        }
        assert!(
            asymmetric * 10 > total,
            "too little asymmetry: {asymmetric}/{total}"
        );
    }

    #[test]
    fn router_locations_near_city() {
        let w = world();
        let wp = Waypoint {
            asn: w.ases[0].id,
            city: w.ases[0].pops[0],
        };
        let d = wp.location(&w).distance(&w.city(wp.city).center).value();
        assert!(d <= 8.0, "router {d} km from city center");
    }

    #[test]
    fn transit_pick_is_deterministic() {
        let w = world();
        let p = NetParams::default();
        let a = w.ases[0].id;
        let b = w.ases[1].id;
        assert_eq!(pick_transit(&w, &p, a, b), pick_transit(&w, &p, a, b));
    }

    #[test]
    fn zero_asymmetry_gives_symmetric_transit() {
        let w = world();
        let p = NetParams {
            asymmetry_rate: 0.0,
            ..NetParams::default()
        };
        for i in 0..w.ases.len().min(20) {
            for j in 0..w.ases.len().min(20) {
                let a = w.ases[i].id;
                let b = w.ases[j].id;
                assert_eq!(pick_transit(&w, &p, a, b), pick_transit(&w, &p, b, a));
            }
        }
    }

    #[test]
    fn nearest_pop_is_nearest() {
        let w = world();
        let asn = w
            .ases
            .iter()
            .find(|a| a.pops.len() >= 3)
            .expect("some AS with several PoPs");
        let city = w.cities[0].id;
        let got = w.nearest_pop(asn.id, city);
        let target = w.city(city).center;
        for &p in &asn.pops {
            assert!(w.city(got).center.distance(&target) <= w.city(p).center.distance(&target));
        }
    }
}
