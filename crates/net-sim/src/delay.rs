//! Link delay: propagation over a cable-inflated geodesic plus the metro
//! detour, and the symmetric keys that pick each link's inflation.
//!
//! Every delay is a pure function of the parameters, the two link ends
//! and a 64-bit key derived from their identities — no global state.
//! [`RouteCache`](crate::RouteCache) composes these links into path
//! delays, and [`NoiseModel`](crate::NoiseModel) draws the per-packet
//! jitter and last-mile samples on top.

use crate::params::NetParams;
use crate::route::{Endpoint, Waypoint};
use geo_model::point::GeoPoint;
use geo_model::rng::{fnv1a, splitmix64};
use geo_model::units::{Km, Ms};

/// Threshold below which a link is "metro" and gets the local-loop detour.
const METRO_LINK_KM: f64 = 30.0;

/// Deterministic cable-inflation factor for a link, from its key and the
/// link distance. Short-haul paths inflate far more than long-haul ones
/// (local detours dominate short links; submarine cables approach the
/// geodesic) — the reason the street-level paper could afford the 4/9 c
/// conversion: at the distances its landmarks live at, real RTTs carry
/// roughly twice the geodesic propagation time.
fn inflation(params: &NetParams, dist_km: f64, key: u64) -> f64 {
    let h = splitmix64(key ^ fnv1a(b"cable"));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let base =
        params.cable_inflation_min + u * (params.cable_inflation_max - params.cable_inflation_min);
    let u2 = ((splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64) * 0.5 + 0.5;
    base + params.short_haul_inflation * u2 * (-dist_km / 800.0).exp()
}

/// One-way delay of a single link between two physical locations.
pub fn link_delay(params: &NetParams, a: &GeoPoint, b: &GeoPoint, key: u64) -> Ms {
    let dist: Km = a.distance(b);
    let mut ms = dist.value() * inflation(params, dist.value(), key) / params.km_per_ms();
    if dist.value() < METRO_LINK_KM {
        ms += params.metro_detour_ms;
    }
    Ms(ms)
}

/// A stable key for the link between two abstract link endpoints.
pub(crate) fn link_key(a_tag: u64, b_tag: u64) -> u64 {
    // Symmetric: the same cable is used in both directions.
    let (lo, hi) = if a_tag <= b_tag {
        (a_tag, b_tag)
    } else {
        (b_tag, a_tag)
    };
    splitmix64(lo ^ splitmix64(hi))
}

pub(crate) fn endpoint_tag(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Host(id) => splitmix64(id.0 as u64 ^ fnv1a(b"host-tag")),
        Endpoint::Router(asn, city) => {
            splitmix64(((asn.0 as u64) << 32 | city.0 as u64) ^ fnv1a(b"router-tag"))
        }
    }
}

pub(crate) fn waypoint_tag(wp: &Waypoint) -> u64 {
    endpoint_tag(Endpoint::Router(wp.asn, wp.city))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseModel, RouteCache};
    use geo_model::rng::Seed;
    use world_sim::host::LastMile;
    use world_sim::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::small(Seed(91))).unwrap()
    }

    #[test]
    fn link_delay_respects_propagation_floor() {
        let p = NetParams::default();
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 10.0);
        let d = a.distance(&b);
        let floor = d.value() / p.km_per_ms();
        for key in 0..50u64 {
            let delay = link_delay(&p, &a, &b, key).value();
            assert!(delay >= floor, "delay {delay} under floor {floor}");
            assert!(delay <= floor * (p.cable_inflation_max + p.short_haul_inflation) + 0.2);
        }
    }

    #[test]
    fn metro_links_pay_detour() {
        let p = NetParams::default();
        let a = GeoPoint::new(48.0, 2.0);
        let b = a.destination(90.0, Km(5.0));
        let delay = link_delay(&p, &a, &b, 7).value();
        assert!(delay >= p.metro_detour_ms);
    }

    #[test]
    fn link_delay_symmetric_same_key() {
        let p = NetParams::default();
        let a = GeoPoint::new(10.0, 10.0);
        let b = GeoPoint::new(20.0, 20.0);
        assert_eq!(link_delay(&p, &a, &b, 42), link_delay(&p, &b, &a, 42));
    }

    #[test]
    fn one_way_delay_exceeds_geodesic_floor() {
        let w = world();
        let p = NetParams::default();
        let cache = RouteCache::new(&p);
        for i in 0..w.anchors.len().min(10) {
            let (src, dst) = (Endpoint::Host(w.probes[i]), Endpoint::Host(w.anchors[i]));
            let shape = cache.shape(&w, &p, src, dst);
            let delay = cache.one_way_ms(&w, &p, src, dst, &shape);
            let floor = w
                .host(w.probes[i])
                .location
                .distance(&w.host(w.anchors[i]).location)
                .value()
                / p.km_per_ms();
            assert!(delay >= floor, "delay {delay} under geodesic floor {floor}");
        }
    }

    #[test]
    fn cumulative_delays_are_monotone() {
        let w = world();
        let p = NetParams::default();
        let cache = RouteCache::new(&p);
        let (src, dst) = (Endpoint::Host(w.probes[0]), Endpoint::Host(w.anchors[0]));
        let shape = cache.shape(&w, &p, src, dst);
        let mut cum = Vec::new();
        cache.cumulative_ms(&w, &p, src, &shape, &mut cum);
        assert_eq!(cum.len(), shape.waypoints().len());
        for win in cum.windows(2) {
            assert!(win[0] < win[1]);
        }
        let total = cache.one_way_ms(&w, &p, src, dst, &shape);
        assert!(cum.last().unwrap().value() < total);
    }

    #[test]
    fn jitter_is_positive_and_deterministic() {
        let noise = NoiseModel::new(&NetParams::default());
        let s = Seed(5);
        let a = noise.jitter(s, 1);
        let b = noise.jitter(s, 1);
        let c = noise.jitter(s, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.value() > 0.0);
    }

    #[test]
    fn zero_jitter_configurable() {
        let p = NetParams {
            jitter_median_ms: 0.0,
            ..NetParams::default()
        };
        assert_eq!(NoiseModel::new(&p).jitter(Seed(5), 1), Ms::ZERO);
    }

    #[test]
    fn last_mile_profiles_differ() {
        let noise = NoiseModel::new(&NetParams::default());
        let s = Seed(6);
        let mut neg_sum = 0.0;
        let mut acc_sum = 0.0;
        let mut acc_min = f64::INFINITY;
        for k in 0..200 {
            neg_sum += noise.last_mile(LastMile::Negligible, s, k).value();
            let a = noise
                .last_mile(LastMile::Access { mean_ms: 4.0 }, s, k)
                .value();
            acc_sum += a;
            acc_min = acc_min.min(a);
        }
        assert!(neg_sum / 200.0 < 0.5);
        assert!((acc_sum / 200.0 - 4.0).abs() < 1.0);
        // The access delay is a per-line constant: even the minimum over
        // many packets stays near the line's value.
        assert!(
            acc_min > 2.5,
            "min-of-N washed out the last mile: {acc_min}"
        );
    }
}
