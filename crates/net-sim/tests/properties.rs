//! Property-based tests for the network simulator's invariants.

use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use net_sim::route::Endpoint;
use net_sim::{NetParams, Network, PingOutcome, RouteCache};
use proptest::prelude::*;
use world_sim::{World, WorldConfig};

fn world() -> &'static (World, Network) {
    use std::sync::OnceLock;
    static W: OnceLock<(World, Network)> = OnceLock::new();
    W.get_or_init(|| {
        let w = World::generate(WorldConfig::small(Seed(3001))).expect("world");
        let net = Network::new(Seed(3001));
        (w, net)
    })
}

proptest! {
    /// The foundation of CBG soundness: no measured RTT is ever faster
    /// than 2/3 c over the true geodesic.
    #[test]
    fn rtt_respects_speed_of_internet(
        probe_sel in 0usize..200,
        anchor_sel in 0usize..25,
        nonce in 0u64..1000,
    ) {
        let (w, net) = world();
        let src = w.probes[probe_sel % w.probes.len()];
        let dst = w.host(w.anchors[anchor_sel % w.anchors.len()]).clone();
        if let PingOutcome::Reply(rtt) = net.ping_min(w, src, dst.ip, 1, nonce) {
            let dist = w.host(src).location.distance(&dst.location);
            prop_assert!(
                !SpeedOfInternet::CBG.violates(dist, rtt),
                "SOI violation: {dist} in {rtt}"
            );
        }
    }

    /// Measurements are a pure function of (seed, src, dst, nonce).
    #[test]
    fn ping_is_deterministic(
        probe_sel in 0usize..200,
        anchor_sel in 0usize..25,
        nonce in 0u64..1000,
    ) {
        let (w, net) = world();
        let src = w.probes[probe_sel % w.probes.len()];
        let dst = w.host(w.anchors[anchor_sel % w.anchors.len()]).ip;
        prop_assert_eq!(
            net.ping_min(w, src, dst, 1, nonce),
            net.ping_min(w, src, dst, 1, nonce)
        );
    }

    /// `ping_min` over n packets never exceeds any individual packet.
    #[test]
    fn ping_min_is_minimum(
        probe_sel in 0usize..100,
        anchor_sel in 0usize..25,
    ) {
        let (w, net) = world();
        let src = w.probes[probe_sel % w.probes.len()];
        let dst = w.host(w.anchors[anchor_sel % w.anchors.len()]).ip;
        let single = net.ping_min(w, src, dst, 1, 9);
        let many = net.ping_min(w, src, dst, 8, 9);
        if let (PingOutcome::Reply(m), PingOutcome::Reply(s)) = (many, single) {
            prop_assert!(m <= s, "min of 8 ({m}) exceeds min of 1 ({s})");
        }
    }

    /// Paths are short (the synthesizer never builds more than 6 hops)
    /// and begin at the source's attachment PoP.
    #[test]
    fn paths_are_short_and_anchored(
        a_sel in 0usize..200,
        b_sel in 0usize..200,
    ) {
        let (w, net) = world();
        let a = w.probes[a_sel % w.probes.len()];
        let b = w.probes[b_sel % w.probes.len()];
        if a == b {
            return Ok(());
        }
        let cache = RouteCache::new(net.params());
        let shape = cache.shape(w, net.params(), Endpoint::Host(a), Endpoint::Host(b));
        let wps = shape.waypoints();
        prop_assert!(wps.len() <= 6, "path too long: {}", wps.len());
        prop_assert!(!wps.is_empty());
        let first = wps[0];
        prop_assert_eq!(first.0, w.host(a).asn);
        prop_assert_eq!(first.1, w.host(a).city);
        let last = wps.last().expect("non-empty");
        prop_assert_eq!(last.1, w.host(b).city);
        for win in wps.windows(2) {
            prop_assert_ne!(win[0], win[1], "consecutive duplicate waypoint");
        }
    }

    /// Traceroute hops follow the forward path, and every answered hop
    /// reports a strictly positive RTT.
    #[test]
    fn traceroute_hops_are_positive(
        probe_sel in 0usize..100,
        anchor_sel in 0usize..25,
        nonce in 0u64..500,
    ) {
        let (w, net) = world();
        let src = w.probes[probe_sel % w.probes.len()];
        let dst = w.host(w.anchors[anchor_sel % w.anchors.len()]).ip;
        let tr = net.traceroute(w, src, dst, nonce);
        for hop in &tr.hops {
            if let Some(rtt) = hop.rtt {
                prop_assert!(rtt.value() > 0.0);
            }
        }
        if let Some(rtt) = tr.dst_rtt {
            prop_assert!(rtt.value() > 0.0);
        }
    }

    /// A fully symmetric configuration produces identical transit picks in
    /// both directions for every AS pair.
    #[test]
    fn zero_asymmetry_is_symmetric(a_sel in 0usize..60, b_sel in 0usize..60) {
        let (w, _) = world();
        let p = NetParams {
            asymmetry_rate: 0.0,
            ..NetParams::default()
        };
        let a = w.ases[a_sel % w.ases.len()].id;
        let b = w.ases[b_sel % w.ases.len()].id;
        prop_assert_eq!(
            net_sim::route::pick_transit(w, &p, a, b),
            net_sim::route::pick_transit(w, &p, b, a)
        );
    }
}
