//! Measurement results: ping outcomes and traceroutes.
//!
//! [`Network`](crate::Network) produces them. A ping's RTT composes the
//! forward and reverse one-way path delays with both endpoints' last-mile
//! contributions and a per-packet jitter. A traceroute reports, for each
//! hop on the *forward* path, the cumulative forward delay plus the delay
//! of the *reverse path from that hop* — the destination-based-routing
//! semantics that Appendix B of the replication identifies as the reason
//! `D1 + D2` cannot be computed reliably.

use crate::route::Waypoint;
use geo_model::ip::Ipv4;
use geo_model::rng::{fnv1a, splitmix64};
use geo_model::units::Ms;
use world_sim::ids::HostId;

/// Outcome of one ping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PingOutcome {
    /// The target answered with this round-trip time.
    Reply(Ms),
    /// No answer (packet loss or unresponsive address).
    Timeout,
}

impl PingOutcome {
    /// The RTT, if the target answered.
    pub fn rtt(&self) -> Option<Ms> {
        match self {
            PingOutcome::Reply(ms) => Some(*ms),
            PingOutcome::Timeout => None,
        }
    }
}

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The router at this hop.
    pub waypoint: Waypoint,
    /// Round-trip time to this hop, `None` if the router did not answer.
    pub rtt: Option<Ms>,
}

/// A complete traceroute.
#[derive(Debug, Clone, PartialEq)]
pub struct Traceroute {
    /// The source host.
    pub src: HostId,
    /// The probed address.
    pub dst: Ipv4,
    /// Hops along the forward path.
    pub hops: Vec<Hop>,
    /// RTT of the final destination answer, if it answered.
    pub dst_rtt: Option<Ms>,
}

impl Traceroute {
    /// True if the destination answered.
    pub fn reached(&self) -> bool {
        self.dst_rtt.is_some()
    }

    /// The last hop shared with another traceroute from the same source
    /// (compared by router identity), with its index in `self.hops`.
    /// This is the street-level paper's "last common router R1".
    pub fn last_common_hop(&self, other: &Traceroute) -> Option<(usize, Waypoint)> {
        let mut last = None;
        for (i, hop) in self.hops.iter().enumerate() {
            if other.hops.iter().any(|h| h.waypoint == hop.waypoint) {
                last = Some((i, hop.waypoint));
            }
        }
        last
    }
}

/// A stable measurement key mixing endpoints and nonce.
pub(crate) fn measurement_key(src: HostId, dst: Ipv4, nonce: u64) -> u64 {
    splitmix64((src.0 as u64) << 32 ^ dst.0 as u64 ^ splitmix64(nonce ^ fnv1a(b"measurement")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Endpoint;
    use crate::{Network, RouteCache};
    use geo_model::rng::Seed;
    use geo_model::soi::SpeedOfInternet;
    use world_sim::{World, WorldConfig};

    fn setup() -> (World, Network) {
        let w = World::generate(WorldConfig::small(Seed(101))).unwrap();
        (w, Network::new(Seed(101)))
    }

    #[test]
    fn ping_to_unknown_address_times_out() {
        let (w, net) = setup();
        let src = w.probes[0];
        assert_eq!(
            net.ping_min(&w, src, Ipv4::from_octets(240, 0, 0, 1), 1, 1),
            PingOutcome::Timeout
        );
    }

    #[test]
    fn rtt_never_violates_speed_of_internet() {
        // The foundation of CBG soundness at 2/3 c.
        let (w, net) = setup();
        let soi = SpeedOfInternet::CBG;
        for i in 0..w.probes.len().min(40) {
            for j in 0..w.anchors.len().min(10) {
                let src = w.probes[i];
                let dst_host = w.host(w.anchors[j]);
                if let PingOutcome::Reply(rtt) = net.ping_min(&w, src, dst_host.ip, 1, 3) {
                    let dist = w.host(src).location.distance(&dst_host.location);
                    assert!(!soi.violates(dist, rtt), "SOI violation: {dist} in {rtt}");
                }
            }
        }
    }

    /// Packet `i` of a `ping_min` with nonce `n` is the one-packet
    /// `ping_min` with nonce `n ^ i`.
    #[test]
    fn ping_min_improves_on_singles() {
        let (w, net) = setup();
        let src = w.probes[1];
        let dst = w.host(w.anchors[1]).ip;
        if let PingOutcome::Reply(min) = net.ping_min(&w, src, dst, 5, 7) {
            for i in 0..5u64 {
                if let PingOutcome::Reply(one) = net.ping_min(&w, src, dst, 1, 7 ^ i) {
                    assert!(min <= one);
                }
            }
        } else {
            panic!("all five packets lost is wildly improbable");
        }
    }

    #[test]
    fn close_pairs_have_small_rtt() {
        let (w, net) = setup();
        // Find a probe/anchor pair in the same city.
        let pair = w.probes.iter().find_map(|&pid| {
            let ph = w.host(pid);
            w.anchors.iter().find_map(|&aid| {
                let ah = w.host(aid);
                (ah.city == ph.city).then_some((pid, ah.ip))
            })
        });
        if let Some((src, dst)) = pair {
            if let PingOutcome::Reply(rtt) = net.ping_min(&w, src, dst, 3, 1) {
                assert!(
                    rtt.value() < 25.0,
                    "same-city RTT suspiciously large: {rtt}"
                );
            }
        }
    }

    #[test]
    fn traceroute_hops_match_forward_path() {
        let (w, net) = setup();
        let src = w.probes[2];
        let dst_host = w.host(w.anchors[2]);
        let tr = net.traceroute(&w, src, dst_host.ip, 1);
        assert!(!tr.hops.is_empty());
        let fwd = RouteCache::new(net.params()).shape(
            &w,
            net.params(),
            Endpoint::Host(src),
            Endpoint::Host(dst_host.id),
        );
        assert_eq!(tr.hops.len(), fwd.waypoints().len());
        for (hop, &(asn, city)) in tr.hops.iter().zip(fwd.waypoints()) {
            assert_eq!(hop.waypoint, Waypoint { asn, city });
        }
        assert!(tr.reached());
    }

    #[test]
    fn traceroute_to_unrouted_prefix_is_empty() {
        let (w, net) = setup();
        let tr = net.traceroute(&w, w.probes[0], Ipv4::from_octets(250, 1, 2, 3), 1);
        assert!(tr.hops.is_empty());
        assert!(!tr.reached());
    }

    #[test]
    fn traceroute_to_unresponsive_address_still_has_hops() {
        let (w, net) = setup();
        // An address inside an allocated prefix with no host behind it.
        let anchor = w.host(w.anchors[0]);
        let ghost = anchor.ip.prefix24().host(251);
        assert!(w.host_by_ip(ghost).is_none());
        let tr = net.traceroute(&w, w.probes[0], ghost, 1);
        assert!(!tr.hops.is_empty());
        assert!(!tr.reached());
    }

    #[test]
    fn some_hops_are_unresponsive() {
        let (w, net) = setup();
        let mut answered = 0;
        let mut silent = 0;
        for i in 0..w.probes.len().min(60) {
            let tr = net.traceroute(&w, w.probes[i], w.host(w.anchors[0]).ip, 1);
            for h in &tr.hops {
                if h.rtt.is_some() {
                    answered += 1;
                } else {
                    silent += 1;
                }
            }
        }
        assert!(answered > 0);
        assert!(silent > 0, "expected some unresponsive hops");
    }

    #[test]
    fn last_common_hop_detection() {
        let (w, net) = setup();
        let src = w.probes[3];
        // Two anchors in the same city share most of the path from a
        // distant probe.
        let t1 = net.traceroute(&w, src, w.host(w.anchors[0]).ip, 1);
        let t2 = net.traceroute(&w, src, w.host(w.anchors[1]).ip, 1);
        if let Some((i, wp)) = t1.last_common_hop(&t2) {
            assert!(i < t1.hops.len());
            assert!(t2.hops.iter().any(|h| h.waypoint == wp));
        }
        // First hop (the source PoP) is always shared with itself.
        assert!(t1.last_common_hop(&t1).is_some());
    }
}
