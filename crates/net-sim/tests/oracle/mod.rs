//! The reference model of the simulator, kept as the test oracle of its
//! memoized hot path ([`net_sim::hotpath`]).
//!
//! Every measurement here is computed the direct way: synthesize each
//! router-level path as a `Vec` of waypoints, then walk it link by link
//! (`Waypoint::location`, haversine, key hashing per link) and draw the
//! per-packet noise from freshly built distributions. `Network`,
//! `RouteCache` and `NoiseModel` replay these floating-point operations in
//! the same order, so `tests/hotpath_equivalence.rs` compares the two
//! paths bit for bit.
//!
//! Only `tests/hotpath_equivalence.rs` declares this module. The oracle
//! shares `link_delay`, `pick_transit`, `Waypoint::location` and
//! `NetParams` with production, and re-derives the measurement and link
//! keys below instead of importing them: a changed production key then
//! fails the equivalence tests rather than changing both sides at once.

use geo_model::distr::{LogNormal, Sample};
use geo_model::ip::Ipv4;
use geo_model::point::GeoPoint;
use geo_model::rng::{fnv1a, splitmix64, KeyRng, Seed};
use geo_model::units::Ms;
use net_sim::delay::link_delay;
use net_sim::route::{pick_transit, Endpoint, Waypoint};
use net_sim::{Hop, NetParams, PingOutcome, Traceroute};
use world_sim::host::LastMile;
use world_sim::ids::{AsId, CityId, HostId};
use world_sim::World;

/// A stable measurement key mixing endpoints and nonce.
fn measurement_key(src: HostId, dst: Ipv4, nonce: u64) -> u64 {
    splitmix64((src.0 as u64) << 32 ^ dst.0 as u64 ^ splitmix64(nonce ^ fnv1a(b"measurement")))
}

/// A stable key for the link between two link endpoints; symmetric, since
/// the same cable carries both directions.
fn link_key(a_tag: u64, b_tag: u64) -> u64 {
    let (lo, hi) = if a_tag <= b_tag {
        (a_tag, b_tag)
    } else {
        (b_tag, a_tag)
    };
    splitmix64(lo ^ splitmix64(hi))
}

fn endpoint_tag(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Host(id) => splitmix64(id.0 as u64 ^ fnv1a(b"host-tag")),
        Endpoint::Router(asn, city) => {
            splitmix64(((asn.0 as u64) << 32 | city.0 as u64) ^ fnv1a(b"router-tag"))
        }
    }
}

fn waypoint_tag(wp: &Waypoint) -> u64 {
    endpoint_tag(Endpoint::Router(wp.asn, wp.city))
}

/// A synthesized one-way path: source endpoint, the router waypoints in
/// order, and the destination endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    pub src: Endpoint,
    pub waypoints: Vec<Waypoint>,
    pub dst: Endpoint,
}

/// An endpoint's attachment PoP.
fn attachment(world: &World, ep: Endpoint) -> (AsId, CityId) {
    match ep {
        Endpoint::Host(id) => {
            let h = world.host(id);
            (h.asn, h.city)
        }
        Endpoint::Router(asn, city) => (asn, city),
    }
}

/// The forward path from `src` to `dst`. Intra-AS traffic rides the
/// backbone; two ASes sharing the source city peer there (hot potato);
/// else the source AS reaches into the destination city, or the two
/// peer at the shared PoP with the least detour; otherwise traffic
/// crosses the direction-dependent transit AS, entering at its PoP
/// nearest the source and leaving at its PoP nearest the destination.
pub fn synthesize(world: &World, params: &NetParams, src: Endpoint, dst: Endpoint) -> Path {
    let (src_as, src_city) = attachment(world, src);
    let (dst_as, dst_city) = attachment(world, dst);
    let wp = |asn, city| Waypoint { asn, city };

    let mut waypoints = vec![wp(src_as, src_city)];
    if src_as == dst_as {
        waypoints.push(wp(src_as, dst_city));
    } else if world.has_pop(dst_as, src_city) {
        waypoints.extend([wp(dst_as, src_city), wp(dst_as, dst_city)]);
    } else if world.has_pop(src_as, dst_city) {
        waypoints.extend([wp(src_as, dst_city), wp(dst_as, dst_city)]);
    } else if let Some(meet) = best_shared_pop(world, src_as, dst_as, src_city, dst_city) {
        waypoints.extend([wp(src_as, meet), wp(dst_as, meet), wp(dst_as, dst_city)]);
    } else {
        let transit = pick_transit(world, params, src_as, dst_as);
        let t_in = world.nearest_pop(transit, src_city);
        let t_out = world.nearest_pop(transit, dst_city);
        waypoints.push(wp(transit, t_in));
        if t_out != t_in {
            waypoints.push(wp(transit, t_out));
        }
        waypoints.push(wp(dst_as, dst_city));
    }
    waypoints.dedup();
    Path {
        src,
        waypoints,
        dst,
    }
}

/// The shared PoP city minimizing the detour `src_city -> X -> dst_city`,
/// if the two ASes share any; the first minimum of the smaller
/// footprint's scan wins.
fn best_shared_pop(
    world: &World,
    a: AsId,
    b: AsId,
    src_city: CityId,
    dst_city: CityId,
) -> Option<CityId> {
    let (scan, other) = if world.asn(a).pops.len() <= world.asn(b).pops.len() {
        (a, b)
    } else {
        (b, a)
    };
    let src_p = world.city(src_city).center;
    let dst_p = world.city(dst_city).center;
    let mut best: Option<(CityId, f64)> = None;
    for &c in &world.asn(scan).pops {
        if !world.has_pop(other, c) {
            continue;
        }
        let p = world.city(c).center;
        let detour = src_p.distance(&p).value() + p.distance(&dst_p).value();
        if best.is_none_or(|(_, d)| detour < d) {
            best = Some((c, detour));
        }
    }
    best.map(|(c, _)| c)
}

fn endpoint_location(world: &World, ep: Endpoint) -> GeoPoint {
    match ep {
        Endpoint::Host(id) => world.host(id).location,
        Endpoint::Router(asn, city) => Waypoint { asn, city }.location(world),
    }
}

/// Deterministic one-way delay along a path: link propagation plus
/// per-router processing. No jitter, no last mile.
pub fn one_way_delay(world: &World, params: &NetParams, path: &Path) -> Ms {
    let mut total = Ms::ZERO;
    let mut prev_loc = endpoint_location(world, path.src);
    let mut prev_tag = endpoint_tag(path.src);
    for wp in &path.waypoints {
        let loc = wp.location(world);
        let tag = waypoint_tag(wp);
        total += link_delay(params, &prev_loc, &loc, link_key(prev_tag, tag));
        total += Ms(params.hop_processing_ms);
        prev_loc = loc;
        prev_tag = tag;
    }
    let dst_loc = endpoint_location(world, path.dst);
    total += link_delay(
        params,
        &prev_loc,
        &dst_loc,
        link_key(prev_tag, endpoint_tag(path.dst)),
    );
    total
}

/// Cumulative one-way delays from the path source to each waypoint.
pub fn cumulative_delays(world: &World, params: &NetParams, path: &Path) -> Vec<Ms> {
    let mut out = Vec::with_capacity(path.waypoints.len());
    let mut total = Ms::ZERO;
    let mut prev_loc = endpoint_location(world, path.src);
    let mut prev_tag = endpoint_tag(path.src);
    for wp in &path.waypoints {
        let loc = wp.location(world);
        let tag = waypoint_tag(wp);
        total += link_delay(params, &prev_loc, &loc, link_key(prev_tag, tag));
        total += Ms(params.hop_processing_ms);
        out.push(total);
        prev_loc = loc;
        prev_tag = tag;
    }
    out
}

/// Per-packet jitter: lognormal with the configured median.
fn jitter(params: &NetParams, seed: Seed, key: u64) -> Ms {
    if params.jitter_median_ms <= 0.0 {
        return Ms::ZERO;
    }
    let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ fnv1a(b"jitter")));
    let d = LogNormal::with_median(params.jitter_median_ms, params.jitter_sigma);
    Ms(d.sample(&mut rng))
}

/// Per-packet last-mile sample: tens of microseconds for a
/// well-connected server, a per-line constant with a small
/// multiplicative variation for an access line.
fn last_mile(profile: LastMile, seed: Seed, key: u64) -> Ms {
    let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ fnv1a(b"last-mile")));
    match profile {
        LastMile::Negligible => Ms(LogNormal::with_median(0.08, 0.6).sample(&mut rng)),
        LastMile::Access { mean_ms } => Ms(mean_ms * LogNormal::new(0.0, 0.12).sample(&mut rng)),
    }
}

/// Per-reply ICMP slow-path delay of a traceroute hop.
fn icmp_slowpath(params: &NetParams, seed: Seed, key: u64) -> Ms {
    if params.icmp_slowpath_median_ms <= 0.0 {
        return Ms::ZERO;
    }
    let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ fnv1a(b"icmp-slowpath")));
    let d = LogNormal::with_median(params.icmp_slowpath_median_ms, params.icmp_slowpath_sigma);
    Ms(d.sample(&mut rng))
}

/// Uniform unit sample from a key (loss and responsiveness decisions).
fn unit_sample(seed: Seed, key: u64, domain: &str) -> f64 {
    let h = splitmix64(seed.0 ^ splitmix64(key ^ fnv1a(domain.as_bytes())));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic round-trip time between two hosts: forward plus reverse
/// one-way delay, no jitter, loss or last mile.
pub fn base_rtt(world: &World, params: &NetParams, src: HostId, dst: HostId) -> Ms {
    let fwd = synthesize(world, params, Endpoint::Host(src), Endpoint::Host(dst));
    let rev = synthesize(world, params, Endpoint::Host(dst), Endpoint::Host(src));
    one_way_delay(world, params, &fwd) + one_way_delay(world, params, &rev)
}

/// One packet's outcome on top of a known base RTT: the loss decision,
/// both last-mile samples, and jitter.
fn packet_outcome(
    world: &World,
    params: &NetParams,
    seed: Seed,
    src: HostId,
    dst_host: HostId,
    base: Ms,
    key: u64,
) -> PingOutcome {
    if unit_sample(seed, key, "loss") < params.loss_rate {
        return PingOutcome::Timeout;
    }
    let src_lm = last_mile(world.host(src).last_mile, seed, key ^ 0x51);
    let dst_lm = last_mile(world.host(dst_host).last_mile, seed, key ^ 0xD5);
    let j = jitter(params, seed, key);
    PingOutcome::Reply(base + src_lm + dst_lm + j)
}

/// Minimum RTT over `count` packets (RIPE Atlas ping semantics).
pub fn ping_min(
    world: &World,
    params: &NetParams,
    seed: Seed,
    src: HostId,
    dst: Ipv4,
    count: usize,
    nonce: u64,
) -> PingOutcome {
    let Some(dst_host) = world.host_by_ip(dst) else {
        return PingOutcome::Timeout;
    };
    let base = base_rtt(world, params, src, dst_host.id);
    ping_min_with_base(
        world,
        params,
        seed,
        src,
        dst,
        dst_host.id,
        base,
        count,
        nonce,
    )
}

/// [`ping_min`] on a known base RTT: only the noise varies per packet.
#[allow(clippy::too_many_arguments)]
pub fn ping_min_with_base(
    world: &World,
    params: &NetParams,
    seed: Seed,
    src: HostId,
    dst: Ipv4,
    dst_host: HostId,
    base: Ms,
    count: usize,
    nonce: u64,
) -> PingOutcome {
    let mut best: Option<Ms> = None;
    for i in 0..count {
        let key = measurement_key(src, dst, splitmix64(nonce ^ i as u64));
        if let PingOutcome::Reply(ms) =
            packet_outcome(world, params, seed, src, dst_host, base, key)
        {
            best = Some(best.map_or(ms, |b| b.min(ms)));
        }
    }
    best.map_or(PingOutcome::Timeout, PingOutcome::Reply)
}

/// A traceroute from `src` to `dst`: per forward hop, the cumulative
/// forward delay plus the delay of the reverse path *from that hop*.
pub fn traceroute(
    world: &World,
    params: &NetParams,
    seed: Seed,
    src: HostId,
    dst: Ipv4,
    nonce: u64,
) -> Traceroute {
    let dst_host = world.host_by_ip(dst);
    let key = measurement_key(src, dst, splitmix64(nonce ^ fnv1a(b"traceroute")));

    // To the host if it exists, else toward the prefix's PoP (the route
    // exists even when the address does not answer); an unrouted address
    // has no hops at all.
    let fwd_dst = match (dst_host, world.plan.owner(dst.prefix24())) {
        (Some(h), _) => Endpoint::Host(h.id),
        (None, Some((asn, city))) => Endpoint::Router(asn, city),
        (None, None) => {
            return Traceroute {
                src,
                dst,
                hops: Vec::new(),
                dst_rtt: None,
            }
        }
    };
    let fwd = synthesize(world, params, Endpoint::Host(src), fwd_dst);
    let cumulative = cumulative_delays(world, params, &fwd);

    let mut hops = Vec::with_capacity(fwd.waypoints.len());
    for (i, wp) in fwd.waypoints.iter().enumerate() {
        let hop_key = splitmix64(key ^ (i as u64 + 1));
        let responds = unit_sample(seed, hop_key, "hop-responds") >= params.hop_unresponsive_rate;
        let rtt = responds.then(|| {
            let rev_src = Endpoint::Router(wp.asn, wp.city);
            let rev = synthesize(world, params, rev_src, Endpoint::Host(src));
            let rev_delay = one_way_delay(world, params, &rev);
            let j = jitter(params, seed, hop_key);
            let lm = last_mile(world.host(src).last_mile, seed, key ^ 0x17);
            let slowpath = icmp_slowpath(params, seed, hop_key);
            cumulative[i] + rev_delay + j + lm + slowpath
        });
        hops.push(Hop { waypoint: *wp, rtt });
    }

    // The destination's answer: one ping packet.
    let dst_rtt = dst_host.and_then(|h| {
        let base = base_rtt(world, params, src, h.id);
        let key = measurement_key(src, dst, splitmix64(nonce ^ 0xF1));
        packet_outcome(world, params, seed, src, h.id, base, key).rtt()
    });
    Traceroute {
        src,
        dst,
        hops,
        dst_rtt,
    }
}

#[test]
fn unit_sample_uniformish() {
    let s = Seed(7);
    let mean: f64 = (0..1000).map(|k| unit_sample(s, k, "loss")).sum::<f64>() / 1000.0;
    assert!((mean - 0.5).abs() < 0.05);
}
