//! Pair-by-pair bit-equivalence of the memoized hot path
//! ([`net_sim::hotpath`]) against the reference model in `oracle/mod.rs`
//! (`oracle::synthesize` + `oracle::one_way_delay` + per-packet noise).
//!
//! The end-to-end digests live in `crates/core/tests/hotpath_equivalence.rs`;
//! this test localizes any drift to the exact primitive that diverged.

mod oracle;

use geo_model::matrix::DelayMatrix;
use geo_model::rng::{splitmix64, Seed};
use net_sim::route::Endpoint;
use net_sim::{Network, NoiseModel, PingOutcome, RouteCache, RowScratch};
use proptest::prelude::*;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

fn world() -> World {
    World::generate(WorldConfig::small(Seed(351))).unwrap()
}

#[test]
fn shapes_match_synthesize() {
    let w = world();
    let net = Network::new(Seed(351));
    let cache = RouteCache::new(net.params());
    let mut host_pairs = 0;
    let mut router_pairs = 0;
    for i in 0..w.probes.len().min(120) {
        for j in 0..w.anchors.len().min(40) {
            let src = Endpoint::Host(w.probes[i]);
            let dst = Endpoint::Host(w.anchors[j]);
            for (a, b) in [(src, dst), (dst, src)] {
                let slow = oracle::synthesize(&w, net.params(), a, b);
                let fast = cache.shape(&w, net.params(), a, b);
                let slow_wps: Vec<_> = slow.waypoints.iter().map(|wp| (wp.asn, wp.city)).collect();
                assert_eq!(fast.waypoints(), &slow_wps[..], "{a:?} -> {b:?}");
                host_pairs += 1;
            }
            // Router-sourced reverse paths (traceroute semantics).
            let h = w.host(w.anchors[j]);
            let router = Endpoint::Router(h.asn, h.city);
            let slow = oracle::synthesize(&w, net.params(), router, src);
            let fast = cache.shape(&w, net.params(), router, src);
            let slow_wps: Vec<_> = slow.waypoints.iter().map(|wp| (wp.asn, wp.city)).collect();
            assert_eq!(fast.waypoints(), &slow_wps[..], "{router:?} -> {src:?}");
            router_pairs += 1;
        }
    }
    assert!(host_pairs > 1000 && router_pairs > 500);
}

#[test]
fn one_way_and_base_rtt_bits_match() {
    let w = world();
    let net = Network::new(Seed(351));
    let cache = RouteCache::new(net.params());
    for i in 0..w.probes.len().min(150) {
        let src = w.probes[i];
        let dst = w.anchors[i % w.anchors.len()];
        // Full base RTT, both through a cold cache and replayed warm.
        for _ in 0..2 {
            let fast = cache.base_rtt_ms(&w, net.params(), src, dst);
            let slow = oracle::base_rtt(&w, net.params(), src, dst).value();
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "base_rtt bits diverged for {src:?} -> {dst:?}: {fast} vs {slow}"
            );
        }
        // Each direction's one-way delay separately.
        for (a, b) in [
            (Endpoint::Host(src), Endpoint::Host(dst)),
            (Endpoint::Host(dst), Endpoint::Host(src)),
        ] {
            let shape = cache.shape(&w, net.params(), a, b);
            let fast = cache.one_way_ms(&w, net.params(), a, b, &shape);
            let slow = oracle::one_way_delay(
                &w,
                net.params(),
                &oracle::synthesize(&w, net.params(), a, b),
            )
            .value();
            assert_eq!(fast.to_bits(), slow.to_bits());
        }
        // Router-sourced one-way delay (reverse path from a hop).
        let h = w.host(dst);
        let rev_src = Endpoint::Router(h.asn, h.city);
        let shape = cache.shape(&w, net.params(), rev_src, Endpoint::Host(src));
        let fast = cache.one_way_ms(&w, net.params(), rev_src, Endpoint::Host(src), &shape);
        let slow = oracle::one_way_delay(
            &w,
            net.params(),
            &oracle::synthesize(&w, net.params(), rev_src, Endpoint::Host(src)),
        )
        .value();
        assert_eq!(fast.to_bits(), slow.to_bits());
    }
    // A fresh cache answers each pair's reverse first, so each link lane
    // slot is first reached from the opposite direction to the pass above.
    let rev_first = RouteCache::new(net.params());
    for i in 0..w.probes.len().min(150) {
        let (src, dst) = (w.probes[i], w.anchors[i % w.anchors.len()]);
        for (a, b) in [(dst, src), (src, dst)] {
            let fast = rev_first.base_rtt_ms(&w, net.params(), a, b);
            let slow = oracle::base_rtt(&w, net.params(), a, b).value();
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "reverse-first base_rtt bits diverged for {a:?} -> {b:?}: {fast} vs {slow}"
            );
        }
    }
}

/// `Network::prepare` builds the lanes up front and changes no result:
/// pings from a network prepared before and again after its first pings
/// carry the bits of an unprepared network's and of the reference.
#[test]
fn prepare_is_idempotent_and_keeps_ping_min_bits() {
    let w = world();
    let cold = Network::new(Seed(351));
    let warm = Network::new(Seed(351));
    warm.prepare(&w);
    let bits = |o: PingOutcome| o.rtt().map(|m| m.value().to_bits());
    for pass in 0..2 {
        for i in 0..w.probes.len().min(150) {
            let src = w.probes[i];
            let dst = w.host(w.anchors[i % w.anchors.len()]).ip;
            let nonce = 0x9E9A ^ i as u64;
            let slow = oracle::ping_min(&w, warm.params(), warm.seed(), src, dst, 3, nonce);
            let want = bits(slow);
            assert_eq!(
                bits(warm.ping_min(&w, src, dst, 3, nonce)),
                want,
                "pass {pass} pair {i}"
            );
            assert_eq!(
                bits(cold.ping_min(&w, src, dst, 3, nonce)),
                want,
                "pass {pass} pair {i}"
            );
        }
        warm.prepare(&w);
    }
}

#[test]
fn cumulative_delays_match() {
    let w = world();
    let net = Network::new(Seed(351));
    let cache = RouteCache::new(net.params());
    let mut buf = Vec::new();
    for i in 0..w.probes.len().min(80) {
        let src = Endpoint::Host(w.probes[i]);
        let dst = Endpoint::Host(w.anchors[i % w.anchors.len()]);
        let shape = cache.shape(&w, net.params(), src, dst);
        cache.cumulative_ms(&w, net.params(), src, &shape, &mut buf);
        let slow = oracle::cumulative_delays(
            &w,
            net.params(),
            &oracle::synthesize(&w, net.params(), src, dst),
        );
        assert_eq!(buf.len(), slow.len());
        for (f, s) in buf.iter().zip(&slow) {
            assert_eq!(f.value().to_bits(), s.value().to_bits());
        }
    }
}

#[test]
fn noise_model_matches_reference_packets() {
    let w = world();
    let net = Network::new(Seed(351));
    let noise = NoiseModel::new(net.params());
    for i in 0..w.probes.len().min(200) {
        let src = w.probes[i];
        let dst_host = w.host(w.anchors[i % w.anchors.len()]);
        let base = oracle::base_rtt(&w, net.params(), src, dst_host.id);
        let nonce = 0xC0FFEE ^ i as u64;
        let slow = oracle::ping_min_with_base(
            &w,
            net.params(),
            net.seed(),
            src,
            dst_host.ip,
            dst_host.id,
            base,
            3,
            nonce,
        );
        let fast = noise.ping_min(
            net.seed(),
            src,
            dst_host.ip,
            w.host(src).last_mile,
            dst_host.last_mile,
            base,
            3,
            nonce,
        );
        assert_eq!(fast, slow, "ping_min diverged for pair {i}");
    }
}

#[test]
fn network_ping_and_traceroute_match_reference() {
    let w = world();
    let net = Network::new(Seed(351));
    for i in 0..w.probes.len().min(100) {
        let src = w.probes[i];
        let dst = w.host(w.anchors[i % w.anchors.len()]).ip;
        let nonce = 0xBEEF ^ i as u64;
        assert_eq!(
            net.ping_min(&w, src, dst, 3, nonce),
            oracle::ping_min(&w, net.params(), net.seed(), src, dst, 3, nonce)
        );
        assert_eq!(
            net.traceroute(&w, src, dst, nonce),
            oracle::traceroute(&w, net.params(), net.seed(), src, dst, nonce)
        );
    }
    // Traceroute corner cases: unrouted prefix, allocated-but-unresponsive.
    let unrouted = geo_model::ip::Ipv4::from_octets(250, 1, 2, 3);
    assert_eq!(
        net.traceroute(&w, w.probes[0], unrouted, 1),
        oracle::traceroute(&w, net.params(), net.seed(), w.probes[0], unrouted, 1)
    );
    let ghost = w.host(w.anchors[0]).ip.prefix24().host(251);
    assert!(w.host_by_ip(ghost).is_none());
    assert_eq!(
        net.traceroute(&w, w.probes[0], ghost, splitmix64(7)),
        oracle::traceroute(
            &w,
            net.params(),
            net.seed(),
            w.probes[0],
            ghost,
            splitmix64(7)
        )
    );
}

/// Campaign rows cell by cell against the reference `oracle::ping_min`:
/// attach-sorted source rows share one `RowScratch` (so consecutive rows
/// reuse filled sequences), every target also runs as a row that skips
/// its own column (the mesh diagonal), and a web server added after the
/// lanes were sized is both a column and a row (the per-cell fallbacks).
/// Hosts attached inside transit-pool ASes join as rows and columns, so
/// paths whose transit is an endpoint's own AS are covered.
#[test]
fn campaign_rows_match_ping_min() {
    let mut w = world();
    let net = Network::new(Seed(351));
    // Size the route cache's lanes on the world as generated.
    let _ = net.target_lane(&w, &w.anchors);
    let pool = w.transit_pool().to_vec();
    let in_pool: Vec<HostId> = w
        .hosts
        .iter()
        .filter(|h| pool.contains(&h.asn))
        .map(|h| h.id)
        .take(12)
        .collect();
    assert!(
        !in_pool.is_empty(),
        "no host attached inside the transit pool"
    );
    let t = pool[0];
    let city = w.asn(t).pops[0];
    let late = w.add_web_server(t, city, w.city(city).center);

    let mut targets = w.anchors.clone();
    targets.extend(&in_pool);
    targets.push(late);
    let lane = net.target_lane(&w, &targets);
    assert_eq!(lane.len(), targets.len());

    let mut probes = w.probes.clone();
    probes.extend(&in_pool);
    probes.sort_by_key(|&p| (net.attach_group(&w, p), p));
    let mut rows: Vec<(HostId, Option<usize>)> = probes.into_iter().map(|p| (p, None)).collect();
    rows.extend(targets.iter().enumerate().map(|(c, &a)| (a, Some(c))));

    let mut scratch = RowScratch::new();
    let mut cells = 0;
    for (r, &(src, skip)) in rows.iter().enumerate() {
        let nonce = |c: usize| 0x7A11 ^ ((r as u64) << 20 | c as u64);
        let mut seen = Vec::with_capacity(targets.len());
        net.campaign_row(&w, &lane, &mut scratch, src, 3, nonce, skip, |c, out| {
            let dst = w.host(targets[c]).ip;
            let slow = oracle::ping_min(&w, net.params(), net.seed(), src, dst, 3, nonce(c));
            assert_eq!(
                out.rtt().map(|m| m.value().to_bits()),
                slow.rtt().map(|m| m.value().to_bits()),
                "row {r} ({src:?}) column {c} ({:?})",
                targets[c]
            );
            seen.push(c);
        });
        let want: Vec<usize> = (0..targets.len()).filter(|&c| Some(c) != skip).collect();
        assert_eq!(seen, want, "row {r} emitted the wrong columns");
        cells += seen.len();
    }
    assert!(cells > 8000, "only {cells} cells compared");
}

/// `Network::campaign` cell by cell against the reference
/// `oracle::ping_min`. Anchors, some probes, hosts attached inside
/// transit-pool ASes and a web server added after the lanes were sized
/// are both the sources and the targets, in two campaigns: a mesh that
/// skips its diagonal, and one that maps target column `c` to column
/// `2c + 1` of a matrix of width `2n + 1`. Every written cell must carry
/// the reference bits, and every other cell must stay NaN.
#[test]
fn campaign_matches_ping_min() {
    let mut w = world();
    let net = Network::new(Seed(351));
    // Size the route cache's lanes on the world as generated.
    let _ = net.target_lane(&w, &w.anchors);
    let pool = w.transit_pool().to_vec();
    let in_pool: Vec<HostId> = w
        .hosts
        .iter()
        .filter(|h| pool.contains(&h.asn))
        .map(|h| h.id)
        .take(12)
        .collect();
    assert!(
        !in_pool.is_empty(),
        "no host attached inside the transit pool"
    );
    let city = w.asn(pool[0]).pops[0];
    let late = w.add_web_server(pool[0], city, w.city(city).center);
    let mut hosts = w.anchors.clone();
    hosts.extend(w.probes.iter().take(40));
    hosts.extend(&in_pool);
    hosts.push(late);
    let n = hosts.len();

    let nonce = |r: usize, c: usize| 0x3E5A ^ ((r as u64) << 20 | c as u64);
    let mesh: DelayMatrix = net.campaign(&w, &hosts, &hosts, n, 3, nonce, Some, |row, c, out| {
        row[c] = DelayMatrix::cell(out.rtt());
    });
    let wide: DelayMatrix = net.campaign(
        &w,
        &hosts,
        &hosts,
        2 * n + 1,
        3,
        nonce,
        |_| None,
        |row, c, out| row[2 * c + 1] = DelayMatrix::cell(out.rtt()),
    );
    assert_eq!((mesh.rows(), mesh.cols()), (n, n));
    assert_eq!((wide.rows(), wide.cols()), (n, 2 * n + 1));

    let bits = |m: &DelayMatrix, r, c| m.get(r, c).map(|v| v.value().to_bits());
    for (r, &src) in hosts.iter().enumerate() {
        for (c, &dst) in hosts.iter().enumerate() {
            let ip = w.host(dst).ip;
            let slow = oracle::ping_min(&w, net.params(), net.seed(), src, ip, 3, nonce(r, c));
            let slow = slow.rtt().map(|m| m.value().to_bits());
            if r == c {
                assert!(mesh.row(r)[c].is_nan(), "mesh diagonal {r} was written");
            } else {
                assert_eq!(bits(&mesh, r, c), slow, "mesh ({r}, {c})");
            }
            assert_eq!(bits(&wide, r, 2 * c + 1), slow, "wide ({r}, {c})");
        }
        let written = wide.row(r).iter().step_by(2).filter(|v| !v.is_nan());
        assert_eq!(written.count(), 0, "wide row {r} wrote an unmapped column");
    }
    assert!(n * n > 5000, "only {n} hosts compared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The base-delay cache is transparent: for any endpoint pair, the
    /// cached base RTT equals the reference's recomputation bit for bit,
    /// in both directions (base RTT is symmetric) and on repeat lookups.
    #[test]
    fn cached_base_delay_matches_uncached(seed in 0u64..1000, a in 0usize..64, b in 0usize..64) {
        let world = World::generate(WorldConfig::small(Seed(4242))).unwrap();
        let net = Network::new(Seed(seed));
        let (x, y) = (world.hosts[a].id, world.hosts[b].id);
        let cached = net.base_rtt(&world, x, y);
        let uncached = oracle::base_rtt(&world, net.params(), x, y);
        prop_assert_eq!(cached.value().to_bits(), uncached.value().to_bits());
        // A second lookup is a hit and returns the same bits; the reverse
        // direction shares the unordered cache entry.
        let again = net.base_rtt(&world, x, y);
        let reverse = net.base_rtt(&world, y, x);
        prop_assert_eq!(again.value().to_bits(), cached.value().to_bits());
        prop_assert_eq!(reverse.value().to_bits(), cached.value().to_bits());
        prop_assert!(net.cache_stats().hits >= 2);
    }
}
