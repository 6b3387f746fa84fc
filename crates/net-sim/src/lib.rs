//! # net-sim
//!
//! A deterministic router-level latency and path simulator over a
//! `world-sim` world. This is the substitute for the live Internet that the
//! replication's measurement platform (RIPE Atlas in the paper,
//! `atlas-sim` here) drives.
//!
//! The simulator is built around the properties the paper's analysis
//! depends on, rather than around packet-level fidelity:
//!
//! - **Propagation floor.** Every link propagates at 2/3 c over a
//!   cable-inflated geodesic (inflation ≥ 1.1), so a CBG constraint circle
//!   computed at 2/3 c always contains the true target — while the
//!   street-level paper's more aggressive 4/9 c conversion can exclude it,
//!   as the paper observed for 5 of its targets.
//! - **Hot-potato, destination-based routing.** Paths are synthesized
//!   per-direction: an AS hands traffic to transit as early as possible and
//!   the transit choice depends on the direction, so forward and reverse
//!   paths differ routinely. Per-hop traceroute RTTs use the *reverse path
//!   from that hop*, which is exactly what makes the street-level paper's
//!   `D1 + D2` delay differences noisy and often negative (Appendix B).
//! - **Last-mile delay.** Hosts in access networks add a gamma-distributed
//!   last-mile delay to every measurement (§4.4.2), which caps how tight a
//!   latency constraint through such vantage points can be.
//! - **Determinism.** A measurement's outcome is a pure function of
//!   (seed, src, dst, nonce): reruns are bit-identical, and independent
//!   experiments can share one simulator without interference.
//!
//! Entry point: [`Network`].

pub mod cache;
pub mod delay;
pub mod hotpath;
pub mod measure;
pub mod params;
pub mod route;

pub use cache::{BaseDelayCache, CacheStats};
pub use hotpath::{NoiseModel, PathShape, RouteCache, RowScratch, TargetLane};
pub use measure::{Hop, PingOutcome, Traceroute};
pub use params::NetParams;
pub use route::{Endpoint, Path, Waypoint};

use geo_model::ip::Ipv4;
use geo_model::matrix::{Cell, Matrix};
use geo_model::rng::{splitmix64, Seed};
use geo_model::units::Ms;
use std::sync::Arc;
use world_sim::ids::HostId;
use world_sim::World;

/// The network simulator. Cheap to clone; clones share the base-delay
/// cache and the route cache (all other state is parameters).
#[derive(Debug, Clone)]
pub struct Network {
    seed: Seed,
    params: NetParams,
    cache: Arc<BaseDelayCache>,
    routes: Arc<RouteCache>,
    noise: NoiseModel,
}

impl Network {
    /// Creates a simulator with default parameters.
    pub fn new(seed: Seed) -> Network {
        Network::with_params(seed, NetParams::default())
    }

    /// Creates a simulator with explicit parameters.
    pub fn with_params(seed: Seed, params: NetParams) -> Network {
        let routes = Arc::new(RouteCache::new(&params));
        let noise = NoiseModel::new(&params);
        Network {
            seed,
            params,
            cache: Arc::new(BaseDelayCache::new()),
            routes,
            noise,
        }
    }

    /// The simulator's parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// The simulator's seed.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// The deterministic (jitter-free, last-mile-free) round-trip time
    /// between two hosts: forward one-way plus reverse one-way delay.
    /// Memoized per unordered endpoint pair in the shared
    /// [`BaseDelayCache`]; [`Network::ping`] and the traceroute's
    /// destination ping read it. [`Network::ping_min`] and campaign rows
    /// compute the same bits without the cache.
    pub fn base_rtt(&self, world: &World, src: HostId, dst: HostId) -> Ms {
        Ms(self.cache.get_or_compute(src, dst, || {
            self.routes.base_rtt_ms(world, &self.params, src, dst)
        }))
    }

    /// [`Network::base_rtt`] bypassing the cache: recomputes the full
    /// router-level path synthesis. Used by the equivalence property test
    /// and the cold-cache benchmarks.
    pub fn base_rtt_uncached(&self, world: &World, src: HostId, dst: HostId) -> Ms {
        measure::base_rtt(world, &self.params, src, dst)
    }

    /// Hit/miss counters and size of the shared base-delay cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Empties the base-delay cache and resets its counters (cold-cache
    /// benchmarks; never needed for correctness).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// One ping packet from `src` to the address `dst`. Deterministic in
    /// `(seed, src, dst, nonce)`.
    pub fn ping(&self, world: &World, src: HostId, dst: Ipv4, nonce: u64) -> PingOutcome {
        let Some(dst_host) = world.host_by_ip(dst) else {
            return PingOutcome::Timeout;
        };
        let base = self.base_rtt(world, src, dst_host.id);
        let key = measure::measurement_key(src, dst, nonce);
        self.noise.packet(
            self.seed,
            world.host(src).last_mile,
            dst_host.last_mile,
            base,
            key,
        )
    }

    /// The minimum RTT over `count` ping packets — how latency geolocation
    /// actually measures (RIPE Atlas pings send 3 packets and keep the
    /// minimum). The deterministic base RTT is computed once, straight from
    /// the two hosts' attachment PoPs through the route cache's per-host
    /// and per-PoP lanes; nothing is stored per pair, because bulk
    /// campaigns almost never measure a pair twice. Only the per-packet
    /// noise is drawn per packet.
    pub fn ping_min(
        &self,
        world: &World,
        src: HostId,
        dst: Ipv4,
        count: usize,
        nonce: u64,
    ) -> PingOutcome {
        let Some(dst_host) = world.host_by_ip(dst) else {
            return PingOutcome::Timeout;
        };
        let base = Ms(self
            .routes
            .base_rtt_ms(world, &self.params, src, dst_host.id));
        self.noise.ping_min(
            self.seed,
            src,
            dst,
            world.host(src).last_mile,
            dst_host.last_mile,
            base,
            count,
            nonce,
        )
    }

    /// Resolves per-target constants for a bulk campaign against a fixed
    /// target list (see [`Network::campaign_row`]).
    pub fn target_lane(&self, world: &World, targets: &[HostId]) -> TargetLane {
        self.routes.target_lane(world, &self.params, targets)
    }

    /// The attach-group key of a host: campaign rows sorted by this key
    /// maximize [`RowScratch`] reuse across consecutive rows.
    pub fn attach_group(&self, world: &World, id: HostId) -> u32 {
        self.routes.attach_group(world, id)
    }

    /// One campaign row: [`Network::ping_min`] from `src` to every
    /// target column, bit-identical cell by cell, with the per-call
    /// constant work (`host_by_ip`, last-mile lookup, access delays,
    /// route synthesis per attach pair) hoisted into the [`TargetLane`]
    /// and the attach-keyed [`RowScratch`]. `nonce_of(col)` supplies the per-cell
    /// nonce; `skip` omits a column (the mesh diagonal).
    // geo-lint: hot-path
    #[allow(clippy::too_many_arguments)]
    pub fn campaign_row(
        &self,
        world: &World,
        targets: &TargetLane,
        scratch: &mut RowScratch,
        src: HostId,
        count: usize,
        nonce_of: impl Fn(usize) -> u64,
        skip: Option<usize>,
        mut emit: impl FnMut(usize, PingOutcome),
    ) {
        let src_lm = world.host(src).last_mile;
        self.routes.base_row(
            world,
            &self.params,
            targets,
            scratch,
            src,
            skip,
            |c, base, ip, dst_lm| {
                let out = self.noise.ping_min(
                    self.seed,
                    src,
                    ip,
                    src_lm,
                    dst_lm,
                    base,
                    count,
                    nonce_of(c),
                );
                emit(c, out);
            },
        );
    }

    /// A whole campaign: [`Network::campaign_row`] from every source to
    /// every target, written in place into a `sources × cols` matrix
    /// whose cells start NaN. `nonce(r, c)` keys the cell of source `r`
    /// and target `c`, `skip(r)` names a target column row `r` leaves out
    /// (the mesh diagonal), and `emit(row, c, outcome)` stores target
    /// `c`'s outcome in the source's row: at column `c`, or at any column
    /// of a matrix wider than the target list.
    ///
    /// Rows run in [`Network::attach_group`] order, so the rows one
    /// worker fills back to back share its [`RowScratch`]; each row still
    /// lands at its source's index, and every cell is a pure function of
    /// its source, target and nonce, so the matrix is bit-identical at
    /// any `IPGEO_THREADS`.
    #[allow(clippy::too_many_arguments)]
    pub fn campaign<T: Cell>(
        &self,
        world: &World,
        sources: &[HostId],
        targets: &[HostId],
        cols: usize,
        count: usize,
        nonce: impl Fn(usize, usize) -> u64 + Sync,
        skip: impl Fn(usize) -> Option<usize> + Sync,
        emit: impl Fn(&mut [T], usize, PingOutcome) + Sync,
    ) -> Matrix<T> {
        let lane = self.target_lane(world, targets);
        let mut order: Vec<usize> = (0..sources.len()).collect();
        order.sort_by_key(|&r| self.attach_group(world, sources[r]));
        Matrix::par_build_ordered(
            sources.len(),
            cols,
            &order,
            RowScratch::new,
            |scratch, r, row| {
                self.campaign_row(
                    world,
                    &lane,
                    scratch,
                    sources[r],
                    count,
                    |c| nonce(r, c),
                    skip(r),
                    |c, out| emit(row, c, out),
                );
            },
        )
    }

    /// A traceroute from `src` to the address `dst`. Same semantics as
    /// [`measure::traceroute`], with the forward path, per-hop reverse
    /// paths and noise resolved through the shared caches.
    pub fn traceroute(&self, world: &World, src: HostId, dst: Ipv4, nonce: u64) -> Traceroute {
        let dst_host = world.host_by_ip(dst);
        let key = measure::measurement_key(src, dst, splitmix64(nonce ^ hotpath::H_TRACEROUTE));

        let fwd_dst = match dst_host {
            Some(h) => Endpoint::Host(h.id),
            None => match world.plan.owner(dst.prefix24()) {
                Some((asn, city)) => Endpoint::Router(asn, city),
                None => {
                    return Traceroute {
                        src,
                        dst,
                        hops: Vec::new(),
                        dst_rtt: None,
                    }
                }
            },
        };
        let fwd = self
            .routes
            .shape(world, &self.params, Endpoint::Host(src), fwd_dst);
        let mut cumulative = Vec::new();
        self.routes.cumulative_ms(
            world,
            &self.params,
            Endpoint::Host(src),
            &fwd,
            &mut cumulative,
        );
        // The reference samples the source last mile with the same key for
        // every hop; one sample serves all of them.
        let src_lm = self
            .noise
            .last_mile(world.host(src).last_mile, self.seed, key ^ 0x17);

        let mut hops = Vec::with_capacity(fwd.waypoints().len());
        for (i, &(asn, city)) in fwd.waypoints().iter().enumerate() {
            let hop_key = splitmix64(key ^ (i as u64 + 1));
            let rtt = if self.noise.hop_responds(self.seed, hop_key) {
                // Reverse path *from this router* to the source.
                let rev_src = Endpoint::Router(asn, city);
                let rev = self
                    .routes
                    .shape(world, &self.params, rev_src, Endpoint::Host(src));
                let rev_delay = Ms(self.routes.one_way_ms(
                    world,
                    &self.params,
                    rev_src,
                    Endpoint::Host(src),
                    &rev,
                ));
                let j = self.noise.jitter(self.seed, hop_key);
                let slowpath = self.noise.icmp_slowpath(self.seed, hop_key);
                Some(cumulative[i] + rev_delay + j + src_lm + slowpath)
            } else {
                None
            };
            hops.push(Hop {
                waypoint: Waypoint { asn, city },
                rtt,
            });
        }

        let dst_rtt = dst_host.and_then(|h| {
            let base = self.base_rtt(world, src, h.id);
            let ping_key = measure::measurement_key(src, dst, splitmix64(nonce ^ 0xF1));
            self.noise
                .packet(
                    self.seed,
                    world.host(src).last_mile,
                    h.last_mile,
                    base,
                    ping_key,
                )
                .rtt()
        });

        Traceroute {
            src,
            dst,
            hops,
            dst_rtt,
        }
    }
}
