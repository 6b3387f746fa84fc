//! The memoized measurement hot path: route shapes, link delays and
//! per-packet noise.
//!
//! The direct way to measure is the reference model this module replays,
//! kept as the test oracle in `tests/oracle/mod.rs` (`oracle::` below).
//! Its `oracle::base_rtt` would be the cost center of every bulk campaign:
//! it synthesizes two router-level paths and walks them link by link,
//! paying spherical trigonometry (`Waypoint::location`, haversine) and
//! hash derivation per link, per call. Almost all of that work repeats
//! across measurements, because paths are built from a small vocabulary:
//!
//! - the **first and last links** of any host path depend only on the host
//!   (its location, its attachment PoP) — one constant per host;
//! - a path starting at a `Router` endpoint begins with a zero-length link
//!   to its own PoP, whose delay collapses to the metro detour — one
//!   constant per simulator;
//! - the **shape** of a path and all its middle (PoP-to-PoP) link delays
//!   depend only on the two endpoints' attachment PoPs `(asn, city)` —
//!   one short addend sequence per attach pair, shared by every host pair
//!   behind the same attachments (a campaign row computes it once per
//!   column in its [`RowScratch`]; a single ping recomputes it, which is
//!   cheaper than a per-pair memo that bulk traffic almost never reads
//!   back);
//! - most attach pairs route through transit, and every transit link is
//!   keyed far more coarsely than the pair: an access link (attach,
//!   transit AS), which is both the attach's uplink and its downlink, or a
//!   core link (transit AS, PoP, PoP). Campaign rows and single pings read
//!   them through one flat lane each, one slot per undirected link: ~136
//!   reads per filled slot in the paper campaign, ~53 in a publish build;
//! - the topology tests the shape is decided by (`has_pop`, `nearest_pop`,
//!   the `best_shared_pop` scan) hit tiny key spaces — dense lanes beat
//!   hash tables.
//!
//! [`RouteCache`] holds exactly those pieces and replays the delay sum
//! in the *same addition order* as `oracle::one_way_delay`, so every f64
//! is bit-identical to the unmemoized oracle (f64 addition is not
//! associative, so caching whole sums per pair would entangle the per-host
//! access terms; caching the middle addends and re-adding in order is safe).
//!
//! [`NoiseModel`] precomputes the per-packet distributions (`ln()` per
//! lognormal, domain hashes) that `oracle::jitter`/`last_mile` re-derive
//! on every packet. Sampling itself is untouched, so draws are bit-identical.
//!
//! `crates/core/tests/hotpath_equivalence.rs` pins the end-to-end outputs
//! against pre-optimization digests; `tests/hotpath_equivalence.rs` in this
//! crate checks the fast path against the oracle pair by pair.

use crate::delay;
use crate::measure::{self, PingOutcome};
use crate::params::NetParams;
use crate::route::{self, Endpoint, Waypoint};
use geo_model::distr::{LogNormal, Sample};
use geo_model::ip::Ipv4;
use geo_model::point::PointTrig;
use geo_model::rng::{fnv1a, splitmix64, KeyRng, MixHasher, Seed};
use geo_model::units::Ms;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use world_sim::host::LastMile;
use world_sim::ids::{AsId, CityId, HostId};
use world_sim::World;

/// Compile-time domain hashes (the oracle hashes these literals on every
/// call; see `oracle::unit_sample` and friends).
const H_LOSS: u64 = fnv1a(b"loss");
const H_JITTER: u64 = fnv1a(b"jitter");
const H_LAST_MILE: u64 = fnv1a(b"last-mile");
const H_ICMP: u64 = fnv1a(b"icmp-slowpath");
const H_HOP_RESPONDS: u64 = fnv1a(b"hop-responds");
const H_CABLE: u64 = fnv1a(b"cable");
pub(crate) const H_TRACEROUTE: u64 = fnv1a(b"traceroute");

/// The memo tables hash with [`MixHasher`] at seed 0: the default SipHash
/// costs more than the memoized computation it guards, and the hasher only
/// affects bucket spread, never results.
type MixMap<K, V> = HashMap<K, V, MixHasher>;

/// A path's waypoint list on the stack: `oracle::synthesize` never emits
/// more than four waypoints, so the shape of a route needs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathShape {
    wps: [(AsId, CityId); 4],
    len: u8,
}

impl PathShape {
    fn new() -> PathShape {
        PathShape {
            wps: [(AsId(0), CityId(0)); 4],
            len: 0,
        }
    }

    /// Appends a waypoint, dropping consecutive duplicates — the same
    /// normalization `Vec::dedup` applies in `oracle::synthesize`.
    #[inline]
    fn push(&mut self, asn: AsId, city: CityId) {
        let n = self.len as usize;
        if n > 0 && self.wps[n - 1] == (asn, city) {
            return;
        }
        self.wps[n] = (asn, city);
        self.len += 1;
    }

    /// The waypoints in path order.
    #[inline]
    pub fn waypoints(&self) -> &[(AsId, CityId)] {
        &self.wps[..self.len as usize]
    }
}

/// An endpoint's attachment PoP (no location resolution — the hot path
/// never needs endpoint coordinates, only per-host link constants).
#[inline]
fn attach(world: &World, ep: Endpoint) -> (AsId, CityId) {
    match ep {
        Endpoint::Host(id) => {
            let h = world.host(id);
            (h.asn, h.city)
        }
        Endpoint::Router(asn, city) => (asn, city),
    }
}

#[inline]
fn pack(asn: AsId, city: CityId) -> u64 {
    (asn.0 as u64) << 32 | city.0 as u64
}

/// A lane of `n` zeroed slots (zero = not yet computed).
// geo-lint: allow(P1, reason = "lane allocation, once per lane when the route cache builds it; later calls only read the memo")
fn zeroed<T: Default>(n: usize) -> Box<[T]> {
    std::iter::repeat_with(T::default).take(n).collect()
}

/// Reads a memoized delay, computing and storing it on first use. Zero
/// bits mean "not yet computed"; a delay whose bits are zero is simply
/// recomputed every time. Racing fills store identical bits, and a slot
/// publishes nothing but its own bits, so `Relaxed` suffices.
// geo-lint: hot-path
#[inline]
fn memo(slot: &AtomicU64, compute: impl FnOnce() -> f64) -> f64 {
    let bits = slot.load(Ordering::Relaxed);
    if bits != 0 {
        return f64::from_bits(bits);
    }
    let v = compute();
    slot.store(v.to_bits(), Ordering::Relaxed);
    v
}

/// Router-waypoint constants: the symmetric link-key tag and the
/// trigonometry of the router's physical location.
#[derive(Debug, Clone, Copy)]
struct WpInfo {
    tag: u64,
    trig: PointTrig,
}

impl WpInfo {
    fn of(world: &World, asn: AsId, city: CityId) -> WpInfo {
        let wp = Waypoint { asn, city };
        WpInfo {
            tag: delay::waypoint_tag(&wp),
            trig: PointTrig::of(&wp.location(world)),
        }
    }
}

/// The middle-link addends of one attach-pair direction: `oracle::synthesize`
/// emits at most four waypoints, so at most three PoP-to-PoP links. Hop
/// processing is a parameter constant, so only the link delays are
/// stored; the fold re-interleaves them in the reference order.
#[derive(Debug, Clone, Copy)]
struct DirSeq {
    mids: [f64; 3],
    len: u8,
}

impl DirSeq {
    const EMPTY: DirSeq = DirSeq {
        mids: [0.0; 3],
        len: 0,
    };

    #[inline]
    fn push(&mut self, ms: f64) {
        self.mids[self.len as usize] = ms;
        self.len += 1;
    }
}

/// The branch `oracle::synthesize` takes between two attachment PoPs.
enum Plan {
    /// Every waypoint, for the intra-AS and peering branches.
    Shape(PathShape),
    /// The transit branch through `asn`, entered at the PoP nearest the
    /// source (CSR position `p_in` in the AS's slice) and left at the
    /// PoP nearest the destination (`p_out`).
    Transit { asn: AsId, p_in: u32, p_out: u32 },
}

/// Dense per-world lookup lanes, every table allocated when the lane is
/// built (once, on first use or by [`RouteCache::prepare`]). All tables
/// key on world entity ids: one `Network` must not be reused across
/// differently-generated worlds.
///
/// The transit tables hold one slot per undirected link. `mid_ms(x, y)`
/// and `mid_ms(y, x)` give the same bits: `delay::link_key` sorts the two
/// tags, `PointTrig::distance` negates `dlat` and `dlon` exactly and `sin`
/// is odd, and the `cos_lat` product commutes. Each slot is still filled
/// in one fixed direction (attach → PoP, lower CSR position → higher), so
/// its bits never depend on which direction reached it first.
#[derive(Debug)]
struct WorldLane {
    n_cities: usize,
    /// Per-city trig of city centers (detour replays in
    /// `best_shared_pop`).
    city_trig: Vec<PointTrig>,
    /// `has_pop` bitset over `as_index * n_cities + city_index`.
    pop_bits: Vec<u64>,
    /// CSR offsets into `pop_city`/`wp`, one slice per AS. A dense
    /// `(asn, city)` table at world scale is tens of megabytes of
    /// mostly-`MAX` entries, and every lookup through it is a cache miss;
    /// the CSR form is under a megabyte total, so the footprints of the
    /// ASes a campaign actually routes through stay cache-resident.
    pop_off: Vec<u32>,
    /// Each AS's PoP cities, sorted (and deduplicated) within its slice.
    pop_city: Vec<u32>,
    /// Waypoint constants, parallel to `pop_city`.
    wp: Vec<WpInfo>,
    /// Each host's attach index (into `attaches`).
    host_attach: Vec<u32>,
    /// Distinct host attachment PoPs.
    attaches: Vec<(AsId, CityId)>,
    /// Each AS's position `k` among the K transit ASes (`None` for an AS
    /// no other AS buys transit from).
    transit_pos: Vec<Option<u32>>,
    /// `World::nearest_pop` results as CSR positions in the transit AS's
    /// slice: slot `k * n_cities + city` holds `pos + 1` for `T_k` (zero =
    /// not yet computed). Racing fills store identical values.
    nearest: Box<[AtomicU32]>,
    /// Transit access-link delay bits: slot `attach * K + k` is the link
    /// between the attach and `(T_k, nearest_pop(T_k, attach city))`, the
    /// attach's uplink into `T_k` and its downlink out of it.
    links: Box<[AtomicU64]>,
    /// Where each transit AS's triangle starts in `core` (K + 1 offsets).
    core_off: Vec<u32>,
    /// Transit core-link delay bits, one triangle per transit AS: slot
    /// `core_off[k] + q * (q - 1) / 2 + p` is the link between the PoPs
    /// at CSR positions `p < q` of `T_k`.
    core: Box<[AtomicU64]>,
}

impl WorldLane {
    // geo-lint: allow(P1, reason = "one-time construction behind OnceLock; amortized across the whole campaign, never re-entered")
    fn build(world: &World) -> WorldLane {
        let n_cities = world.cities.len();
        let n_as = world.ases.len();
        let city_trig: Vec<PointTrig> = world
            .cities
            .iter()
            .map(|c| PointTrig::of(&c.center))
            .collect();
        let mut pop_bits = vec![0u64; (n_as * n_cities).div_ceil(64)];
        let mut pop_off = Vec::with_capacity(n_as + 1);
        let mut pop_city: Vec<u32> = Vec::new();
        let mut wp = Vec::new();
        let mut cities: Vec<u32> = Vec::new();
        pop_off.push(0);
        for a in &world.ases {
            cities.clear();
            cities.extend(a.pops.iter().map(|c| c.0));
            cities.sort_unstable();
            cities.dedup();
            for &c in &cities {
                let k = a.id.index() * n_cities + c as usize;
                pop_bits[k / 64] |= 1u64 << (k % 64);
                pop_city.push(c);
                wp.push(WpInfo::of(world, a.id, CityId(c)));
            }
            pop_off.push(pop_city.len() as u32);
        }
        let mut attach_of: MixMap<u64, u32> = MixMap::default();
        let mut attaches: Vec<(AsId, CityId)> = Vec::new();
        let host_attach = world
            .hosts
            .iter()
            .map(|h| {
                *attach_of.entry(pack(h.asn, h.city)).or_insert_with(|| {
                    attaches.push((h.asn, h.city));
                    (attaches.len() - 1) as u32
                })
            })
            .collect();
        // Every AS `route::pick_transit` can return: some AS's provider
        // (the transit pool; a pool member is its own provider).
        let mut transits: Vec<AsId> = world
            .ases
            .iter()
            .flat_map(|a| world.providers(a.id))
            .collect();
        transits.sort_unstable();
        transits.dedup();
        let mut transit_pos = vec![None; n_as];
        let mut core_off = vec![0u32];
        for (k, t) in transits.iter().enumerate() {
            transit_pos[t.index()] = Some(k as u32);
            let n = pop_off[t.index() + 1] - pop_off[t.index()];
            core_off.push(core_off[k] + n * n.saturating_sub(1) / 2);
        }
        WorldLane {
            n_cities,
            city_trig,
            pop_bits,
            pop_off,
            pop_city,
            nearest: zeroed(transits.len() * n_cities),
            links: zeroed(attaches.len() * transits.len()),
            core: zeroed(core_off[transits.len()] as usize),
            host_attach,
            attaches,
            transit_pos,
            core_off,
            wp,
        }
    }

    // geo-lint: hot-path
    #[inline]
    fn has_pop(&self, asn: AsId, city: CityId) -> bool {
        let k = asn.index() * self.n_cities + city.index();
        self.pop_bits[k / 64] >> (k % 64) & 1 == 1
    }

    /// An AS's PoP cities (its CSR slice).
    #[inline]
    fn pops(&self, asn: AsId) -> &[u32] {
        &self.pop_city[self.pop_off[asn.index()] as usize..self.pop_off[asn.index() + 1] as usize]
    }

    /// The PoP at CSR position `pos` of an AS's slice.
    #[inline]
    fn pop_at(&self, asn: AsId, pos: u32) -> CityId {
        CityId(self.pops(asn)[pos as usize])
    }

    /// The position `k` of a transit AS among the K transit ASes. Every
    /// AS `route::pick_transit` returns is some AS's provider, so it has
    /// one; any other AS is a bug in the caller.
    // geo-lint: hot-path
    #[inline]
    fn transit_k(&self, asn: AsId) -> u32 {
        self.transit_pos[asn.index()].expect("route::pick_transit returns a provider AS")
    }

    /// Memoized `World::nearest_pop` for a transit AS (a dot-product scan
    /// over the AS's footprint — transit ASes have hundreds of PoPs), as
    /// a CSR position in the AS's slice.
    // geo-lint: hot-path
    #[inline]
    fn nearest_pos(&self, world: &World, asn: AsId, city: CityId) -> u32 {
        let k = self.transit_k(asn) as usize;
        let slot = &self.nearest[k * self.n_cities + city.index()];
        let v = slot.load(Ordering::Relaxed);
        if v != 0 {
            return v - 1;
        }
        let c = world.nearest_pop(asn, city);
        let pos = self
            .pops(asn)
            .binary_search(&c.0)
            .expect("nearest_pop returns one of the AS's PoPs") as u32;
        slot.store(pos + 1, Ordering::Relaxed);
        pos
    }

    /// The access-link slot between attach `attach` and the `k`-th transit
    /// AS.
    #[inline]
    fn link(&self, attach: u32, k: u32) -> &AtomicU64 {
        &self.links[attach as usize * (self.core_off.len() - 1) + k as usize]
    }

    /// The core-link slot between the `k`-th transit AS's PoPs at CSR
    /// positions `lo < hi`.
    #[inline]
    fn core(&self, k: u32, lo: u32, hi: u32) -> &AtomicU64 {
        let (lo, hi) = (lo as usize, hi as usize);
        &self.core[self.core_off[k as usize] as usize + hi * (hi - 1) / 2 + lo]
    }
}

/// Memoized route synthesis and deterministic delay composition.
///
/// All tables are lazily filled and shared across clones of a
/// [`Network`](crate::Network); racing fills recompute identical values,
/// so the cache can never perturb a measurement. Every table is per host, per
/// PoP, per AS or per (attach, transit AS): nothing grows with the number
/// of host or attach pairs measured.
#[derive(Debug)]
pub struct RouteCache {
    /// Per-host first/last-link delay bits, indexed by `HostId`; zero means
    /// "not yet computed" (real access links are strictly positive — the
    /// metro detour alone guarantees it for co-located endpoints).
    access: OnceLock<Box<[AtomicU64]>>,
    /// Delay of a router's zero-length link to its own PoP: distance zero,
    /// so exactly the metro detour. Heads every `Endpoint::Router` path.
    router_self_ms: f64,
    /// Dense per-world lookup lanes.
    lane: OnceLock<WorldLane>,
    /// Waypoint constants for non-PoP waypoints (hosts attached where
    /// their AS has no registered PoP; rare).
    virt: RwLock<MixMap<u64, WpInfo>>,
}

impl RouteCache {
    /// An empty cache for a simulator with the given parameters.
    pub fn new(params: &NetParams) -> RouteCache {
        // Any point works: the link has zero length, so only the metro
        // detour survives.
        let origin = geo_model::point::GeoPoint::new(0.0, 0.0);
        RouteCache {
            access: OnceLock::new(),
            router_self_ms: delay::link_delay(params, &origin, &origin, 0).value(),
            lane: OnceLock::new(),
            virt: RwLock::new(MixMap::default()),
        }
    }

    fn lane(&self, world: &World) -> &WorldLane {
        self.lane.get_or_init(|| WorldLane::build(world))
    }

    fn access_lane(&self, world: &World) -> &[AtomicU64] {
        self.access.get_or_init(|| zeroed(world.hosts.len()))
    }

    /// Builds the world lane and the access lane for `world` on the
    /// calling thread, if they are not built yet. Every other entry point
    /// builds them on first use, so this changes no result, only which
    /// thread allocates them (see [`Network::prepare`](crate::Network::prepare)).
    pub fn prepare(&self, world: &World) {
        self.lane(world);
        self.access_lane(world);
    }

    /// The delay of a host's access link (host to its attachment PoP) —
    /// both the first link of every path leaving it and the last link of
    /// every path reaching it, since `oracle::synthesize` pins the boundary
    /// waypoints to the endpoint attachments.
    // geo-lint: hot-path
    fn access_ms(&self, world: &World, params: &NetParams, id: HostId) -> f64 {
        let lane = self.access_lane(world);
        match lane.get(id.index()) {
            Some(slot) => memo(slot, || compute_access_ms(world, params, id)),
            // Host added after the lane was sized (a later `add_web_server`):
            // stay correct, just unmemoized.
            None => compute_access_ms(world, params, id),
        }
    }

    /// Waypoint constants for a (possibly virtual) PoP.
    // geo-lint: hot-path
    fn wp_info(&self, world: &World, lane: &WorldLane, asn: AsId, city: CityId) -> WpInfo {
        let s = lane.pop_off[asn.index()] as usize;
        let e = lane.pop_off[asn.index() + 1] as usize;
        if let Ok(pos) = lane.pop_city[s..e].binary_search(&city.0) {
            return lane.wp[s + pos];
        }
        let key = pack(asn, city);
        if let Some(&info) = self.virt.read().expect("virt memo poisoned").get(&key) {
            return info;
        }
        let info = WpInfo::of(world, asn, city);
        self.virt
            .write()
            .expect("virt memo poisoned")
            .insert(key, info);
        info
    }

    /// The delay of the link between two adjacent PoP waypoints, computed
    /// fresh from precomputed waypoint constants — an exact replay of
    /// `delay::link_delay` (distance, cable inflation, metro detour), and
    /// cheaper than a memo lookup at the key cardinalities involved.
    // geo-lint: hot-path
    fn mid_ms(
        &self,
        world: &World,
        params: &NetParams,
        lane: &WorldLane,
        a: (AsId, CityId),
        b: (AsId, CityId),
    ) -> f64 {
        let wa = self.wp_info(world, lane, a.0, a.1);
        let wb = self.wp_info(world, lane, b.0, b.1);
        let key = delay::link_key(wa.tag, wb.tag);
        let dist = wa.trig.distance(&wb.trig).value();
        // `delay::inflation`, inlined with the compile-time domain hash.
        let h = splitmix64(key ^ H_CABLE);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let base = params.cable_inflation_min
            + u * (params.cable_inflation_max - params.cable_inflation_min);
        let u2 = ((splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64) * 0.5 + 0.5;
        let inflation = base + params.short_haul_inflation * u2 * (-dist / 800.0).exp();
        let mut ms = dist * inflation / params.km_per_ms();
        if dist < 30.0 {
            ms += params.metro_detour_ms;
        }
        ms
    }

    /// The first/last link delay for an endpoint.
    // geo-lint: hot-path
    fn endpoint_ms(&self, world: &World, params: &NetParams, ep: Endpoint) -> f64 {
        match ep {
            Endpoint::Host(id) => self.access_ms(world, params, id),
            Endpoint::Router(..) => self.router_self_ms,
        }
    }

    /// `oracle::best_shared_pop`, with PoP membership resolved through the
    /// dense bitset and the detour distances through precomputed city trig.
    /// The scan order (and so the first-minimum tie-break) matches the
    /// reference exactly.
    // geo-lint: hot-path
    fn best_shared_pop(
        &self,
        world: &World,
        lane: &WorldLane,
        a: AsId,
        b: AsId,
        src_city: CityId,
        dst_city: CityId,
    ) -> Option<CityId> {
        // Same scan/other resolution as the reference: scan the smaller
        // footprint, membership-test against the other.
        let (scan, other) = if world.asn(a).pops.len() <= world.asn(b).pops.len() {
            (a, b)
        } else {
            (b, a)
        };
        let src_t = &lane.city_trig[src_city.index()];
        let dst_t = &lane.city_trig[dst_city.index()];
        let mut best: Option<(CityId, f64)> = None;
        for &c in &world.asn(scan).pops {
            if !lane.has_pop(other, c) {
                continue;
            }
            let t = &lane.city_trig[c.index()];
            let detour = src_t.distance(t).value() + t.distance(dst_t).value();
            if best.is_none_or(|(_, d)| detour < d) {
                best = Some((c, detour));
            }
        }
        best.map(|(c, _)| c)
    }

    /// The branch `oracle::synthesize` takes between two attachment PoPs,
    /// with the waypoints of every branch but transit.
    // geo-lint: hot-path
    fn plan(
        &self,
        world: &World,
        params: &NetParams,
        lane: &WorldLane,
        (src_as, src_city): (AsId, CityId),
        (dst_as, dst_city): (AsId, CityId),
    ) -> Plan {
        let mut s = PathShape::new();
        s.push(src_as, src_city);
        if src_as == dst_as {
            s.push(src_as, dst_city);
        } else if lane.has_pop(dst_as, src_city) {
            s.push(dst_as, src_city);
            s.push(dst_as, dst_city);
        } else if lane.has_pop(src_as, dst_city) {
            s.push(src_as, dst_city);
            s.push(dst_as, dst_city);
        } else if let Some(meet) =
            self.best_shared_pop(world, lane, src_as, dst_as, src_city, dst_city)
        {
            s.push(src_as, meet);
            s.push(dst_as, meet);
            s.push(dst_as, dst_city);
        } else {
            let asn = route::pick_transit(world, params, src_as, dst_as);
            return Plan::Transit {
                asn,
                p_in: lane.nearest_pos(world, asn, src_city),
                p_out: lane.nearest_pos(world, asn, dst_city),
            };
        }
        Plan::Shape(s)
    }

    /// The waypoint list `oracle::synthesize` would emit between two
    /// attachment PoPs.
    // geo-lint: hot-path
    fn shape_of(
        &self,
        world: &World,
        params: &NetParams,
        lane: &WorldLane,
        a: (AsId, CityId),
        b: (AsId, CityId),
    ) -> PathShape {
        match self.plan(world, params, lane, a, b) {
            Plan::Shape(s) => s,
            Plan::Transit { asn, p_in, p_out } => {
                let mut s = PathShape::new();
                s.push(a.0, a.1);
                s.push(asn, lane.pop_at(asn, p_in));
                if p_out != p_in {
                    s.push(asn, lane.pop_at(asn, p_out));
                }
                s.push(b.0, b.1);
                s
            }
        }
    }

    /// The waypoint list `oracle::synthesize` would emit for this pair,
    /// computed allocation-free with dense lanes. Property-tested equal
    /// in `tests/hotpath_equivalence.rs`.
    // geo-lint: hot-path
    pub fn shape(
        &self,
        world: &World,
        params: &NetParams,
        src: Endpoint,
        dst: Endpoint,
    ) -> PathShape {
        let lane = self.lane(world);
        self.shape_of(world, params, lane, attach(world, src), attach(world, dst))
    }

    /// The middle-link addends of one direction between two attaches
    /// (indices into the lane's `attaches`).
    ///
    /// A transit path's links come from two small key spaces, each read
    /// through a lane: the access link (attach, transit), for both the
    /// uplink and the downlink, and the core link (transit, PoP, PoP).
    /// The links are those of the shape `oracle::synthesize` dedups from
    /// `[a, t_in, t_out, b]`: an endpoint attached at the transit's own
    /// nearest PoP merges with it, and `t_out` is pushed only when it
    /// differs from `t_in`. Every slot holds `mid_ms` of exactly its
    /// undirected link, so the addends are bit-identical to the walk over
    /// the shape.
    // geo-lint: hot-path
    fn dir_seq(
        &self,
        world: &World,
        params: &NetParams,
        lane: &WorldLane,
        ai: u32,
        bi: u32,
    ) -> DirSeq {
        let a = lane.attaches[ai as usize];
        let b = lane.attaches[bi as usize];
        match self.plan(world, params, lane, a, b) {
            Plan::Shape(shape) => self.walk(world, params, lane, &shape),
            Plan::Transit { asn, p_in, p_out } => {
                let mut seq = DirSeq::EMPTY;
                let k = lane.transit_k(asn);
                let pop = |p| (asn, lane.pop_at(asn, p));
                let mid = |x, y| self.mid_ms(world, params, lane, x, y);
                // Fill direction: attach → PoP, lower position → higher.
                if a != pop(p_in) {
                    seq.push(memo(lane.link(ai, k), || mid(a, pop(p_in))));
                }
                if p_out != p_in {
                    let (lo, hi) = (p_in.min(p_out), p_in.max(p_out));
                    seq.push(memo(lane.core(k, lo, hi), || mid(pop(lo), pop(hi))));
                }
                if b != pop(p_out) {
                    seq.push(memo(lane.link(bi, k), || mid(b, pop(p_out))));
                }
                seq
            }
        }
    }

    /// The middle-link addends of a waypoint list, one `mid_ms` per link.
    // geo-lint: hot-path
    fn walk(
        &self,
        world: &World,
        params: &NetParams,
        lane: &WorldLane,
        shape: &PathShape,
    ) -> DirSeq {
        let mut seq = DirSeq::EMPTY;
        for w in shape.waypoints().windows(2) {
            seq.push(self.mid_ms(world, params, lane, w[0], w[1]));
        }
        seq
    }

    /// One-way delay along a shape: the shape's middle links folded
    /// around the two endpoint links, in the exact addition order of
    /// `oracle::one_way_delay`.
    // geo-lint: hot-path
    pub fn one_way_ms(
        &self,
        world: &World,
        params: &NetParams,
        src: Endpoint,
        dst: Endpoint,
        shape: &PathShape,
    ) -> f64 {
        let mids = self.walk(world, params, self.lane(world), shape);
        let a = self.endpoint_ms(world, params, src);
        self.fold(params, a, &mids, self.endpoint_ms(world, params, dst))
    }

    /// Folds one direction's addends in the reference order of
    /// `oracle::one_way_delay`: the source's endpoint link, then per
    /// waypoint (processing, next link), then the far endpoint link.
    // geo-lint: hot-path
    #[inline]
    fn fold(&self, params: &NetParams, access_src: f64, seq: &DirSeq, access_dst: f64) -> f64 {
        let mut total = 0.0f64;
        total += access_src;
        total += params.hop_processing_ms;
        for i in 0..seq.len as usize {
            total += seq.mids[i];
            total += params.hop_processing_ms;
        }
        total += access_dst;
        total
    }

    /// A base RTT from both directions' addends between hosts `a` and
    /// `b`: the forward fold plus the reverse fold, as
    /// `oracle::base_rtt` adds its two one-way delays.
    // geo-lint: hot-path
    #[inline]
    fn round_trip(
        &self,
        params: &NetParams,
        access_a: f64,
        fwd: &DirSeq,
        rev: &DirSeq,
        access_b: f64,
    ) -> f64 {
        self.fold(params, access_a, fwd, access_b) + self.fold(params, access_b, rev, access_a)
    }

    /// Base (jitter-free) RTT between two hosts: forward plus reverse
    /// one-way delay, identical bits to `oracle::base_rtt`. Both
    /// directions' addends come from `dir_seq` over the two hosts' attach
    /// indices, as a campaign row's do, so transit links are read from
    /// the link lanes; only a host added after the lane was sized has no
    /// attach index, and its pairs walk the shapes instead. Nothing is
    /// stored per pair: 1.4% of the pings in a publish build of the paper
    /// world repeat a host pair, so a memo costs more in inserts and
    /// memory than the recomputation it saves.
    // geo-lint: hot-path
    pub fn base_rtt_ms(&self, world: &World, params: &NetParams, src: HostId, dst: HostId) -> f64 {
        let lane = self.lane(world);
        let attach_of = |id: HostId| lane.host_attach.get(id.index()).copied();
        let (fwd, rev) = match (attach_of(src), attach_of(dst)) {
            (Some(ai), Some(bi)) => (
                self.dir_seq(world, params, lane, ai, bi),
                self.dir_seq(world, params, lane, bi, ai),
            ),
            _ => {
                let (a, b) = (Endpoint::Host(src), Endpoint::Host(dst));
                let walk = |x, y| self.walk(world, params, lane, &self.shape(world, params, x, y));
                (walk(a, b), walk(b, a))
            }
        };
        let (sa, da) = (
            self.access_ms(world, params, src),
            self.access_ms(world, params, dst),
        );
        self.round_trip(params, sa, &fwd, &rev, da)
    }

    /// Cumulative delays to each waypoint (traceroute hop timing),
    /// replaying `oracle::cumulative_delays` into a caller-owned buffer.
    pub fn cumulative_ms(
        &self,
        world: &World,
        params: &NetParams,
        src: Endpoint,
        shape: &PathShape,
        out: &mut Vec<Ms>,
    ) {
        out.clear();
        let lane = self.lane(world);
        let wps = shape.waypoints();
        if wps.is_empty() {
            return;
        }
        let mut total = 0.0f64;
        total += self.endpoint_ms(world, params, src);
        total += params.hop_processing_ms;
        out.push(Ms(total));
        for w in wps.windows(2) {
            total += self.mid_ms(world, params, lane, w[0], w[1]);
            total += params.hop_processing_ms;
            out.push(Ms(total));
        }
    }
}

/// Per-target constants for a bulk campaign: everything `ping_min`
/// re-derives per call (`host_by_ip`, last-mile profile, access delay,
/// attach index) resolved once per target column.
#[derive(Debug)]
pub struct TargetLane {
    cols: Vec<TargetCol>,
}

impl TargetLane {
    /// Number of target columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the lane has no targets.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct TargetCol {
    host: HostId,
    ip: Ipv4,
    last_mile: LastMile,
    /// Attach index into the world lane, `u32::MAX` if the host was added
    /// after the lane was sized (falls back to `base_rtt_ms` per cell).
    attach: u32,
    /// The host's access-link delay (first/last addend of its base RTT).
    access: f64,
}

/// Reusable per-worker scratch for [`RouteCache::base_row`]: the oriented
/// middle-addend sequences of one source attach against every target
/// column. Rows from sources behind the same attach reuse the filled
/// scratch, so grouping rows by attach amortizes the route synthesis.
///
/// A scratch is only meaningful against the [`TargetLane`] it was last
/// filled for; use a fresh scratch per campaign.
#[derive(Debug)]
pub struct RowScratch {
    /// Source attach index the sequences are oriented for (`u32::MAX` =
    /// unfilled).
    attach: u32,
    /// Per column: (src→target, target→src) middle addends.
    seqs: Vec<(DirSeq, DirSeq)>,
}

impl RowScratch {
    /// An unfilled scratch.
    pub fn new() -> RowScratch {
        RowScratch {
            attach: u32::MAX,
            seqs: Vec::new(),
        }
    }
}

impl Default for RowScratch {
    fn default() -> RowScratch {
        RowScratch::new()
    }
}

impl RouteCache {
    /// Resolves per-target constants for a campaign against `targets`.
    pub fn target_lane(&self, world: &World, params: &NetParams, targets: &[HostId]) -> TargetLane {
        let lane = self.lane(world);
        TargetLane {
            cols: targets
                .iter()
                .map(|&id| {
                    let h = world.host(id);
                    TargetCol {
                        host: id,
                        ip: h.ip,
                        last_mile: h.last_mile,
                        attach: lane
                            .host_attach
                            .get(id.index())
                            .copied()
                            .unwrap_or(u32::MAX),
                        access: self.access_ms(world, params, id),
                    }
                })
                .collect(),
        }
    }

    /// (Re)fills `scratch` with the oriented pair sequences of attach `ai`
    /// against every target column.
    ///
    /// A campaign visits each (source attach, target attach) pair only a
    /// handful of times, and the scratch itself provides that reuse; a
    /// per-pair memo's insert-once entries would cost far more in DRAM
    /// traffic than they save. `dir_seq` is a pure function of the attach
    /// pair, so every row sees the same addends.
    fn fill_scratch(
        &self,
        world: &World,
        params: &NetParams,
        targets: &TargetLane,
        scratch: &mut RowScratch,
        ai: u32,
    ) {
        let lane = self.lane(world);
        scratch.seqs.clear();
        for col in &targets.cols {
            if col.attach == u32::MAX {
                scratch.seqs.push((DirSeq::EMPTY, DirSeq::EMPTY));
                continue;
            }
            scratch.seqs.push((
                self.dir_seq(world, params, lane, ai, col.attach),
                self.dir_seq(world, params, lane, col.attach, ai),
            ));
        }
        scratch.attach = ai;
    }

    /// One campaign row: the base RTT from `src` to every target column,
    /// bit-identical to calling [`RouteCache::base_rtt_ms`] per target.
    /// `emit(col, base, ip, last_mile)` receives each column in order,
    /// skipping `skip` (a self-measurement diagonal).
    ///
    /// The fold per cell reads the scratch sequentially (L2-resident for
    /// campaign-sized target lists); sources behind the attach the scratch
    /// is already filled for skip route synthesis entirely.
    // geo-lint: hot-path
    #[allow(clippy::too_many_arguments)]
    pub fn base_row(
        &self,
        world: &World,
        params: &NetParams,
        targets: &TargetLane,
        scratch: &mut RowScratch,
        src: HostId,
        skip: Option<usize>,
        mut emit: impl FnMut(usize, Ms, Ipv4, LastMile),
    ) {
        let lane = self.lane(world);
        let ai = lane.host_attach.get(src.index()).copied();
        match ai {
            Some(ai) => {
                if scratch.attach != ai {
                    self.fill_scratch(world, params, targets, scratch, ai);
                }
                let sa = self.access_ms(world, params, src);
                for (c, col) in targets.cols.iter().enumerate() {
                    if skip == Some(c) {
                        continue;
                    }
                    let base = if col.attach == u32::MAX {
                        self.base_rtt_ms(world, params, src, col.host)
                    } else {
                        let (f, r) = &scratch.seqs[c];
                        self.round_trip(params, sa, f, r, col.access)
                    };
                    emit(c, Ms(base), col.ip, col.last_mile);
                }
            }
            // Source beyond the lane (added after sizing): per-cell replay.
            None => {
                for (c, col) in targets.cols.iter().enumerate() {
                    if skip == Some(c) {
                        continue;
                    }
                    let base = self.base_rtt_ms(world, params, src, col.host);
                    emit(c, Ms(base), col.ip, col.last_mile);
                }
            }
        }
    }

    /// The attach-group key of a host: rows of a campaign sorted by this
    /// key maximize [`RowScratch`] reuse (hosts behind the same attachment
    /// PoP share every pair sequence). Hosts beyond the lane sort last.
    pub fn attach_group(&self, world: &World, id: HostId) -> u32 {
        let lane = self.lane(world);
        lane.host_attach
            .get(id.index())
            .copied()
            .unwrap_or(u32::MAX)
    }
}

fn compute_access_ms(world: &World, params: &NetParams, id: HostId) -> f64 {
    let h = world.host(id);
    let wp = Waypoint {
        asn: h.asn,
        city: h.city,
    };
    delay::link_delay(
        params,
        &h.location,
        &wp.location(world),
        delay::link_key(
            delay::endpoint_tag(Endpoint::Host(id)),
            delay::waypoint_tag(&wp),
        ),
    )
    .value()
}

/// Precomputed per-packet noise distributions. The oracle
/// (`oracle::jitter`, `oracle::last_mile`, `oracle::icmp_slowpath`)
/// reconstructs each lognormal — including an `ln()` — per packet;
/// the distributions are plain `{mu, sigma}` data, so hoisting them
/// preserves every sampled bit.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    loss_rate: f64,
    hop_unresponsive_rate: f64,
    /// `None` replays the `median <= 0.0` zero-jitter gate.
    jitter: Option<LogNormal>,
    /// `None` replays the `median <= 0.0` zero-slow-path gate.
    icmp: Option<LogNormal>,
    /// `LastMile::Negligible` delay distribution.
    negligible: LogNormal,
    /// Multiplicative variation around `LastMile::Access` line delay.
    access_var: LogNormal,
}

impl NoiseModel {
    /// Precomputes the noise distributions for the given parameters.
    pub fn new(params: &NetParams) -> NoiseModel {
        NoiseModel {
            loss_rate: params.loss_rate,
            hop_unresponsive_rate: params.hop_unresponsive_rate,
            jitter: (params.jitter_median_ms > 0.0)
                .then(|| LogNormal::with_median(params.jitter_median_ms, params.jitter_sigma)),
            icmp: (params.icmp_slowpath_median_ms > 0.0).then(|| {
                LogNormal::with_median(params.icmp_slowpath_median_ms, params.icmp_slowpath_sigma)
            }),
            negligible: LogNormal::with_median(0.08, 0.6),
            access_var: LogNormal::new(0.0, 0.12),
        }
    }

    /// `oracle::unit_sample` with a precomputed domain hash.
    // geo-lint: hot-path
    #[inline]
    fn unit(seed: Seed, key: u64, domain_hash: u64) -> f64 {
        let h = splitmix64(seed.0 ^ splitmix64(key ^ domain_hash));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Per-packet jitter (bit-identical to `oracle::jitter`).
    // geo-lint: hot-path
    pub fn jitter(&self, seed: Seed, key: u64) -> Ms {
        match &self.jitter {
            None => Ms::ZERO,
            Some(d) => {
                let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ H_JITTER));
                Ms(d.sample(&mut rng))
            }
        }
    }

    /// Per-reply ICMP slow-path delay (`oracle::icmp_slowpath`).
    // geo-lint: hot-path
    pub fn icmp_slowpath(&self, seed: Seed, key: u64) -> Ms {
        match &self.icmp {
            None => Ms::ZERO,
            Some(d) => {
                let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ H_ICMP));
                Ms(d.sample(&mut rng))
            }
        }
    }

    /// Per-packet last-mile sample (`oracle::last_mile`).
    // geo-lint: hot-path
    pub fn last_mile(&self, profile: LastMile, seed: Seed, key: u64) -> Ms {
        let mut rng = KeyRng::new(seed.0 ^ splitmix64(key ^ H_LAST_MILE));
        match profile {
            LastMile::Negligible => Ms(self.negligible.sample(&mut rng)),
            LastMile::Access { mean_ms } => Ms(mean_ms * self.access_var.sample(&mut rng)),
        }
    }

    /// Whether a traceroute hop answers (`oracle::unit_sample` gate).
    // geo-lint: hot-path
    pub fn hop_responds(&self, seed: Seed, hop_key: u64) -> bool {
        NoiseModel::unit(seed, hop_key, H_HOP_RESPONDS) >= self.hop_unresponsive_rate
    }

    /// One packet's outcome on top of a known base RTT, with the endpoint
    /// last-mile profiles hoisted out of the per-packet loop
    /// (`oracle::packet_outcome` re-reads them per packet; the values are
    /// per-host constants).
    // geo-lint: hot-path
    pub fn packet(
        &self,
        seed: Seed,
        src_lm: LastMile,
        dst_lm: LastMile,
        base: Ms,
        key: u64,
    ) -> PingOutcome {
        if NoiseModel::unit(seed, key, H_LOSS) < self.loss_rate {
            return PingOutcome::Timeout;
        }
        let src_lm = self.last_mile(src_lm, seed, key ^ 0x51);
        let dst_lm = self.last_mile(dst_lm, seed, key ^ 0xD5);
        let j = self.jitter(seed, key);
        PingOutcome::Reply(base + src_lm + dst_lm + j)
    }

    /// Minimum RTT over `count` packets (`oracle::ping_min_with_base`).
    // geo-lint: hot-path
    #[allow(clippy::too_many_arguments)]
    pub fn ping_min(
        &self,
        seed: Seed,
        src: HostId,
        dst: Ipv4,
        src_lm: LastMile,
        dst_lm: LastMile,
        base: Ms,
        count: usize,
        nonce: u64,
    ) -> PingOutcome {
        let mut best: Option<Ms> = None;
        for i in 0..count {
            let key = measure::measurement_key(src, dst, splitmix64(nonce ^ i as u64));
            if let PingOutcome::Reply(ms) = self.packet(seed, src_lm, dst_lm, base, key) {
                best = Some(match best {
                    Some(b) => b.min(ms),
                    None => ms,
                });
            }
        }
        match best {
            Some(ms) => PingOutcome::Reply(ms),
            None => PingOutcome::Timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use world_sim::WorldConfig;

    /// The premise of one lane slot per undirected link: `mid_ms` gives
    /// the same bits in both directions for every access link (each attach
    /// with each transit AS's PoP nearest to it) and every core link (each
    /// PoP pair of each transit AS) of the small world's transit pool.
    #[test]
    fn mid_ms_is_symmetric_on_every_transit_link() {
        let w = World::generate(WorldConfig::small(Seed(351))).expect("small preset");
        let params = NetParams::default();
        let cache = RouteCache::new(&params);
        let lane = cache.lane(&w);
        let mut links = 0;
        let mut same = |x, y| {
            let fwd = cache.mid_ms(&w, &params, lane, x, y);
            let rev = cache.mid_ms(&w, &params, lane, y, x);
            assert_eq!(fwd.to_bits(), rev.to_bits(), "{x:?} <-> {y:?}");
            links += 1;
        };
        for &t in w.transit_pool() {
            for &a in &lane.attaches {
                let p = lane.nearest_pos(&w, t, a.1);
                same(a, (t, lane.pop_at(t, p)));
            }
            let pops = lane.pops(t);
            for (q, &hi) in pops.iter().enumerate() {
                for &lo in &pops[..q] {
                    same((t, CityId(lo)), (t, CityId(hi)));
                }
            }
        }
        assert!(links > 2000, "only {links} links compared");
    }
}
