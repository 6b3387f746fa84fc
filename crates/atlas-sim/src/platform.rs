//! The anchor-mesh download.
//!
//! RIPE Atlas runs pings between all of its anchors around the clock and
//! publishes the results; §4.3's sanitizer consumes that mesh. [`Platform`]
//! models downloading one dump of it: the download charges the credits of
//! every ordered pair's ping, advances the virtual clock by one API round
//! trip — the paper's §5.2.5 observation that fetching results "generally
//! takes a few minutes" — and returns deterministic RTTs from `net-sim`.
//!
//! The other platform constraints live where they are consumed: per-batch
//! credits and retries in `ipgeo::resilient` (`CreditLog`), probing rates in
//! [`crate::traffic`], and the per-target API time of the street-level
//! technique in `ipgeo::street::StreetConfig::api_round_secs`.

use crate::clock::VirtualClock;
use crate::credits::{CreditAccount, InsufficientCredits};
use geo_model::distr::{LogNormal, Sample};
use geo_model::matrix::DelayMatrix;
use geo_model::rng::KeyRng;
use net_sim::Network;
use world_sim::ids::HostId;
use world_sim::World;

/// Packets per ping measurement (RIPE Atlas default).
const PACKETS_PER_PING: usize = 3;

/// Median API round trip (create measurement + fetch results), seconds:
/// "it generally takes a few minutes to get the results of a measurement"
/// (§5.2.5).
const API_MEDIAN_SECS: f64 = 150.0;

/// Log-scale sigma of the API round trip.
const API_SIGMA: f64 = 0.4;

/// The measurement platform, as the anchor-mesh download sees it.
#[derive(Debug, Clone)]
pub struct Platform {
    clock: VirtualClock,
    credits: CreditAccount,
    nonce: u64,
}

impl Platform {
    /// A platform with the given credit account.
    pub fn new(credits: CreditAccount) -> Platform {
        Platform {
            clock: VirtualClock::new(),
            credits,
            nonce: 0,
        }
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The credit account.
    pub fn credits(&self) -> &CreditAccount {
        &self.credits
    }

    /// The meshed anchor-to-anchor RTT measurements that RIPE Atlas
    /// publishes and §4.3's sanitizer consumes. Cell `(i, j)` is the
    /// min-RTT from `anchors[i]` to `anchors[j]` over 3 packets with nonce
    /// `nonce ^ (i << 32 | j)` (NaN on the diagonal or on a timeout), in
    /// the `f64` staging format the sanitizer reads directly, measured by
    /// `Network::campaign` on the worker pool.
    ///
    /// Each call draws the next nonce (1, 2, …) and charges every ordered
    /// pair's ping; a mesh the account cannot pay is refused before
    /// anything is measured or any time passes.
    pub fn anchor_mesh(
        &mut self,
        world: &World,
        net: &Network,
        anchors: &[HostId],
    ) -> Result<DelayMatrix, InsufficientCredits> {
        let n = anchors.len();
        self.credits
            .charge_pings((n * n.saturating_sub(1) * PACKETS_PER_PING) as u64)?;
        self.nonce += 1;
        let nonce = self.nonce;
        let mesh = net.campaign(
            world,
            anchors,
            anchors,
            n,
            PACKETS_PER_PING,
            |i, j| nonce ^ ((i as u64) << 32 | j as u64),
            Some, // the diagonal stays NaN
            |row, j, out| row[j] = DelayMatrix::cell(out.rtt()),
        );
        // The mesh runs continuously in the background on real Atlas; the
        // clock models downloading a day's dump, not waiting for it.
        let mut rng = KeyRng::new(net.seed().derive_index("api-latency", nonce).0);
        self.clock
            .advance(LogNormal::with_median(API_MEDIAN_SECS, API_SIGMA).sample(&mut rng));
        Ok(mesh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network, Platform) {
        let w = World::generate(WorldConfig::small(Seed(121))).unwrap();
        let net = Network::new(Seed(121));
        let platform = Platform::new(CreditAccount::upgraded());
        (w, net, platform)
    }

    /// The mesh charges 3 credits per ordered pair; one the account cannot
    /// pay is refused, with the error `ipgeo sanitize` prints, nothing
    /// charged and no virtual time spent.
    #[test]
    fn charges_credits() {
        let (w, net, _) = setup();
        let mut p = Platform::new(CreditAccount::new(100));
        // 5 anchors * 4 peers * 3 packets = 60 credits.
        let anchors = &w.anchors[..5];
        p.anchor_mesh(&w, &net, anchors).unwrap();
        assert_eq!(p.credits().balance(), 40);
        let now = p.clock().now_secs();
        let err = p.anchor_mesh(&w, &net, anchors).unwrap_err();
        assert_eq!(err.to_string(), "insufficient credits: need 60, have 40");
        assert_eq!(p.credits().balance(), 40);
        assert_eq!(p.clock().now_secs(), now);
    }

    #[test]
    fn mesh_has_expected_shape() {
        let (w, net, mut p) = setup();
        let anchors: Vec<_> = w.anchors.iter().copied().take(8).collect();
        let mesh = p.anchor_mesh(&w, &net, &anchors).unwrap();
        assert_eq!(mesh.rows(), 8);
        assert_eq!(mesh.cols(), 8);
        let mut measured = 0;
        for i in 0..8 {
            assert!(mesh.get(i, i).is_none(), "diagonal must be empty");
            measured += (0..8).filter(|&j| mesh.get(i, j).is_some()).count();
        }
        assert!(measured > 40, "mesh mostly failed: {measured}");
    }

    /// Two meshes over every anchor of the small world, pinned across
    /// commits: FNV-1a over each mesh's dimensions and every cell's bits
    /// (NaN diagonal and timeouts included), then the credits spent and
    /// the bits of the virtual clock. The second call pins the nonce and
    /// API-latency draw sequence as well.
    #[test]
    fn mesh_matches_pinned_digest() {
        let (w, net, mut p) = setup();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for _ in 0..2 {
            let m = p.anchor_mesh(&w, &net, &w.anchors).unwrap();
            eat(m.rows() as u64);
            eat(m.cols() as u64);
            (0..m.rows()).for_each(|r| m.row(r).iter().for_each(|c| eat(c.to_bits())));
        }
        let n = w.anchors.len() as u64;
        assert_eq!(p.credits().spent(), 2 * n * (n - 1) * 3);
        eat(p.credits().spent());
        eat(p.clock().now_secs().to_bits());
        assert_eq!(h, 0x43cd_2062_c6e1_be16, "mesh digest {h:#018x}");
    }

    /// The mesh cell by cell against one `ping_min` per ordered pair,
    /// keyed `nonce ^ (i << 32 | j)`: a timeout leaves its cell NaN like
    /// the diagonal.
    #[test]
    fn mesh_matches_per_pair_pings() {
        let (w, net, mut p) = setup();
        let anchors: Vec<_> = w.anchors.iter().copied().take(12).collect();
        let mesh = p.anchor_mesh(&w, &net, &anchors).unwrap();
        for (i, &src) in anchors.iter().enumerate() {
            for (j, &dst) in anchors.iter().enumerate() {
                let pair = p.nonce ^ ((i as u64) << 32 | j as u64);
                let want = (i != j)
                    .then(|| net.ping_min(&w, src, w.host(dst).ip, PACKETS_PER_PING, pair))
                    .and_then(|out| out.rtt());
                let bits = |v: Option<geo_model::units::Ms>| v.map(|m| m.value().to_bits());
                assert_eq!(bits(mesh.get(i, j)), bits(want), "cell ({i}, {j})");
            }
        }
    }
}
