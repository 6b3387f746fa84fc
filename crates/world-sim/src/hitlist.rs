//! The responsiveness hitlist (the ISI hitlist of §4.1.3).
//!
//! For each target `/24` the hitlist knows which addresses have answered
//! probes historically, with a responsiveness score. The million-scale VP
//! selection picks the three highest-scoring representatives per prefix;
//! for a few prefixes fewer than three addresses are responsive and the
//! pipeline falls back to random addresses in the /24 (which time out),
//! exactly as the paper reports for 8 of its targets.

use crate::host::{HostKind, HostPopulation};
use crate::ids::HostId;
use geo_model::ip::{Ipv4, Prefix24};
use rand::Rng;
use std::collections::BTreeMap;

/// One hitlist entry: an address with a responsiveness score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitlistEntry {
    /// The address.
    pub ip: Ipv4,
    /// The host behind the address, if any is simulated.
    pub host: Option<HostId>,
    /// Responsiveness score in `[0, 99]`; 0 means the address never
    /// answered.
    pub score: u8,
}

/// The full hitlist: entries per /24.
///
/// Keyed by a `BTreeMap`: `build` consumes randomness while walking the
/// prefixes, so the walk order must be deterministic — with a hash map the
/// set of sparse prefixes would differ from run to run (geo-lint: D2).
#[derive(Debug, Clone, Default)]
pub struct Hitlist {
    per_prefix: BTreeMap<Prefix24, Vec<HitlistEntry>>,
}

/// Fraction of prefixes with fewer than three responsive addresses.
const SPARSE_PREFIX_FRACTION: f64 = 0.012;

impl Hitlist {
    /// Builds the hitlist from the host population: every representative
    /// host gets a score; a small fraction of prefixes is made sparse.
    pub fn build<R: Rng + ?Sized>(pop: &HostPopulation, rng: &mut R) -> Hitlist {
        let mut per_prefix: BTreeMap<Prefix24, Vec<HitlistEntry>> = BTreeMap::new();
        for h in &pop.hosts {
            if h.kind != HostKind::Representative {
                continue;
            }
            per_prefix
                .entry(h.ip.prefix24())
                .or_default()
                .push(HitlistEntry {
                    ip: h.ip,
                    host: Some(h.id),
                    score: rng.gen_range(1..=99),
                });
        }
        // Make some prefixes sparse: zero out all but one or two scores.
        for entries in per_prefix.values_mut() {
            entries.sort_by(|a, b| b.score.cmp(&a.score).then(a.ip.cmp(&b.ip)));
            if rng.gen::<f64>() < SPARSE_PREFIX_FRACTION {
                let keep = rng.gen_range(1..=2usize);
                for e in entries.iter_mut().skip(keep) {
                    e.score = 0;
                }
            }
        }
        Hitlist { per_prefix }
    }

    /// The top-`n` responsive representatives of a prefix, best score
    /// first. May return fewer than `n`.
    pub fn representatives(&self, prefix: Prefix24, n: usize) -> Vec<HitlistEntry> {
        self.per_prefix
            .get(&prefix)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|e| e.score > 0)
                    .take(n)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Fills a representative list up to `n` with random (unscored,
    /// almost certainly unresponsive) addresses from the prefix — the
    /// paper's fallback for its 8 sparse targets.
    pub fn fill_with_random<R: Rng + ?Sized>(
        &self,
        prefix: Prefix24,
        mut reps: Vec<HitlistEntry>,
        n: usize,
        rng: &mut R,
    ) -> Vec<HitlistEntry> {
        while reps.len() < n {
            let byte: u8 = rng.gen_range(2..250);
            let ip = prefix.host(byte);
            if reps.iter().any(|e| e.ip == ip) {
                continue;
            }
            reps.push(HitlistEntry {
                ip,
                host: None,
                score: 0,
            });
        }
        reps
    }

    /// Number of prefixes known to the hitlist.
    pub fn len(&self) -> usize {
        self.per_prefix.len()
    }

    /// True if the hitlist is empty.
    pub fn is_empty(&self) -> bool {
        self.per_prefix.is_empty()
    }

    /// Iterates over all prefixes.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix24> + '_ {
        self.per_prefix.keys().copied()
    }

    /// Resolves the simulated host behind an address, if any.
    pub fn host_of(&self, ip: Ipv4) -> Option<HostId> {
        self.per_prefix
            .get(&ip.prefix24())?
            .iter()
            .find(|e| e.ip == ip)?
            .host
    }

    /// Looks up hosts for test assertions: all entries of a prefix.
    pub fn entries(&self, prefix: Prefix24) -> &[HitlistEntry] {
        self.per_prefix.get(&prefix).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::generate_ases;
    use crate::city::generate_cities;
    use crate::config::WorldConfig;
    use crate::host::generate_hosts;
    use geo_model::rng::Seed;

    fn build() -> (HostPopulation, Hitlist) {
        let cfg = WorldConfig::small(Seed(41));
        let mut rng = cfg.seed.derive("world").rng();
        let (cities, _) = generate_cities(&cfg, &mut rng);
        let mut ases = generate_ases(&cfg, &cities, &mut rng);
        let pop = generate_hosts(&cfg, &cities, &mut ases, &mut rng);
        let hitlist = Hitlist::build(&pop, &mut rng);
        (pop, hitlist)
    }

    #[test]
    fn covers_every_anchor_prefix() {
        let (pop, hitlist) = build();
        assert_eq!(hitlist.len(), pop.anchors.len());
        for &aid in &pop.anchors {
            let prefix = pop.hosts[aid.index()].ip.prefix24();
            let reps = hitlist.representatives(prefix, 3);
            assert!(!reps.is_empty(), "no representatives for {prefix}");
        }
    }

    #[test]
    fn representatives_sorted_by_score() {
        let (pop, hitlist) = build();
        let prefix = pop.hosts[pop.anchors[0].index()].ip.prefix24();
        let reps = hitlist.representatives(prefix, 5);
        for w in reps.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for r in &reps {
            assert!(r.score > 0);
            assert!(prefix.contains(r.ip));
        }
    }

    #[test]
    fn fill_with_random_completes_to_n() {
        let (pop, hitlist) = build();
        let prefix = pop.hosts[pop.anchors[0].index()].ip.prefix24();
        let mut rng = Seed(42).derive("fill").rng();
        let reps = hitlist.representatives(prefix, 3);
        let filled = hitlist.fill_with_random(prefix, reps, 7, &mut rng);
        assert_eq!(filled.len(), 7);
        let mut ips: Vec<Ipv4> = filled.iter().map(|e| e.ip).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), 7, "random fill produced duplicates");
    }

    #[test]
    fn host_resolution() {
        let (pop, hitlist) = build();
        let prefix = pop.hosts[pop.anchors[0].index()].ip.prefix24();
        let reps = hitlist.representatives(prefix, 3);
        for r in &reps {
            let hid = hitlist.host_of(r.ip).unwrap();
            assert_eq!(pop.hosts[hid.index()].ip, r.ip);
        }
        // Unknown address resolves to none.
        assert!(hitlist.host_of(prefix.host(251)).is_none());
    }

    #[test]
    fn unknown_prefix_is_empty() {
        let (_, hitlist) = build();
        let bogus = Ipv4::from_octets(240, 0, 0, 0).prefix24();
        assert!(hitlist.representatives(bogus, 3).is_empty());
        assert!(hitlist.entries(bogus).is_empty());
    }
}
