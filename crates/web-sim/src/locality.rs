//! The locality tests of the street-level paper (§3.2 there, §5.2.2 in the
//! replication).
//!
//! A candidate website only becomes a landmark if it appears to be served
//! from its owner's postal address. Three checks approximate that:
//!
//! 1. **zip consistency** — the entity's registered postal code must match
//!    the zip code of the sampled circle point; stale addresses fail;
//! 2. **hosting fingerprint** — one DNS query plus two HTTP fetches look
//!    for CDN/cloud serving fingerprints (headers, certificate chains,
//!    resolved-AS ownership). Detection is good but not perfect, which is
//!    why some far-hosted sites survive into the landmark set — and why
//!    Fig. 5b's latency check removes a further slice;
//! 3. **multi-zip appearance** — a website listed by entities in more than
//!    one zip code is a chain, not a locally hosted site.
//!
//! The tester counts DNS queries and fetches: the replication ran
//! 2,755,315 tests, a real scalability cost (§5.2.5).

use crate::ecosystem::{Entity, Hosting, WebEcosystem};
use geo_model::rng::{fnv1a, splitmix64, Seed};
use geo_model::units::Ms;
use net_sim::{Network, PingOutcome};
use world_sim::ids::ZipCode;
use world_sim::World;

/// Detection characteristics of the hosting-fingerprint test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestRates {
    /// Probability a CDN-served site is detected (and rejected).
    pub cdn_detection: f64,
    /// Probability a cloud-served site is detected (and rejected).
    pub cloud_detection: f64,
    /// Probability a genuinely local site is wrongly rejected.
    pub local_false_reject: f64,
    /// Fraction of entities whose registered postal address is stale
    /// (fails the zip-consistency test).
    pub stale_address: f64,
}

impl Default for TestRates {
    fn default() -> TestRates {
        TestRates {
            cdn_detection: 0.985,
            cloud_detection: 0.95,
            local_false_reject: 0.03,
            stale_address: 0.04,
        }
    }
}

/// Runs locality tests and accounts their cost.
#[derive(Debug, Clone)]
pub struct LocalityTester {
    seed: Seed,
    rates: TestRates,
    tests_run: u64,
    dns_queries: u64,
    http_fetches: u64,
}

/// The verdict of the three tests for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Passed all three tests: usable as a landmark.
    Landmark,
    /// Rejected by the zip-consistency test.
    ZipMismatch,
    /// Rejected by the hosting-fingerprint test.
    HostingFingerprint,
    /// Rejected by the multi-zip test.
    MultiZip,
}

impl LocalityTester {
    /// A tester with default rates.
    pub fn new(seed: Seed) -> LocalityTester {
        LocalityTester::with_rates(seed, TestRates::default())
    }

    /// A tester with explicit rates.
    pub fn with_rates(seed: Seed, rates: TestRates) -> LocalityTester {
        LocalityTester {
            seed: seed.derive("locality-tests"),
            rates,
            tests_run: 0,
            dns_queries: 0,
            http_fetches: 0,
        }
    }

    /// Number of candidates tested.
    pub fn tests_run(&self) -> u64 {
        self.tests_run
    }

    /// DNS queries issued (one per test).
    pub fn dns_queries(&self) -> u64 {
        self.dns_queries
    }

    /// HTTP fetches issued (two per test).
    pub fn http_fetches(&self) -> u64 {
        self.http_fetches
    }

    fn unit(&self, domain: &str, key: u64) -> f64 {
        let h = splitmix64(self.seed.0 ^ splitmix64(key ^ fnv1a(domain.as_bytes())));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Tests one candidate entity found via `queried_zip`.
    pub fn test(&mut self, eco: &WebEcosystem, entity: &Entity, queried_zip: ZipCode) -> Verdict {
        self.tests_run += 1;
        self.dns_queries += 1;
        self.http_fetches += 2;

        // Test 1: zip consistency. The entity's registered zip must match
        // the queried one; stale registrations fail regardless.
        let stale = self.unit("stale-address", entity.id.0 as u64) < self.rates.stale_address;
        if stale || entity.zip != queried_zip {
            return Verdict::ZipMismatch;
        }

        // Test 3 runs before the fetch result is interpreted in practice
        // (the paper checks its query cache): multi-zip appearance.
        let site = eco.website(entity.website);
        if site.zip_appearances > 1 {
            return Verdict::MultiZip;
        }

        // Test 2: hosting fingerprint.
        let detected = match site.hosting {
            Hosting::Local => {
                self.unit("fingerprint-local", site.id.0 as u64) < self.rates.local_false_reject
            }
            Hosting::Cdn => {
                self.unit("fingerprint-cdn", site.id.0 as u64) < self.rates.cdn_detection
            }
            Hosting::Cloud => {
                self.unit("fingerprint-cloud", site.id.0 as u64) < self.rates.cloud_detection
            }
        };
        if detected {
            return Verdict::HostingFingerprint;
        }
        Verdict::Landmark
    }

    /// The replication's additional latency check (Fig. 5b): ping the
    /// landmark's website from the target anchor and keep it only if the
    /// RTT is below 1 ms.
    pub fn latency_check(
        &self,
        world: &World,
        net: &Network,
        eco: &WebEcosystem,
        target: world_sim::ids::HostId,
        entity: &Entity,
    ) -> bool {
        let site = eco.website(entity.website);
        let ip = world.host(site.server).ip;
        match net.ping_min(world, target, ip, 3, splitmix64(entity.id.0 as u64)) {
            PingOutcome::Reply(rtt) => rtt < Ms(1.0),
            PingOutcome::Timeout => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::{WebConfig, WebEcosystem};
    use world_sim::{World, WorldConfig};

    fn build() -> (World, WebEcosystem) {
        let mut w = World::generate(WorldConfig::small(Seed(161))).unwrap();
        let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).unwrap();
        (w, eco)
    }

    #[test]
    fn pass_rate_is_a_small_fraction() {
        let (w, eco) = build();
        let mut tester = LocalityTester::new(Seed(161));
        let mut passed = 0;
        let mut total = 0;
        for e in &eco.entities {
            total += 1;
            if tester.test(&eco, e, e.zip) == Verdict::Landmark {
                passed += 1;
            }
        }
        let rate = passed as f64 / total as f64;
        assert!(
            (0.005..0.12).contains(&rate),
            "pass rate {rate} out of expected band"
        );
        assert_eq!(tester.tests_run(), total as u64);
        assert_eq!(tester.dns_queries(), total as u64);
        assert_eq!(tester.http_fetches(), 2 * total as u64);
        let _ = w;
    }

    #[test]
    fn most_passed_are_local_most_local_pass() {
        let (_, eco) = build();
        let mut tester = LocalityTester::new(Seed(161));
        let mut local_pass = 0;
        let mut local_total = 0;
        let mut passed_local = 0;
        let mut passed_total = 0;
        for e in &eco.entities {
            let site = eco.website(e.website);
            let v = tester.test(&eco, e, e.zip);
            if site.hosting == Hosting::Local && site.zip_appearances == 1 {
                local_total += 1;
                if v == Verdict::Landmark {
                    local_pass += 1;
                }
            }
            if v == Verdict::Landmark {
                passed_total += 1;
                if site.hosting == Hosting::Local {
                    passed_local += 1;
                }
            }
        }
        assert!(local_total > 0 && passed_total > 0);
        assert!(
            local_pass as f64 / local_total as f64 > 0.85,
            "too many local sites rejected"
        );
        assert!(
            passed_local as f64 / passed_total as f64 > 0.25,
            "passed set dominated by false landmarks"
        );
    }

    #[test]
    fn wrong_zip_always_fails() {
        let (_, eco) = build();
        let mut tester = LocalityTester::new(Seed(161));
        let e = &eco.entities[0];
        let other = eco
            .entities
            .iter()
            .find(|x| x.zip != e.zip)
            .expect("several zips exist");
        assert_eq!(tester.test(&eco, e, other.zip), Verdict::ZipMismatch);
    }

    #[test]
    fn chains_fail_multizip() {
        let (_, eco) = build();
        let mut tester = LocalityTester::new(Seed(161));
        let chain_entity = eco
            .entities
            .iter()
            .find(|e| eco.website(e.website).zip_appearances > 1)
            .expect("chains exist");
        let v = tester.test(&eco, chain_entity, chain_entity.zip);
        assert!(matches!(v, Verdict::MultiZip | Verdict::ZipMismatch));
    }

    #[test]
    fn verdicts_are_deterministic() {
        let (_, eco) = build();
        let mut t1 = LocalityTester::new(Seed(7));
        let mut t2 = LocalityTester::new(Seed(7));
        for e in eco.entities.iter().take(300) {
            assert_eq!(t1.test(&eco, e, e.zip), t2.test(&eco, e, e.zip));
        }
    }

    #[test]
    fn latency_check_accepts_same_city_local_sites() {
        let (w, eco) = build();
        let tester = LocalityTester::new(Seed(161));
        let net = Network::new(Seed(161));
        // Find an anchor and a local website in its city.
        let mut any_checked = false;
        for &aid in &w.anchors {
            let anchor = w.host(aid);
            for e in eco.entities_in_city(anchor.city) {
                let site = eco.website(e.website);
                if site.hosting == Hosting::Local {
                    let _ = tester.latency_check(&w, &net, &eco, aid, e);
                    any_checked = true;
                    break;
                }
            }
            if any_checked {
                break;
            }
        }
        // The check itself must at least be runnable on this world.
        assert!(any_checked, "no local site co-located with an anchor");
    }
}
