//! The paper's motivating deliverable: an *accurate, complete,
//! explainable* geolocation dataset.
//!
//! §2 argues that no public dataset satisfies all three criteria, and §6
//! closes with the recipe the community could use — combine latency
//! measurements with public hints. This module assembles exactly that:
//! for every requested prefix it records the **estimate, the technique
//! that produced it, and the evidence** (which VP, which hint), so each
//! entry can be audited — the explainability the commercial databases
//! lack.

use crate::cbg::{cbg, vp_measurements};
use crate::resilient::{self, CampaignReport, Resilience, TargetLog};
use geo_model::ip::Prefix24;
use geo_model::point::GeoPoint;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Ms;
use net_sim::Network;
use std::fmt;
use world_sim::ids::HostId;
use world_sim::World;

/// How an entry's location was derived — the explainability record.
#[derive(Debug, Clone, PartialEq)]
pub enum Evidence {
    /// Self-published RFC 9092 geofeed entry.
    Geofeed,
    /// Reverse-DNS hostname hint on a host inside the prefix.
    DnsHint {
        /// The hostname carrying the hint.
        hostname: String,
    },
    /// Latency-based: CBG over the given number of vantage points, with
    /// the tightest constraint listed.
    Latency {
        /// Vantage points that answered.
        vps: usize,
        /// The lowest RTT observed.
        best_rtt: Ms,
        /// The VP behind the tightest constraint.
        best_vp: HostId,
    },
    /// WHOIS registration city — the weakest fallback.
    Whois,
    /// Multi-source fusion (`geo-hints`): CBG constraints combined with a
    /// latency-verified rDNS hint and a commercial-DB prior, scored into
    /// one confidence.
    Fused {
        /// Combined confidence in `[0, 1]` (noisy-or over the sources).
        confidence: f64,
        /// Bitmask of the sources that agreed (see [`fused_sources`]).
        sources: u8,
        /// Vantage points behind the CBG constraint region.
        vps: usize,
        /// The lowest RTT observed.
        best_rtt: Ms,
        /// The VP behind the tightest constraint.
        best_vp: HostId,
        /// The rDNS hostname whose hint survived verification, if any.
        hostname: Option<String>,
    },
}

/// Source bits of [`Evidence::Fused`].
pub mod fused_sources {
    /// The CBG constraint region contributed.
    pub const CBG: u8 = 1;
    /// A latency-verified rDNS hint contributed.
    pub const HINT: u8 = 2;
    /// The commercial-DB prior agreed with the chosen location.
    pub const DB_PRIOR: u8 = 4;
    /// A street-level tier estimate agreed.
    pub const STREET: u8 = 8;

    /// Human/CSV label for a mask, e.g. `cbg+hint+db`.
    pub fn label(mask: u8) -> String {
        let mut parts = Vec::new();
        for (bit, name) in [
            (CBG, "cbg"),
            (HINT, "hint"),
            (DB_PRIOR, "db"),
            (STREET, "street"),
        ] {
            if mask & bit != 0 {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl Evidence {
    /// Machine-readable method label.
    pub fn method(&self) -> &'static str {
        match self {
            Evidence::Geofeed => "geofeed",
            Evidence::DnsHint { .. } => "dns-hint",
            Evidence::Latency { .. } => "latency-cbg",
            Evidence::Whois => "whois",
            Evidence::Fused { .. } => "fused",
        }
    }

    /// Confidence in `[0, 1]` that the entry's location is city-accurate.
    /// Legacy methods carry the fixed priors of their evidence class
    /// (geofeeds and DNS hints mirror `world-sim`'s accuracy constants);
    /// fused entries carry the score the fusion estimator computed.
    pub fn confidence(&self) -> f64 {
        match self {
            Evidence::Geofeed => 0.95,
            Evidence::DnsHint { .. } => 0.90,
            Evidence::Latency { .. } => 0.70,
            Evidence::Whois => 0.30,
            Evidence::Fused { confidence, .. } => *confidence,
        }
    }

    /// The evidence trail behind the method, as a single CSV-safe field:
    /// `key=value` pairs joined by `;` (never a comma), `-` when the
    /// method carries no measurement detail (geofeed, WHOIS).
    pub fn detail(&self) -> String {
        match self {
            Evidence::Geofeed | Evidence::Whois => "-".to_string(),
            Evidence::DnsHint { hostname } => format!("hostname={hostname}"),
            Evidence::Latency {
                vps,
                best_rtt,
                best_vp,
            } => format!(
                "vps={vps};best_rtt_ms={:.3};best_vp={best_vp}",
                best_rtt.value()
            ),
            Evidence::Fused {
                sources,
                vps,
                best_rtt,
                best_vp,
                hostname,
                ..
            } => {
                let mut s = format!(
                    "sources={};vps={vps};best_rtt_ms={:.3};best_vp={best_vp}",
                    fused_sources::label(*sources),
                    best_rtt.value()
                );
                if let Some(name) = hostname {
                    s.push_str(";hostname=");
                    s.push_str(name);
                }
                s
            }
        }
    }
}

/// One dataset entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// The prefix this entry covers.
    pub prefix: Prefix24,
    /// Estimated location.
    pub location: GeoPoint,
    /// The evidence trail.
    pub evidence: Evidence,
}

impl fmt::Display for DatasetEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{:.4},{:.4},{},{:.2},{}",
            self.prefix,
            self.location.lat(),
            self.location.lon(),
            self.evidence.method(),
            self.evidence.confidence(),
            self.evidence.detail()
        )
    }
}

/// Builds the public dataset for the given prefixes, preferring the most
/// reliable evidence: geofeed → DNS hint → latency (CBG over the supplied
/// vantage points, pinged through the resilient executor) → WHOIS.
/// Returns the per-campaign accounting alongside the entries.
///
/// Each prefix is resolved independently — a pure function of
/// `(world, net, res, vps, prefix, nonce)` — so the campaign fans out over
/// [`geo_model::runtime::par_map_indexed`] and the result is bit-identical
/// at any `IPGEO_THREADS` setting. The network's lanes are built first, on
/// the calling thread ([`Network::prepare`]).
pub fn build_dataset(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    prefixes: &[Prefix24],
    nonce: u64,
) -> (Vec<DatasetEntry>, CampaignReport) {
    net.prepare(world);
    let per: Vec<(Option<DatasetEntry>, TargetLog)> =
        geo_model::runtime::par_map_indexed(prefixes.len(), |i| {
            let mut log = TargetLog::default();
            let entry = locate_prefix(world, net, res, vps, prefixes[i], nonce, &mut log);
            (entry, log)
        });
    let mut report = CampaignReport::default();
    let entries = per
        .into_iter()
        .filter_map(|(entry, log)| {
            report.absorb(&log);
            entry
        })
        .collect();
    (entries, report)
}

/// Resolves one prefix through the evidence ladder. `None` only for
/// prefixes with no registered owner (never allocated in this world).
fn locate_prefix(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    prefix: Prefix24,
    nonce: u64,
    log: &mut TargetLog,
) -> Option<DatasetEntry> {
    let (asn, _city) = world.plan.owner(prefix)?;

    // 1. Geofeed.
    if let Some(city) = world.metadata.geofeed_city(prefix) {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::Geofeed,
        });
    }

    // 2. DNS hint on any host of the prefix.
    let hint = prefix.addresses().find_map(|ip| {
        let host = world.host_by_ip(ip)?;
        let city = world.metadata.dns_hint(host.id)?;
        let name = world.metadata.dns.get(&host.id)?.name.clone();
        Some((city, name))
    });
    if let Some((city, hostname)) = hint {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::DnsHint { hostname },
        });
    }

    // 3. Latency: CBG toward a responsive address of the prefix.
    if let Some(ip) = prefix
        .addresses()
        .find(|&ip| world.host_by_ip(ip).is_some())
    {
        let batch =
            resilient::ping_batch(world, net, res, vps, ip, 3, nonce ^ prefix.0 as u64, log);
        let ms = vp_measurements(world, &batch);
        if let Some(result) = cbg(&ms, SpeedOfInternet::CBG) {
            let best = ms
                .iter()
                .min_by(|a, b| a.rtt.total_cmp(&b.rtt))
                .expect("cbg implies measurements");
            return Some(DatasetEntry {
                prefix,
                location: result.estimate,
                evidence: Evidence::Latency {
                    vps: ms.len(),
                    best_rtt: best.rtt,
                    best_vp: best.vp,
                },
            });
        }
    }

    // 4. WHOIS fallback.
    Some(DatasetEntry {
        prefix,
        location: world.city(world.asn(asn).whois_city).center,
        evidence: Evidence::Whois,
    })
}

/// Renders the dataset as CSV with a header — the publishable artifact.
/// The `evidence` column carries the full audit trail ([`Evidence::detail`]).
pub fn to_csv(entries: &[DatasetEntry]) -> String {
    let mut out = String::from("prefix,lat,lon,method,confidence,evidence\n");
    for e in entries {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use geo_model::stats;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network, Vec<HostId>, Vec<Prefix24>) {
        let w = World::generate(WorldConfig::small(Seed(351))).unwrap();
        let net = Network::new(Seed(351));
        let vps: Vec<HostId> = w
            .probes
            .iter()
            .copied()
            .filter(|&p| !w.host(p).is_mis_geolocated())
            .collect();
        let prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
        (w, net, vps, prefixes)
    }

    #[test]
    fn covers_every_prefix_with_evidence() {
        let (w, net, vps, prefixes) = setup();
        let ds = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 1).0;
        assert_eq!(ds.len(), prefixes.len());
        // All four evidence classes are reachable at this scale except
        // possibly WHOIS; at minimum two classes must appear.
        let mut methods: Vec<&str> = ds.iter().map(|e| e.evidence.method()).collect();
        methods.sort();
        methods.dedup();
        assert!(methods.len() >= 2, "evidence too uniform: {methods:?}");
    }

    #[test]
    fn dataset_is_reasonably_accurate() {
        let (w, net, vps, prefixes) = setup();
        let ds = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 1).0;
        let errors: Vec<f64> = ds
            .iter()
            .map(|e| {
                let anchor = w
                    .anchors
                    .iter()
                    .map(|&a| w.host(a))
                    .find(|h| h.ip.prefix24() == e.prefix)
                    .expect("prefix belongs to an anchor");
                e.location.distance(&anchor.location).value()
            })
            .collect();
        let city_level = stats::fraction_at_most(&errors, 40.0);
        assert!(city_level > 0.5, "only {city_level} at city level");
    }

    #[test]
    fn resilient_dataset_matches_plain_when_fault_free() {
        use atlas_sim::faults::{FaultPlan, FaultProfile};
        let (w, net, vps, prefixes) = setup();
        let (plain, plain_report) =
            build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 1);
        let plan = FaultPlan::new(Seed(63), FaultProfile::None);
        let (entries, report) =
            build_dataset(&w, &net, &Resilience::with_plan(&plan), &vps, &prefixes, 1);
        assert_eq!(plain, entries);
        assert_eq!(plain_report, report);
        assert_eq!(report.targets, prefixes.len() as u64);
        assert_eq!(report.retries, 0);
        assert_eq!(report.faults.total(), 0);
        assert_eq!(report.credits.charged, report.credits.baseline);
    }

    #[test]
    fn resilient_dataset_survives_hostile_faults() {
        use atlas_sim::faults::{FaultPlan, FaultProfile};
        let (w, net, vps, _) = setup();
        // Probe prefixes rarely carry geofeed/DNS evidence, so the ladder
        // reaches the latency step and its fault-exposed ping batches.
        let mut prefixes: Vec<Prefix24> = w
            .probes
            .iter()
            .take(40)
            .map(|&p| w.host(p).ip.prefix24())
            .collect();
        prefixes.sort();
        prefixes.dedup();
        let plan = FaultPlan::new(Seed(63), FaultProfile::Hostile);
        let res = Resilience::with_plan(&plan);
        let (entries, report) = build_dataset(&w, &net, &res, &vps, &prefixes, 1);
        // Every owned prefix still gets an entry: the evidence ladder
        // degrades (latency → WHOIS) rather than dropping coverage.
        assert_eq!(entries.len(), prefixes.len());
        assert!(report.attempts > 0, "latency step never reached");
        assert!(report.faults.total() > 0, "hostile plan never fired");
        assert!(report.credits.charged >= report.credits.baseline);
    }

    #[test]
    fn csv_is_well_formed() {
        let (w, net, vps, prefixes) = setup();
        let ds = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes[..5], 1).0;
        let csv = to_csv(&ds);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "prefix,lat,lon,method,confidence,evidence");
        assert_eq!(lines.len(), 6);
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 6, "bad row: {line}");
            let confidence: f64 = line.split(',').nth(4).unwrap().parse().unwrap();
            assert!((0.0..=1.0).contains(&confidence), "bad confidence: {line}");
        }
    }

    #[test]
    fn csv_carries_the_evidence_trail() {
        let (w, net, vps, prefixes) = setup();
        let ds = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 1).0;
        for e in &ds {
            let detail = e.evidence.detail();
            assert!(!detail.contains(','), "evidence breaks CSV: {detail}");
            match &e.evidence {
                Evidence::DnsHint { hostname } => {
                    assert_eq!(detail, format!("hostname={hostname}"));
                }
                Evidence::Latency { vps, best_vp, .. } => {
                    assert!(detail.starts_with(&format!("vps={vps};best_rtt_ms=")));
                    assert!(detail.ends_with(&format!("best_vp={best_vp}")));
                }
                Evidence::Geofeed | Evidence::Whois => assert_eq!(detail, "-"),
                Evidence::Fused { sources, .. } => {
                    assert!(
                        detail.starts_with(&format!("sources={}", fused_sources::label(*sources)))
                    );
                }
            }
            let row = e.to_string();
            assert!(row.ends_with(&detail), "row drops evidence: {row}");
        }
    }

    #[test]
    fn latency_evidence_names_its_vp() {
        let (w, net, vps, prefixes) = setup();
        let ds = build_dataset(&w, &net, &Resilience::none(), &vps, &prefixes, 1).0;
        for e in &ds {
            if let Evidence::Latency {
                vps: n,
                best_rtt,
                best_vp,
            } = &e.evidence
            {
                assert!(*n > 0);
                assert!(best_rtt.value() > 0.0);
                assert!(vps.contains(best_vp));
            }
        }
    }
}
