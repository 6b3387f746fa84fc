//! Publish-pipeline plumbing for the fused method tier.
//!
//! [`build_dataset_fused`] walks the same evidence ladder as
//! `ipgeo::publish::build_dataset` — geofeed first, WHOIS
//! last — but upgrades the latency rung: after the baseline CBG
//! campaign it mines rDNS hints from the prefix's hosts, verifies them
//! against the constraint region (plus a small dedicated probe batch),
//! pulls the `ipgeo::dbsim` commercial prior, and fuses everything into
//! an [`Evidence::Fused`] entry carrying confidence, a source mask, and
//! the mined hostname.
//!
//! Contracts, both load-bearing for the test suite:
//!
//! - **Hint coverage 0 is the baseline, byte for byte.** The pipeline
//!   delegates to `build_dataset` outright, so fault-free
//!   output under `Resilience::none()` is identical down to CSV and
//!   `.igds` bytes.
//! - **Same budget, separate books.** Verification probes run through
//!   the same [`Resilience`] (same fault plan, same retry policy, same
//!   credit schedule) as the baseline campaign, but land in their own
//!   [`TargetLog`] so [`FusedReport`] can show baseline and
//!   hint-verification spending side by side.
//!
//! Determinism: targets are processed with
//! `geo_model::runtime::par_map_indexed` and every probe nonce is a pure
//! function of `(campaign nonce, prefix)`, so the dataset and both
//! reports are bit-identical at any `IPGEO_THREADS` setting.

use geo_model::ip::Prefix24;
use geo_model::rng::fnv1a;
use geo_model::soi::SpeedOfInternet;
use ipgeo::dbsim::GeoDatabase;
use ipgeo::publish::{self, DatasetEntry, Evidence};
use ipgeo::{cbg, resilient, vp_measurements, CampaignReport, Resilience, TargetLog};
use net_sim::Network;
use std::fmt;
use world_sim::ids::HostId;
use world_sim::rdns::RdnsConfig;
use world_sim::World;

use crate::extract::CodeTable;
use crate::fuse::{fuse, FusionInput};
use crate::verify::{probe_consistent, verify_against_region, VerifiedHint};

/// Salt mixed into verification-probe nonces so they never collide with
/// the baseline campaign's measurement keys for the same prefix.
pub const HINT_NONCE_SALT: u64 = fnv1a(b"hint-verify");

/// Knobs of the fused pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedConfig {
    /// rDNS synthesis knobs (coverage × truthfulness).
    pub hints: RdnsConfig,
    /// Vantage points in the dedicated verification batch (closest to
    /// the CBG estimate by registered location).
    pub verify_vps: usize,
    /// Packets per verification ping.
    pub verify_packets: usize,
}

impl FusedConfig {
    /// A config with the default verification batch (3 VPs × 2 packets).
    pub fn new(coverage: f64, truthfulness: f64) -> FusedConfig {
        FusedConfig {
            hints: RdnsConfig::new(coverage, truthfulness),
            verify_vps: 3,
            verify_packets: 2,
        }
    }
}

/// Campaign accounting split by purpose: the baseline CBG probes and the
/// hint-verification probes keep separate books even though they share
/// one credit schedule and fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FusedReport {
    /// The baseline measurement campaign (identical to what the
    /// no-hints pipeline would have spent).
    pub base: CampaignReport,
    /// The dedicated hint-verification probes.
    pub hints: CampaignReport,
}

impl FusedReport {
    /// Both books folded together — total spend of the fused campaign.
    pub fn combined(&self) -> CampaignReport {
        let mut all = self.base.clone();
        all.merge(&self.hints);
        all
    }
}

impl fmt::Display for FusedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "baseline probes:")?;
        writeln!(f, "{}", self.base)?;
        writeln!(f, "hint-verification probes:")?;
        write!(f, "{}", self.hints)
    }
}

/// Builds the published dataset with the fused method tier. See the
/// module docs for the coverage-0 and accounting contracts.
pub fn build_dataset_fused(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    prefixes: &[Prefix24],
    nonce: u64,
    cfg: &FusedConfig,
) -> (Vec<DatasetEntry>, FusedReport) {
    if cfg.hints.coverage == 0.0 {
        let (entries, base) = publish::build_dataset(world, net, res, vps, prefixes, nonce);
        return (
            entries,
            FusedReport {
                base,
                hints: CampaignReport::default(),
            },
        );
    }
    let table = CodeTable::build(world);
    let db = GeoDatabase::maxmind_like(world, prefixes, world.config.seed.derive("fused-db"));
    net.prepare(world);
    let per: Vec<(Option<DatasetEntry>, TargetLog, TargetLog)> =
        geo_model::runtime::par_map_indexed(prefixes.len(), |i| {
            let mut base_log = TargetLog::default();
            let mut hint_log = TargetLog::default();
            let entry = locate_fused(
                world,
                net,
                res,
                vps,
                &table,
                &db,
                cfg,
                prefixes[i],
                nonce,
                &mut base_log,
                &mut hint_log,
            );
            (entry, base_log, hint_log)
        });
    let mut report = FusedReport::default();
    let entries = per
        .into_iter()
        .filter_map(|(entry, base_log, hint_log)| {
            report.base.absorb(&base_log);
            report.hints.absorb(&hint_log);
            entry
        })
        .collect();
    (entries, report)
}

/// Resolves one prefix through the fused evidence ladder.
#[allow(clippy::too_many_arguments)]
fn locate_fused(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    table: &CodeTable,
    db: &GeoDatabase,
    cfg: &FusedConfig,
    prefix: Prefix24,
    nonce: u64,
    base_log: &mut TargetLog,
    hint_log: &mut TargetLog,
) -> Option<DatasetEntry> {
    let (asn, _city) = world.plan.owner(prefix)?;

    // 1. Geofeed — same rung as the baseline ladder.
    if let Some(city) = world.metadata.geofeed_city(prefix) {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::Geofeed,
        });
    }

    // 2. Latency + fusion: baseline CBG campaign, then hint mining.
    if let Some(ip) = prefix
        .addresses()
        .find(|&ip| world.host_by_ip(ip).is_some())
    {
        let batch = resilient::ping_batch(
            world,
            net,
            res,
            vps,
            ip,
            3,
            nonce ^ prefix.0 as u64,
            base_log,
        );
        let ms = vp_measurements(world, &batch);
        if let Some(result) = cbg(&ms, SpeedOfInternet::CBG) {
            let hint = mine_and_verify(
                world, net, res, vps, table, cfg, prefix, nonce, &result, hint_log,
            );
            let fused = fuse(&FusionInput {
                cbg: &result,
                hint: hint.as_ref(),
                street: None,
                db: db.lookup(ip),
            });
            let best = ms
                .iter()
                .min_by(|a, b| a.rtt.total_cmp(&b.rtt))
                .expect("cbg implies measurements");
            return Some(DatasetEntry {
                prefix,
                location: fused.location,
                evidence: Evidence::Fused {
                    confidence: fused.confidence,
                    sources: fused.sources,
                    vps: ms.len(),
                    best_rtt: best.rtt,
                    best_vp: best.vp,
                    hostname: hint.map(|h| h.hostname),
                },
            });
        }
    }

    // 3. Legacy registry hint — only reachable when latency failed.
    let legacy = prefix.addresses().find_map(|ip| {
        let host = world.host_by_ip(ip)?;
        let city = world.metadata.dns_hint(host.id)?;
        let name = world.metadata.dns.get(&host.id)?.name.clone();
        Some((city, name))
    });
    if let Some((city, hostname)) = legacy {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::DnsHint { hostname },
        });
    }

    // 4. WHOIS fallback.
    Some(DatasetEntry {
        prefix,
        location: world.city(world.asn(asn).whois_city).center,
        evidence: Evidence::Whois,
    })
}

/// Mines the prefix's hosts for an rDNS hint and runs both verification
/// gates. The probe gate pings the hinted target from the `verify_vps`
/// VPs closest to the CBG estimate (ties broken by host id), through the
/// same executor — so fault plans apply — into `hint_log`.
#[allow(clippy::too_many_arguments)]
fn mine_and_verify(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    table: &CodeTable,
    cfg: &FusedConfig,
    prefix: Prefix24,
    nonce: u64,
    result: &ipgeo::CbgResult,
    hint_log: &mut TargetLog,
) -> Option<VerifiedHint> {
    let (ip, name) = prefix.addresses().find_map(|ip| {
        let host = world.host_by_ip(ip)?;
        let name = world_sim::rdns::hostname(world, &cfg.hints, host.id)?;
        Some((ip, name))
    })?;
    let candidates = table.extract(&name.name);
    let hint = verify_against_region(world, result, &name.name, &candidates)?;
    if cfg.verify_vps == 0 {
        return Some(hint);
    }
    // Each VP's distance once, then the nearest `verify_vps` by
    // (distance, id).
    let mut by_distance: Vec<(f64, HostId)> = vps
        .iter()
        .map(|&vp| {
            let d = world
                .host(vp)
                .registered_location
                .distance(&result.estimate);
            (d.value(), vp)
        })
        .collect();
    by_distance.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let closest: Vec<HostId> = by_distance
        .iter()
        .take(cfg.verify_vps)
        .map(|&(_, vp)| vp)
        .collect();
    let batch = resilient::ping_batch(
        world,
        net,
        res,
        &closest,
        ip,
        cfg.verify_packets,
        nonce ^ prefix.0 as u64 ^ HINT_NONCE_SALT,
        hint_log,
    );
    let checks = vp_measurements(world, &batch);
    probe_consistent(&hint.center, &checks).then_some(hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use ipgeo::publish::{fused_sources, to_csv};
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
        let mut prefixes: Vec<Prefix24> =
            w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
        prefixes.extend(w.probes.iter().take(40).map(|&p| w.host(p).ip.prefix24()));
        prefixes.sort();
        prefixes.dedup();
        (w, net, vps, prefixes)
    }

    #[test]
    fn coverage_zero_is_byte_identical_to_the_baseline() {
        let (w, net, vps, prefixes) = setup();
        let res = Resilience::none();
        let (base_entries, base_report) =
            publish::build_dataset(&w, &net, &res, &vps, &prefixes, 7);
        let cfg = FusedConfig::new(0.0, 1.0);
        let (fused_entries, report) = build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg);
        assert_eq!(to_csv(&fused_entries), to_csv(&base_entries));
        assert_eq!(report.base, base_report);
        assert_eq!(report.hints, CampaignReport::default());
    }

    #[test]
    fn full_coverage_produces_fused_entries_with_verified_hints() {
        let (w, net, vps, prefixes) = setup();
        let res = Resilience::none();
        let cfg = FusedConfig::new(1.0, 1.0);
        let (entries, report) = build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg);
        assert_eq!(entries.len(), prefixes.len());
        let fused: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.evidence, Evidence::Fused { .. }))
            .collect();
        assert!(!fused.is_empty(), "no fused entries at full coverage");
        let with_hint = fused
            .iter()
            .filter(|e| match &e.evidence {
                Evidence::Fused {
                    sources, hostname, ..
                } => sources & fused_sources::HINT != 0 && hostname.is_some(),
                _ => false,
            })
            .count();
        assert!(with_hint > 0, "no verified hints at truthfulness 1.0");
        // Verification probes happened and are booked separately.
        assert!(report.hints.attempts > 0);
        assert!(report.base.attempts > 0);
        assert!(report.hints.credits.net() > 0);
    }

    #[test]
    fn unverified_hints_fall_back_to_the_cbg_estimate() {
        let (w, net, vps, prefixes) = setup();
        let res = Resilience::none();
        // Truthful run gives the CBG-only location for every prefix via
        // the coverage-0 path; the truthfulness-0 run must either match
        // it (hint refuted → fallback) or carry a verified-hint mask.
        let (base_entries, _) = build_dataset_fused(
            &w,
            &net,
            &res,
            &vps,
            &prefixes,
            7,
            &FusedConfig::new(0.0, 0.0),
        );
        let (lying, _) = build_dataset_fused(
            &w,
            &net,
            &res,
            &vps,
            &prefixes,
            7,
            &FusedConfig::new(1.0, 0.0),
        );
        let mut compared = 0;
        for (b, l) in base_entries.iter().zip(&lying) {
            assert_eq!(b.prefix, l.prefix);
            // Only latency-located baseline entries are comparable: the
            // baseline ladder serves legacy registry hints before
            // latency, while the fused ladder demotes them below it.
            let base_is_latency = matches!(b.evidence, Evidence::Latency { .. });
            if let Evidence::Fused { sources, .. } = &l.evidence {
                if base_is_latency && sources & fused_sources::HINT == 0 {
                    // No hint survived: the fused location is the CBG
                    // estimate, bit for bit.
                    assert_eq!(b.location.lat().to_bits(), l.location.lat().to_bits());
                    assert_eq!(b.location.lon().to_bits(), l.location.lon().to_bits());
                    compared += 1;
                }
            }
        }
        assert!(compared > 0, "no refuted-hint latency entries to compare");
    }

    #[test]
    fn fused_report_renders_both_books() {
        let (w, net, vps, prefixes) = setup();
        let res = Resilience::none();
        let cfg = FusedConfig::new(1.0, 0.9);
        let (_, report) = build_dataset_fused(&w, &net, &res, &vps, &prefixes, 7, &cfg);
        let text = report.to_string();
        assert!(text.contains("baseline probes:"));
        assert!(text.contains("hint-verification probes:"));
        let combined = report.combined();
        assert_eq!(
            combined.credits.net(),
            report.base.credits.net() + report.hints.credits.net()
        );
    }
}
