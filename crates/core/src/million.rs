//! The million-scale paper's vantage-point selection (Hu et al., IMC 2012;
//! §3.1 of the replication).
//!
//! To geolocate a target without probing it from every vantage point:
//!
//! 1. take the three highest-scoring responsive *representatives* of the
//!    target's `/24` from the hitlist (falling back to random addresses if
//!    fewer exist, as for 8 of the paper's targets);
//! 2. ping the representatives from all VPs;
//! 3. keep the `k` VPs with the lowest median RTT to the representatives;
//! 4. geolocate the target with CBG (or Shortest Ping) using only those.
//!
//! The replication's Figure 3a varies `k` ∈ {1, 3, 10}; its headline
//! finding is that `k = 1` — a single well-chosen VP — is enough.

use crate::cbg::{cbg, vp_measurements, CbgResult};
use crate::resilient::{self, CampaignReport, Resilience, TargetLog};
use geo_model::ip::Ipv4;
use geo_model::rng::{splitmix64, Seed};
use geo_model::soi::SpeedOfInternet;
use geo_model::stats;
use geo_model::units::Ms;
use net_sim::Network;
use world_sim::hitlist::HitlistEntry;
use world_sim::ids::HostId;
use world_sim::World;

/// Number of representatives per prefix, as in the original paper.
pub const REPRESENTATIVES: usize = 3;

/// The measured closeness of one VP to a target's representatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VpScore {
    /// The vantage point.
    pub vp: HostId,
    /// Median min-RTT to the responsive representatives; `None` if no
    /// representative answered this VP.
    pub median_rtt: Option<Ms>,
}

/// Result of the representative-probing step.
#[derive(Debug, Clone)]
pub struct RepProbe {
    /// The representatives used (three when available).
    pub representatives: Vec<HitlistEntry>,
    /// Per-VP closeness scores, sorted best (lowest RTT) first; VPs with
    /// no responsive representative sort last.
    pub scores: Vec<VpScore>,
    /// Ping measurements issued: `|vps| * |representatives|`.
    pub measurements: u64,
}

/// Probes the representatives of `target`'s `/24` from every VP and ranks
/// VPs, with one representative batch at a time through the resilient
/// executor.
pub fn probe_representatives(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    target: Ipv4,
    nonce: u64,
    log: &mut TargetLog,
) -> RepProbe {
    let prefix = target.prefix24();
    let mut reps = world.hitlist.representatives(prefix, REPRESENTATIVES);
    if reps.len() < REPRESENTATIVES {
        // Fallback: random addresses in the /24 (almost surely
        // unresponsive), as the paper did for 8 sparse targets.
        let mut rng = Seed(nonce).derive("rep-fill").rng();
        reps = world
            .hitlist
            .fill_with_random(prefix, reps, REPRESENTATIVES, &mut rng);
    }

    // One batch per representative; transpose delivered results into one
    // flat `vps.len() * reps.len()` slab (NaN = no measurement). Batch
    // results are an ordered subsequence of `vps`, so a cursor merge
    // replaces the per-target `HashMap` + vec-of-vecs the transpose used
    // to churn through.
    let mut rtts: Vec<f64> = vec![f64::NAN; vps.len() * reps.len()];
    let mut batch: Vec<(HostId, net_sim::PingOutcome)> = Vec::new();
    for (j, r) in reps.iter().enumerate() {
        let key = nonce ^ r.ip.0 as u64;
        resilient::ping_batch_keyed_into(
            world,
            net,
            res,
            vps,
            r.ip,
            3,
            key,
            |_, _| key,
            log,
            &mut batch,
        );
        let mut cursor = 0usize;
        for &(vp, outcome) in &batch {
            while vps[cursor] != vp {
                cursor += 1;
            }
            if let Some(m) = outcome.rtt() {
                rtts[cursor * reps.len() + j] = m.value();
            }
            cursor += 1;
        }
    }

    // Per-VP medians over the responsive representatives, compacted in
    // representative order — the exact sequence the vec-of-vecs held.
    let mut vals = [0.0f64; REPRESENTATIVES];
    let mut scores: Vec<VpScore> = vps
        .iter()
        .enumerate()
        .map(|(i, &vp)| {
            let mut n = 0usize;
            for j in 0..reps.len() {
                let v = rtts[i * reps.len() + j];
                if !v.is_nan() {
                    vals[n] = v;
                    n += 1;
                }
            }
            VpScore {
                vp,
                median_rtt: stats::median(&vals[..n]).map(Ms),
            }
        })
        .collect();
    scores.sort_by(|a, b| match (a.median_rtt, b.median_rtt) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });

    RepProbe {
        measurements: (vps.len() * reps.len()) as u64,
        representatives: reps,
        scores,
    }
}

/// Outcome of the full million-scale geolocation of one target.
#[derive(Debug, Clone)]
pub struct MillionScaleOutcome {
    /// The chosen vantage points (lowest median RTT to representatives).
    pub selected_vps: Vec<HostId>,
    /// CBG over the selected VPs' RTTs to the target.
    pub cbg: Option<CbgResult>,
    /// Total ping measurements (representatives + target probes).
    pub measurements: u64,
}

/// Geolocates `target` with the `k` best VPs from a representative probe,
/// their target pings routed through the resilient executor.
#[allow(clippy::too_many_arguments)]
pub fn geolocate_with_selection(
    world: &World,
    net: &Network,
    res: &Resilience,
    probe: &RepProbe,
    target: Ipv4,
    k: usize,
    nonce: u64,
    log: &mut TargetLog,
) -> MillionScaleOutcome {
    let selected: Vec<HostId> = probe
        .scores
        .iter()
        .filter(|s| s.median_rtt.is_some())
        .take(k)
        .map(|s| s.vp)
        .collect();

    let batch = resilient::ping_batch(world, net, res, &selected, target, 3, nonce, log);
    let measurements = vp_measurements(world, &batch);

    MillionScaleOutcome {
        measurements: probe.measurements + selected.len() as u64,
        cbg: cbg(&measurements, SpeedOfInternet::CBG),
        selected_vps: selected,
    }
}

/// Runs the full million-scale campaign over `targets`, fanning out with
/// [`geo_model::runtime::par_map_indexed`] (bit-identical at any
/// `IPGEO_THREADS`) and folding per-target accounting into one
/// [`CampaignReport`] in target order.
pub fn campaign(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    targets: &[Ipv4],
    k: usize,
    nonce: u64,
) -> (Vec<MillionScaleOutcome>, CampaignReport) {
    let per: Vec<(MillionScaleOutcome, TargetLog)> =
        geo_model::runtime::par_map_indexed(targets.len(), |i| {
            let key = Seed(nonce).derive_index("million-campaign", i as u64).0;
            let mut log = TargetLog::default();
            let probe = probe_representatives(world, net, res, vps, targets[i], key, &mut log);
            let out = geolocate_with_selection(
                world,
                net,
                res,
                &probe,
                targets[i],
                k,
                splitmix64(key ^ 0x717A),
                &mut log,
            );
            (out, log)
        });
    let mut report = CampaignReport::default();
    let outcomes = per
        .into_iter()
        .map(|(out, log)| {
            report.absorb(&log);
            out
        })
        .collect();
    (outcomes, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network) {
        let w = World::generate(WorldConfig::small(Seed(181))).unwrap();
        let net = Network::new(Seed(181));
        (w, net)
    }

    /// Fault-free representative probe that discards the executor log.
    fn rep_probe(w: &World, net: &Network, vps: &[HostId], target: Ipv4, nonce: u64) -> RepProbe {
        let mut log = TargetLog::default();
        probe_representatives(w, net, &Resilience::none(), vps, target, nonce, &mut log)
    }

    /// Fault-free selection that discards the executor log.
    fn select(
        w: &World,
        net: &Network,
        probe: &RepProbe,
        target: Ipv4,
        k: usize,
        nonce: u64,
    ) -> MillionScaleOutcome {
        let mut log = TargetLog::default();
        geolocate_with_selection(
            w,
            net,
            &Resilience::none(),
            probe,
            target,
            k,
            nonce,
            &mut log,
        )
    }

    fn clean_probes(w: &World) -> Vec<HostId> {
        w.probes
            .iter()
            .copied()
            .filter(|&p| !w.host(p).is_mis_geolocated())
            .collect()
    }

    #[test]
    fn probes_representatives_and_ranks() {
        let (w, net) = setup();
        let vps = clean_probes(&w);
        let target = w.host(w.anchors[0]);
        let probe = rep_probe(&w, &net, &vps, target.ip, 1);
        assert_eq!(probe.representatives.len(), REPRESENTATIVES);
        assert_eq!(probe.scores.len(), vps.len());
        assert_eq!(probe.measurements, (vps.len() * 3) as u64);
        // Sorted ascending among measured scores.
        let measured: Vec<f64> = probe
            .scores
            .iter()
            .filter_map(|s| s.median_rtt.map(|m| m.value()))
            .collect();
        for w2 in measured.windows(2) {
            assert!(w2[0] <= w2[1]);
        }
    }

    #[test]
    fn best_vp_is_geographically_close() {
        // The core hypothesis: low RTT to representatives implies
        // geographic closeness to the target.
        let (w, net) = setup();
        let vps = clean_probes(&w);
        let mut close_enough = 0;
        let mut total = 0;
        for (i, &aid) in w.anchors.iter().enumerate() {
            let target = w.host(aid);
            let probe = rep_probe(&w, &net, &vps, target.ip, i as u64);
            let Some(best) = probe.scores.first().filter(|s| s.median_rtt.is_some()) else {
                continue;
            };
            let d = w.host(best.vp).location.distance(&target.location).value();
            total += 1;
            if d < 300.0 {
                close_enough += 1;
            }
        }
        assert!(total > 0);
        assert!(
            close_enough * 10 >= total * 7,
            "best VP rarely close: {close_enough}/{total}"
        );
    }

    #[test]
    fn geolocates_with_small_k() {
        let (w, net) = setup();
        let vps = clean_probes(&w);
        let target = w.host(w.anchors[1]);
        let probe = rep_probe(&w, &net, &vps, target.ip, 2);
        for k in [1usize, 3, 10] {
            let out = select(&w, &net, &probe, target.ip, k, 2);
            assert!(out.selected_vps.len() <= k);
            let r = out.cbg.expect("CBG must produce an estimate");
            let err = r.estimate.distance(&target.location).value();
            assert!(err < 2000.0, "k={k} error {err} km");
        }
    }

    #[test]
    fn measurement_accounting() {
        let (w, net) = setup();
        let vps: Vec<HostId> = clean_probes(&w).into_iter().take(50).collect();
        let target = w.host(w.anchors[2]);
        let probe = rep_probe(&w, &net, &vps, target.ip, 3);
        let out = select(&w, &net, &probe, target.ip, 10, 3);
        assert_eq!(out.measurements, 50 * 3 + out.selected_vps.len() as u64);
    }

    #[test]
    fn campaign_survives_api_failures_with_correct_accounting() {
        use atlas_sim::faults::{FaultConfig, FaultPlan};
        let (w, net) = setup();
        let vps: Vec<HostId> = clean_probes(&w).into_iter().take(30).collect();
        let targets: Vec<Ipv4> = w.anchors.iter().take(6).map(|&a| w.host(a).ip).collect();
        // The acceptance scenario: 20% of API calls fail transiently.
        let cfg = FaultConfig {
            api_fault_rate: 0.2,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::with_config(Seed(42), cfg);
        let res = Resilience::with_plan(&plan);
        let (outs, report) = campaign(&w, &net, &res, &vps, &targets, 3, 9);
        assert_eq!(outs.len(), targets.len());
        assert!(outs.iter().all(|o| o.cbg.is_some()), "a target got no fix");
        let api_faults =
            report.faults.rate_limited + report.faults.server_errors + report.faults.api_timeouts;
        assert!(api_faults > 0, "20% fault rate never fired");
        assert!(report.retries > 0, "faults never retried");
        // Partial-result accounting: with API faults only, every refund
        // matches a failed call exactly, so net credits equal the cost of
        // what was delivered (3-packet pings at 1 credit per packet).
        assert_eq!(report.credits.net(), report.delivered * 3);
        assert_eq!(
            report.delivered, report.requested,
            "bounded retries failed to recover a batch: {report}"
        );
        assert_eq!(report.failed_batches, 0);
    }

    #[test]
    fn campaign_report_is_deterministic() {
        use atlas_sim::faults::{FaultPlan, FaultProfile};
        let (w, net) = setup();
        let vps: Vec<HostId> = clean_probes(&w).into_iter().take(20).collect();
        let targets: Vec<Ipv4> = w.anchors.iter().take(4).map(|&a| w.host(a).ip).collect();
        let run = || {
            let plan = FaultPlan::new(Seed(13), FaultProfile::Flaky);
            let res = Resilience::with_plan(&plan);
            let (outs, report) = campaign(&w, &net, &res, &vps, &targets, 3, 5);
            let shape: Vec<_> = outs
                .iter()
                .map(|o| {
                    (
                        o.selected_vps.clone(),
                        o.cbg.as_ref().map(|r| (r.estimate.lat(), r.estimate.lon())),
                    )
                })
                .collect();
            (shape, report.to_string())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sparse_prefix_falls_back_to_random_fill() {
        let (w, net) = setup();
        // An address in an unknown /24 has no hitlist entries at all.
        let bogus = Ipv4::from_octets(203, 0, 113, 7);
        let vps: Vec<HostId> = clean_probes(&w).into_iter().take(10).collect();
        let probe = rep_probe(&w, &net, &vps, bogus, 4);
        assert_eq!(probe.representatives.len(), REPRESENTATIVES);
        // All fills are unresponsive, so every VP has no score.
        assert!(probe.scores.iter().all(|s| s.median_rtt.is_none()));
    }
}
