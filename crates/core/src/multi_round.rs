//! Multi-round VP selection — the paper's §7.2.3 extension, and the one
//! region-guided selection engine: [`crate::two_step`] is its two-round
//! case.
//!
//! "Round based geolocation is one key to scale": the two-step selection
//! generalizes to `R` rounds, each using the previous round's CBG region
//! to pick a smaller, better-placed probe set. More rounds cut the
//! measurement bill further at the cost of one platform API round trip
//! (minutes of latency) per extra round — the exact trade-off §7.2.3
//! describes.
//!
//! Round 1 probes the representatives from the fixed coverage subset and
//! CBG bounds the region. Each later round keeps one VP per (AS, city)
//! inside the current region and re-probes the representatives; if
//! another round follows, the best-ranked VPs (half as many each round)
//! tighten the region. The last round's best VP pings the target for the
//! final estimate. When the first region is empty (split representatives
//! can make the median-RTT circles mutually inconsistent), the best
//! first-round VP pings the target directly.
//!
//! Round `r >= 2` probes with nonce `nonce ^ 0xA5 ^ (r - 2) << 40` and the
//! final ping uses `nonce ^ 0x5A`, so two rounds draw exactly the two-step
//! measurements and every further round draws fresh ones. Every batch
//! goes through the resilient executor.

use crate::cbg::{cbg_with, vp_measurements, CbgResult, VpMeasurement};
use crate::million::{probe_representatives, RepProbe};
use crate::resilient::{self, Resilience, TargetLog};
use geo_model::constraint::{Region, RegionScratch};
use geo_model::ip::Ipv4;
use geo_model::soi::SpeedOfInternet;
use net_sim::Network;
use std::collections::HashMap;
use world_sim::ids::HostId;
use world_sim::World;

/// Outcome of a multi-round selection.
#[derive(Debug, Clone)]
pub struct MultiRoundOutcome {
    /// Candidate-set size of each round that probed (round 1 = coverage
    /// size); a round whose region holds no VP ends the selection.
    pub candidates_per_round: Vec<usize>,
    /// The round-1 CBG over the coverage subset.
    pub round1_cbg: Option<CbgResult>,
    /// The VP that finally geolocated the target.
    pub chosen_vp: Option<HostId>,
    /// Final CBG result (from the chosen VP's RTT to the target).
    pub cbg: Option<CbgResult>,
    /// Ping measurements spent: every round's representative probes plus
    /// the final target probe.
    pub measurements: u64,
    /// Platform API round trips consumed (one per round plus the final
    /// target probe) — the latency currency of §7.2.3.
    pub api_rounds: u32,
}

/// Runs `rounds >= 2` rounds of region-guided VP selection for one
/// target, every batch routed through the resilient executor.
///
/// `coverage` is the fixed round-1 subset (from
/// [`crate::two_step::greedy_coverage`]); `all_vps` is the full sanitized
/// VP population later rounds draw from.
#[allow(clippy::too_many_arguments)]
pub fn geolocate(
    world: &World,
    net: &Network,
    res: &Resilience,
    coverage: &[HostId],
    all_vps: &[HostId],
    target: Ipv4,
    rounds: u32,
    nonce: u64,
    log: &mut TargetLog,
) -> MultiRoundOutcome {
    assert!(rounds >= 2, "multi-round needs at least two rounds");
    // One set of intersection buffers serves every CBG run for this
    // target (round 1, per-round tightening, final estimate).
    let mut scratch = RegionScratch::new();
    let mut candidates_per_round = Vec::with_capacity(rounds as usize);

    // Round 1: the coverage subset bounds the region.
    let probe1 = probe_representatives(world, net, res, coverage, target, nonce, log);
    let mut measurements = probe1.measurements;
    let mut api_rounds = 1u32;
    candidates_per_round.push(coverage.len());
    let round1_cbg = cbg_with(
        &ranked_measurements(world, &probe1, usize::MAX),
        SpeedOfInternet::CBG,
        &mut scratch,
    );

    let chosen = match &round1_cbg {
        // Degenerate first region: no region to filter by.
        None => best_vp(&probe1),
        Some(first) => {
            // Membership is tested against the reduced (active) constraint
            // set: every point of the intersection lies inside the tightest
            // circle, which the active set always contains, so the test is
            // equivalent and much cheaper.
            let mut region = Region::from_circles(first.region.active_circles());
            let mut keep_cap = usize::MAX;
            let mut chosen = None;
            for round in 1..rounds {
                let mut per_pop: HashMap<(u32, u32), HostId> = HashMap::new();
                for &vp in all_vps {
                    let h = world.host(vp);
                    if region.contains(&h.registered_location) {
                        per_pop.entry((h.asn.0, h.city.0)).or_insert(vp);
                    }
                }
                let mut candidates: Vec<HostId> = per_pop.into_values().collect();
                candidates.sort(); // deterministic order
                if candidates.is_empty() {
                    break;
                }

                let key = nonce ^ 0xA5 ^ (u64::from(round - 1) << 40);
                let probe = probe_representatives(world, net, res, &candidates, target, key, log);
                measurements += probe.measurements;
                api_rounds += 1;
                candidates_per_round.push(candidates.len());
                let Some(best) = best_vp(&probe) else { break };
                chosen = Some(best);
                if round + 1 == rounds {
                    break;
                }

                // Keep the best half for the next region (bounded below so
                // the loop always converges to a single choice).
                keep_cap = (keep_cap / 2).max(1).min(candidates.len());
                let kept = ranked_measurements(world, &probe, keep_cap);
                if let Some(next) = cbg_with(&kept, SpeedOfInternet::CBG, &mut scratch) {
                    region = Region::from_circles(next.region.active_circles());
                }
            }
            chosen
        }
    };

    // Final probe: the chosen VP pings the target itself.
    let final_cbg = chosen.and_then(|vp| {
        measurements += 1;
        api_rounds += 1;
        let batch = resilient::ping_batch(world, net, res, &[vp], target, 3, nonce ^ 0x5A, log);
        cbg_with(
            &vp_measurements(world, &batch),
            SpeedOfInternet::CBG,
            &mut scratch,
        )
    });

    MultiRoundOutcome {
        candidates_per_round,
        round1_cbg,
        chosen_vp: chosen,
        cbg: final_cbg,
        measurements,
        api_rounds,
    }
}

/// The lowest-RTT responsive VP of a probe (scores sort responsive first).
fn best_vp(probe: &RepProbe) -> Option<HostId> {
    probe
        .scores
        .first()
        .filter(|s| s.median_rtt.is_some())
        .map(|s| s.vp)
}

/// The `k` best-ranked responsive VPs of a probe as CBG measurements.
fn ranked_measurements(world: &World, probe: &RepProbe, k: usize) -> Vec<VpMeasurement> {
    probe
        .scores
        .iter()
        .filter_map(|s| {
            s.median_rtt.map(|rtt| VpMeasurement {
                vp: s.vp,
                location: world.host(s.vp).registered_location,
                rtt,
            })
        })
        .take(k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_step::{self, greedy_coverage};
    use atlas_sim::faults::{FaultPlan, FaultProfile};
    use geo_model::rng::Seed;
    use geo_model::stats;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network, Vec<HostId>) {
        let w = World::generate(WorldConfig::small(Seed(341))).unwrap();
        let net = Network::new(Seed(341));
        let clean: Vec<HostId> = w
            .probes
            .iter()
            .copied()
            .filter(|&p| !w.host(p).is_mis_geolocated())
            .collect();
        (w, net, clean)
    }

    /// Fault-free run that discards the executor log.
    fn run(
        w: &World,
        net: &Network,
        cov: &[HostId],
        vps: &[HostId],
        t: Ipv4,
        rounds: u32,
        nonce: u64,
    ) -> MultiRoundOutcome {
        let mut log = TargetLog::default();
        geolocate(
            w,
            net,
            &Resilience::none(),
            cov,
            vps,
            t,
            rounds,
            nonce,
            &mut log,
        )
    }

    #[test]
    #[should_panic(expected = "two rounds")]
    fn rejects_single_round() {
        let (w, net, vps) = setup();
        let _ = run(&w, &net, &vps[..5], &vps, w.host(w.anchors[0]).ip, 1, 0);
    }

    #[test]
    fn two_rounds_matches_two_step_shape() {
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 20);
        let target = w.host(w.anchors[0]);
        let out = run(&w, &net, &coverage, &vps, target.ip, 2, 1);
        assert_eq!(out.candidates_per_round.len(), 2);
        assert!(out.cbg.is_some());
        assert!(out.api_rounds >= 3); // 2 rounds + final probe

        // Two rounds are the two-step algorithm (§5.1.4) draw for draw,
        // fault-free and under a hostile plan.
        let bits = |r: &Option<CbgResult>| {
            r.as_ref()
                .map(|r| (r.estimate.lat().to_bits(), r.estimate.lon().to_bits()))
        };
        let plan = FaultPlan::new(Seed(341), FaultProfile::Hostile);
        for (res, faulty) in [
            (Resilience::none(), false),
            (Resilience::with_plan(&plan), true),
        ] {
            let mut faults = 0;
            for (i, &aid) in w.anchors.iter().enumerate().take(24) {
                let ip = w.host(aid).ip;
                let nonce = i as u64;
                let (mut log_m, mut log_t) = (TargetLog::default(), TargetLog::default());
                let m = geolocate(&w, &net, &res, &coverage, &vps, ip, 2, nonce, &mut log_m);
                let t = two_step::geolocate(&w, &net, &res, &coverage, &vps, ip, nonce, &mut log_t);
                assert_eq!(m.chosen_vp, t.chosen_vp, "anchor {i}: chosen VP");
                assert_eq!(bits(&m.cbg), bits(&t.cbg), "anchor {i}: estimate");
                assert_eq!(
                    bits(&m.round1_cbg),
                    bits(&t.step1_cbg),
                    "anchor {i}: region"
                );
                assert_eq!(
                    m.candidates_per_round.get(1).copied().unwrap_or(0),
                    t.step2_candidates,
                    "anchor {i}: candidates"
                );
                assert_eq!(m.measurements, t.measurements, "anchor {i}: measurements");
                assert_eq!(log_m, log_t, "anchor {i}: executor log");
                faults += log_m.faults.total();
            }
            assert_eq!(faults > 0, faulty, "faults seen: {faults}");
        }
    }

    #[test]
    fn more_rounds_do_not_destroy_accuracy() {
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 20);
        let mut errs2 = Vec::new();
        let mut errs4 = Vec::new();
        for (i, &aid) in w.anchors.iter().enumerate().take(12) {
            let target = w.host(aid);
            for (rounds, errs) in [(2u32, &mut errs2), (4u32, &mut errs4)] {
                let out = run(&w, &net, &coverage, &vps, target.ip, rounds, i as u64);
                if let Some(r) = &out.cbg {
                    errs.push(r.estimate.distance(&target.location).value());
                }
            }
        }
        let m2 = stats::median(&errs2).unwrap();
        let m4 = stats::median(&errs4).unwrap();
        assert!(
            m4 < m2 * 6.0 + 60.0,
            "4 rounds ({m4} km) far worse than 2 ({m2} km)"
        );
    }

    #[test]
    fn rounds_trade_measurements_for_latency() {
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 20);
        let target = w.host(w.anchors[1]);
        let o2 = run(&w, &net, &coverage, &vps, target.ip, 2, 3);
        let o4 = run(&w, &net, &coverage, &vps, target.ip, 4, 3);
        assert!(
            o4.api_rounds > o2.api_rounds,
            "extra rounds must cost latency"
        );
    }
}
