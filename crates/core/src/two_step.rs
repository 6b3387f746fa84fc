//! The replication's two-step vantage-point selection (§5.1.4).
//!
//! The original VP selection needs every VP to ping every target's
//! representatives — 21.7M measurements for 10k VPs × 723 targets — which
//! RIPE Atlas probes cannot sustain (§5.1.3). The two-step variant:
//!
//! 1. a fixed, greedily chosen earth-covering subset of `s` VPs pings the
//!    representatives and CBG bounds the region;
//! 2. one VP per (AS, city) *inside the region* pings the representatives;
//!    the VP with the lowest median RTT geolocates the target.
//!
//! Small `s` means a looser region and more second-step VPs; the paper
//! finds the sweet spot at `s = 500` (2.88M measurements, 13.2% of the
//! original) with no accuracy loss.

use crate::cbg::CbgResult;
use crate::multi_round;
use crate::resilient::{Resilience, TargetLog};
use geo_model::ip::Ipv4;
use geo_model::point::{GeoPoint, PointTrig};
use net_sim::Network;
use world_sim::ids::HostId;
use world_sim::World;

/// Greedily selects `k` VPs maximizing geographic coverage: each iteration
/// adds the VP with the largest sum of logarithmic distances to those
/// already selected (the Metis-style criterion the paper cites).
///
/// At paper scale that is about 3M haversines (300 picks × 9,904 VPs), so
/// each VP's trig is derived once and every distance reads it through
/// [`PointTrig::distance`], bit-identical to `GeoPoint::distance`.
pub fn greedy_coverage(world: &World, vps: &[HostId], k: usize) -> Vec<HostId> {
    if vps.is_empty() || k == 0 {
        return Vec::new();
    }
    let locs: Vec<GeoPoint> = vps
        .iter()
        .map(|&v| world.host(v).registered_location)
        .collect();
    let trig: Vec<PointTrig> = locs.iter().map(PointTrig::of).collect();

    // Start from the VP furthest from the centroid of all VPs (a stable,
    // deterministic seed of the greedy chain).
    let centroid = GeoPoint::centroid(&locs).unwrap_or_else(|| GeoPoint::new(0.0, 0.0));
    let centroid = PointTrig::of(&centroid);
    let first = (0..vps.len())
        .max_by(|&a, &b| {
            trig[a]
                .distance(&centroid)
                .total_cmp(&trig[b].distance(&centroid))
        })
        .expect("non-empty");

    let mut selected = vec![first];
    // Incremental sums of log-distances to the selected set.
    let mut score: Vec<f64> = (0..vps.len())
        .map(|i| log_dist(&trig[i], &trig[first]))
        .collect();
    score[first] = f64::NEG_INFINITY;

    while selected.len() < k.min(vps.len()) {
        let next = (0..vps.len())
            .max_by(|&a, &b| score[a].total_cmp(&score[b]))
            .expect("non-empty");
        if score[next] == f64::NEG_INFINITY {
            break;
        }
        selected.push(next);
        for i in 0..vps.len() {
            if score[i] != f64::NEG_INFINITY {
                score[i] += log_dist(&trig[i], &trig[next]);
            }
        }
        score[next] = f64::NEG_INFINITY;
    }

    selected.into_iter().map(|i| vps[i]).collect()
}

fn log_dist(a: &PointTrig, b: &PointTrig) -> f64 {
    // +1 km floor keeps co-located VPs finite.
    (a.distance(b).value() + 1.0).ln()
}

/// Outcome of the two-step geolocation of one target.
#[derive(Debug, Clone)]
pub struct TwoStepOutcome {
    /// The first-step CBG over the coverage subset.
    pub step1_cbg: Option<CbgResult>,
    /// Second-step candidate VPs (one per AS/city inside the region).
    pub step2_candidates: usize,
    /// The single VP chosen to geolocate the target.
    pub chosen_vp: Option<HostId>,
    /// Final CBG result (from the chosen VP's RTT to the target).
    pub cbg: Option<CbgResult>,
    /// Ping measurements spent: step 1 + step 2 representative probes plus
    /// the final target ping.
    pub measurements: u64,
}

/// Runs the two-step selection and geolocation for one target: the
/// two-round case of [`multi_round::geolocate`], every batch routed
/// through the resilient executor.
///
/// `coverage` is the fixed first-step subset (from [`greedy_coverage`]);
/// `all_vps` is the full sanitized VP population that step 2 draws from.
/// When the first-step region is empty, the best first-step VP geolocates
/// the target directly.
#[allow(clippy::too_many_arguments)]
pub fn geolocate(
    world: &World,
    net: &Network,
    res: &Resilience,
    coverage: &[HostId],
    all_vps: &[HostId],
    target: Ipv4,
    nonce: u64,
    log: &mut TargetLog,
) -> TwoStepOutcome {
    let out = multi_round::geolocate(world, net, res, coverage, all_vps, target, 2, nonce, log);
    TwoStepOutcome {
        step1_cbg: out.round1_cbg,
        step2_candidates: out.candidates_per_round.get(1).copied().unwrap_or(0),
        chosen_vp: out.chosen_vp,
        cbg: out.cbg,
        measurements: out.measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    /// Fault-free run that discards the executor log.
    fn run(
        w: &World,
        net: &Network,
        cov: &[HostId],
        vps: &[HostId],
        t: Ipv4,
        nonce: u64,
    ) -> TwoStepOutcome {
        let mut log = TargetLog::default();
        geolocate(w, net, &Resilience::none(), cov, vps, t, nonce, &mut log)
    }

    fn setup() -> (World, Network, Vec<HostId>) {
        setup_with(WorldConfig::small(Seed(191)))
    }

    fn setup_with(config: WorldConfig) -> (World, Network, Vec<HostId>) {
        let net = Network::new(config.seed);
        let w = World::generate(config).unwrap();
        let clean: Vec<HostId> = w
            .probes
            .iter()
            .copied()
            .filter(|&p| !w.host(p).is_mis_geolocated())
            .collect();
        (w, net, clean)
    }

    /// `greedy_coverage` as it was before the VP trig was hoisted: every
    /// distance re-derives the trig of both endpoints. Kept as the oracle
    /// the hoisted selection must match pick for pick.
    fn greedy_coverage_oracle(world: &World, vps: &[HostId], k: usize) -> Vec<HostId> {
        if vps.is_empty() || k == 0 {
            return Vec::new();
        }
        let locs: Vec<GeoPoint> = vps
            .iter()
            .map(|&v| world.host(v).registered_location)
            .collect();
        let log_dist = |a: &GeoPoint, b: &GeoPoint| (a.distance(b).value() + 1.0).ln();
        let centroid = GeoPoint::centroid(&locs).unwrap_or_else(|| GeoPoint::new(0.0, 0.0));
        let first = (0..vps.len())
            .max_by(|&a, &b| {
                locs[a]
                    .distance(&centroid)
                    .total_cmp(&locs[b].distance(&centroid))
            })
            .unwrap();
        let mut selected = vec![first];
        let mut score: Vec<f64> = (0..vps.len())
            .map(|i| log_dist(&locs[i], &locs[first]))
            .collect();
        score[first] = f64::NEG_INFINITY;
        while selected.len() < k.min(vps.len()) {
            let next = (0..vps.len())
                .max_by(|&a, &b| score[a].total_cmp(&score[b]))
                .unwrap();
            if score[next] == f64::NEG_INFINITY {
                break;
            }
            selected.push(next);
            for i in 0..vps.len() {
                if score[i] != f64::NEG_INFINITY {
                    score[i] += log_dist(&locs[i], &locs[next]);
                }
            }
            score[next] = f64::NEG_INFINITY;
        }
        selected.into_iter().map(|i| vps[i]).collect()
    }

    #[test]
    fn greedy_coverage_matches_oracle_on_small_worlds() {
        for seed in [191, 7, 2023] {
            let (w, _, vps) = setup_with(WorldConfig::small(Seed(seed)));
            for k in [1, 2, 10, 30, 60, vps.len(), vps.len() + 5] {
                assert_eq!(
                    greedy_coverage(&w, &vps, k),
                    greedy_coverage_oracle(&w, &vps, k),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn greedy_coverage_matches_oracle_on_paper_world() {
        let (w, _, vps) = setup_with(WorldConfig::paper(Seed(42)));
        let mesh = greedy_coverage(&w, &vps, 300);
        assert_eq!(mesh.len(), 300);
        assert_eq!(mesh, greedy_coverage_oracle(&w, &vps, 300));
    }

    #[test]
    fn greedy_coverage_spreads_out() {
        let (w, _, vps) = setup();
        let sel = greedy_coverage(&w, &vps, 10);
        assert_eq!(sel.len(), 10);
        // No duplicates.
        let mut dedup = sel.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        // Selected VPs are mutually further apart than random pairs on
        // average: compare mean pairwise distance to that of the first 10.
        let mean_pairwise = |ids: &[HostId]| {
            let mut total = 0.0;
            let mut n = 0;
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    total += w.host(a).location.distance(&w.host(b).location).value();
                    n += 1;
                }
            }
            total / n as f64
        };
        let naive: Vec<HostId> = vps.iter().copied().take(10).collect();
        assert!(
            mean_pairwise(&sel) > mean_pairwise(&naive),
            "greedy selection no better spread than arbitrary"
        );
    }

    #[test]
    fn greedy_coverage_edge_cases() {
        let (w, _, vps) = setup();
        assert!(greedy_coverage(&w, &[], 5).is_empty());
        assert!(greedy_coverage(&w, &vps, 0).is_empty());
        let all = greedy_coverage(&w, &vps, vps.len() + 100);
        assert_eq!(all.len(), vps.len());
    }

    #[test]
    fn two_step_geolocates_accurately() {
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 30);
        let mut errors = Vec::new();
        for (i, &aid) in w.anchors.iter().enumerate().take(10) {
            let target = w.host(aid);
            let out = run(&w, &net, &coverage, &vps, target.ip, i as u64);
            if let Some(r) = &out.cbg {
                errors.push(r.estimate.distance(&target.location).value());
            }
            assert!(out.measurements > 0);
        }
        assert!(errors.len() >= 7, "too many failures: {}", errors.len());
        let median = geo_model::stats::median(&errors).unwrap();
        assert!(median < 500.0, "median error {median} km");
    }

    #[test]
    fn smaller_first_step_means_more_candidates() {
        let (w, net, vps) = setup();
        let small = greedy_coverage(&w, &vps, 5);
        let large = greedy_coverage(&w, &vps, 60);
        let target = w.host(w.anchors[0]);
        let o_small = run(&w, &net, &small, &vps, target.ip, 1);
        let o_large = run(&w, &net, &large, &vps, target.ip, 1);
        // Looser region (fewer step-1 VPs) should not yield fewer
        // candidates than the tight one.
        assert!(
            o_small.step2_candidates >= o_large.step2_candidates,
            "candidates: small={} large={}",
            o_small.step2_candidates,
            o_large.step2_candidates
        );
    }

    #[test]
    fn resilient_two_step_survives_hostile_faults() {
        use atlas_sim::faults::{FaultPlan, FaultProfile};
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 20);
        let run = || {
            let plan = FaultPlan::new(Seed(21), FaultProfile::Hostile);
            let res = Resilience::with_plan(&plan);
            let mut log = TargetLog::default();
            let out = geolocate(
                &w,
                &net,
                &res,
                &coverage,
                &vps,
                w.host(w.anchors[2]).ip,
                4,
                &mut log,
            );
            (
                out.cbg.map(|r| (r.estimate.lat(), r.estimate.lon())),
                out.measurements,
                format!("{log:?}"),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "hostile two-step not deterministic");
    }

    #[test]
    fn overhead_below_full_selection() {
        let (w, net, vps) = setup();
        let coverage = greedy_coverage(&w, &vps, 20);
        let target = w.host(w.anchors[3]);
        let out = run(&w, &net, &coverage, &vps, target.ip, 9);
        let full = (vps.len() * 3) as u64;
        assert!(
            out.measurements < full,
            "two-step ({}) not cheaper than full ({full})",
            out.measurements
        );
    }
}
