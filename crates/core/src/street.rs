//! The street-level three-tier technique (Wang et al., NSDI 2011; §3.2 of
//! the replication).
//!
//! - **Tier 1**: ping the target from the vantage points (the replication
//!   uses the RIPE Atlas anchors), run CBG at 4/9 c (falling back to 2/3 c
//!   when the aggressive factor leaves no intersection, as happened for 5
//!   of the paper's targets), and take the centroid.
//! - **Tier 2**: sample concentric circles (radius step 5 km, angle 36°)
//!   around the centroid while they still cut the CBG region; reverse
//!   geocode each sample point, fetch the POIs of its zip code, and keep
//!   the websites that pass the three locality tests as landmarks. Run
//!   traceroutes from the 10 closest VPs to each landmark and to the
//!   target, and derive the landmark–target delay `D1 + D2` from the last
//!   common hop — a computation that needs reverse-path information the
//!   measurements do not carry, which is why many values come out negative
//!   (Appendix B, Fig. 6a). Landmark circles from the usable delays bound
//!   a new, smaller region.
//! - **Tier 3**: repeat tier 2 from the new centroid at finer granularity
//!   (step 1 km, angle 10°), then map the target to the landmark with the
//!   smallest usable delay.
//!
//! Every outcome carries its measurement cost and a virtual-time estimate
//! (mapping-service rate limits, locality-test fetches, measurement API
//! round trips) for the Fig. 6c scalability analysis.

use crate::cbg::{cbg_with, vp_measurements, CbgResult};
use crate::resilient::{self, Resilience, TargetLog};
use geo_model::constraint::{Circle, Region, RegionScratch};
use geo_model::point::GeoPoint;
use geo_model::rng::splitmix64;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Km;
use net_sim::{Network, Traceroute};
use std::collections::HashSet;
use web_sim::ecosystem::WebEcosystem;
use web_sim::locality::{LocalityTester, Verdict};
use web_sim::services::MappingServices;
use web_sim::EntityId;
use world_sim::ids::HostId;
use world_sim::World;

/// Street-level pipeline parameters (paper values as defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct StreetConfig {
    /// Speed factor for constraint circles (4/9 c per the original paper).
    pub soi: SpeedOfInternet,
    /// Tier-2 ring spacing, km.
    pub tier2_step_km: f64,
    /// Tier-2 points per ring (360 / 36°).
    pub tier2_points: usize,
    /// Tier-3 ring spacing, km.
    pub tier3_step_km: f64,
    /// Tier-3 points per ring (360 / 10°).
    pub tier3_points: usize,
    /// Maximum rings per tier (safety cap; the stop rule is "no point of
    /// the ring is inside the region").
    pub max_rings: usize,
    /// Vantage points used per landmark (the replication's reduction: the
    /// 10 closest VPs instead of all of them).
    pub vps_per_landmark: usize,
    /// Cap on landmarks measured per target (cost control).
    pub max_landmarks: usize,
    /// Effective seconds per locality test (DNS + two fetches, with the
    /// pipeline's concurrency).
    pub secs_per_test: f64,
    /// Seconds per measurement-API round trip (create + poll).
    pub api_round_secs: f64,
}

impl Default for StreetConfig {
    fn default() -> StreetConfig {
        StreetConfig {
            soi: SpeedOfInternet::STREET_LEVEL,
            tier2_step_km: 5.0,
            tier2_points: 10,
            tier3_step_km: 1.0,
            tier3_points: 36,
            max_rings: 60,
            vps_per_landmark: 10,
            max_landmarks: 400,
            secs_per_test: 0.12,
            api_round_secs: 150.0,
        }
    }
}

/// One landmark's observation.
#[derive(Debug, Clone)]
pub struct LandmarkObs {
    /// The entity acting as landmark.
    pub entity: EntityId,
    /// Where its postal address claims it is.
    pub claimed_location: GeoPoint,
    /// All per-VP `D1 + D2` values (ms, one-way; negative = unusable).
    pub d1d2_values: Vec<f64>,
    /// The selected delay: minimum `D1 + D2` across VPs, if any pair of
    /// traceroutes shared a responsive common hop.
    pub delay_ms: Option<f64>,
}

impl LandmarkObs {
    /// True if the selected delay exists and is non-negative.
    pub fn usable(&self) -> bool {
        self.delay_ms.is_some_and(|d| d >= 0.0)
    }
}

/// The full outcome for one target.
#[derive(Debug, Clone)]
pub struct StreetOutcome {
    /// The target.
    pub target: HostId,
    /// Tier-1 CBG result.
    pub tier1: Option<CbgResult>,
    /// Final street-level estimate (landmark location, or a centroid
    /// fallback). `None` only if even tier 1 failed.
    pub estimate: Option<GeoPoint>,
    /// The landmark the target was mapped to, if any.
    pub chosen_landmark: Option<EntityId>,
    /// All landmarks observed across tiers 2 and 3.
    pub landmarks: Vec<LandmarkObs>,
    /// Vantage points used for tiers 2/3.
    pub vps_used: Vec<HostId>,
    /// Mapping-service queries (reverse geocoding + POI).
    pub mapping_queries: u64,
    /// Locality tests run.
    pub locality_tests: u64,
    /// Traceroutes run.
    pub traceroutes: u64,
    /// Virtual seconds the whole pipeline took.
    pub virtual_secs: f64,
    /// True if tier 1 needed the 2/3 c fallback.
    pub used_fallback_soi: bool,
}

/// Geolocates one target with the street-level technique, every
/// measurement batch routed through the resilient executor.
///
/// `vps` are the tier-1 vantage points (anchors, excluding the target
/// itself); they must already be sanitized.
#[allow(clippy::too_many_arguments)]
pub fn geolocate(
    world: &World,
    net: &Network,
    eco: &WebEcosystem,
    res: &Resilience,
    vps: &[HostId],
    target: HostId,
    cfg: &StreetConfig,
    nonce: u64,
    log: &mut TargetLog,
) -> StreetOutcome {
    let target_ip = world.host(target).ip;
    let mut virtual_secs = 0.0;
    // One set of intersection buffers serves the tier-1 CBG and the
    // landmark-region intersections for this target.
    let mut scratch = RegionScratch::new();
    let mut services = MappingServices::new();
    let mut tester = LocalityTester::new(net.seed().derive_index("street", nonce));

    // ---- Tier 1 ----
    let mut tier1_batch = Vec::new();
    resilient::ping_batch_keyed_into(
        world,
        net,
        res,
        vps,
        target_ip,
        3,
        nonce,
        |_, vp: HostId| splitmix64(nonce ^ vp.0 as u64),
        log,
        &mut tier1_batch,
    );
    let tier1_ms = vp_measurements(world, &tier1_batch);
    virtual_secs += cfg.api_round_secs; // one ping campaign
    let tier1 = cbg_with(&tier1_ms, cfg.soi, &mut scratch);

    let Some(tier1_result) = tier1 else {
        return StreetOutcome {
            target,
            tier1: None,
            estimate: None,
            chosen_landmark: None,
            landmarks: Vec::new(),
            vps_used: Vec::new(),
            mapping_queries: services.geocoder.queries() + services.poi.queries(),
            locality_tests: 0,
            traceroutes: 0,
            virtual_secs,
            used_fallback_soi: false,
        };
    };
    let used_fallback_soi = tier1_result.used_fallback_soi;

    // The 10 VPs closest to the target by tier-1 RTT run the traceroutes.
    let mut by_rtt = tier1_ms.clone();
    by_rtt.sort_by(|a, b| a.rtt.total_cmp(&b.rtt));
    let trace_vps: Vec<HostId> = by_rtt
        .iter()
        .take(cfg.vps_per_landmark)
        .map(|m| m.vp)
        .collect();

    // Traceroutes from each VP to the target (reused for all landmarks).
    // Results pair with landmark traceroutes by VP id, so a VP lost to
    // churn here simply contributes no D1+D2 value later.
    let target_traces: Vec<(HostId, Traceroute)> = resilient::traceroute_batch_keyed(
        world,
        net,
        res,
        &trace_vps,
        target_ip,
        nonce ^ 0x7714,
        |_, vp: HostId| splitmix64(nonce ^ 0x7714 ^ vp.0 as u64),
        log,
    );
    let mut traceroutes: u64 = target_traces.len() as u64;

    let mut seen_entities: HashSet<EntityId> = HashSet::new();
    let mut landmarks: Vec<LandmarkObs> = Vec::new();

    // ---- Tier 2 ----
    let mut region = tier1_result.region.clone();
    let mut centroid = tier1_result.estimate;
    let found2 = discover(
        world,
        eco,
        &mut services,
        &mut tester,
        &centroid,
        &region,
        cfg.tier2_step_km,
        cfg.tier2_points,
        cfg,
        &mut seen_entities,
    );
    measure_landmarks(
        world,
        net,
        eco,
        res,
        &trace_vps,
        &target_traces,
        &found2,
        cfg,
        nonce,
        &mut landmarks,
        &mut traceroutes,
        log,
    );
    virtual_secs += cfg.api_round_secs; // the tier-2 traceroute wave

    // New region from usable landmark delays.
    let lm_circles: Vec<Circle> = landmarks
        .iter()
        .filter(|l| l.usable())
        .map(|l| {
            Circle::new(
                l.claimed_location,
                Km(l.delay_ms.expect("usable") * cfg.soi.km_per_ms()),
            )
        })
        .collect();
    if !lm_circles.is_empty() {
        let lm_region = Region::from_circles(lm_circles);
        if let Some(est) = lm_region.intersect_with(&mut scratch) {
            centroid = est.centroid;
            region = lm_region;
        }
    }

    // ---- Tier 3 ----
    let found3 = discover(
        world,
        eco,
        &mut services,
        &mut tester,
        &centroid,
        &region,
        cfg.tier3_step_km,
        cfg.tier3_points,
        cfg,
        &mut seen_entities,
    );
    measure_landmarks(
        world,
        net,
        eco,
        res,
        &trace_vps,
        &target_traces,
        &found3,
        cfg,
        nonce ^ 0x3333,
        &mut landmarks,
        &mut traceroutes,
        log,
    );
    virtual_secs += cfg.api_round_secs; // the tier-3 traceroute wave

    // ---- Final mapping: smallest usable delay wins. ----
    let chosen = landmarks.iter().filter(|l| l.usable()).min_by(|a, b| {
        a.delay_ms
            .expect("usable")
            .total_cmp(&b.delay_ms.expect("usable"))
    });
    let (estimate, chosen_landmark) = match chosen {
        Some(l) => (Some(l.claimed_location), Some(l.entity)),
        None => (Some(centroid), None),
    };

    virtual_secs += services.total_time_secs();
    virtual_secs += tester.tests_run() as f64 * cfg.secs_per_test;

    StreetOutcome {
        target,
        tier1: Some(tier1_result),
        estimate,
        chosen_landmark,
        landmarks,
        vps_used: trace_vps,
        mapping_queries: services.geocoder.queries() + services.poi.queries(),
        locality_tests: tester.tests_run(),
        traceroutes,
        virtual_secs,
        used_fallback_soi,
    }
}

/// Concentric-circle landmark discovery around `center` within `region`.
#[allow(clippy::too_many_arguments)]
fn discover(
    world: &World,
    eco: &WebEcosystem,
    services: &mut MappingServices,
    tester: &mut LocalityTester,
    center: &GeoPoint,
    region: &Region,
    step_km: f64,
    points_per_ring: usize,
    cfg: &StreetConfig,
    seen: &mut HashSet<EntityId>,
) -> Vec<EntityId> {
    let mut found = Vec::new();
    let mut queried_zips: HashSet<world_sim::ids::ZipCode> = HashSet::new();

    // Ring 0: the centroid itself.
    probe_point(
        world,
        eco,
        services,
        tester,
        center,
        seen,
        &mut queried_zips,
        &mut found,
    );

    for ring in 1..=cfg.max_rings {
        let radius = Km(ring as f64 * step_km);
        let step = 360.0 / points_per_ring as f64;
        let mut any_inside = false;
        for k in 0..points_per_ring {
            let p = center.destination(k as f64 * step, radius);
            if !region.contains(&p) {
                continue;
            }
            any_inside = true;
            if seen.len() >= cfg.max_landmarks * 50 || found.len() >= cfg.max_landmarks {
                continue;
            }
            probe_point(
                world,
                eco,
                services,
                tester,
                &p,
                seen,
                &mut queried_zips,
                &mut found,
            );
        }
        if !any_inside {
            break; // the paper's stop rule
        }
    }
    found
}

/// Reverse-geocodes one sample point and tests the POIs of its (uncached)
/// zip code, appending the landmarks that pass.
#[allow(clippy::too_many_arguments)]
fn probe_point(
    world: &World,
    eco: &WebEcosystem,
    services: &mut MappingServices,
    tester: &mut LocalityTester,
    p: &GeoPoint,
    seen: &mut HashSet<EntityId>,
    queried_zips: &mut HashSet<world_sim::ids::ZipCode>,
    found: &mut Vec<EntityId>,
) {
    let Some(zip) = services.reverse_geocode(world, p) else {
        return;
    };
    if !queried_zips.insert(zip) {
        return; // cached (§5.2.5: the paper caches mapping queries)
    }
    for eid in services.pois_with_website(eco, zip) {
        if !seen.insert(eid) {
            continue;
        }
        let entity = eco.entity(eid);
        if tester.test(eco, entity, zip) == Verdict::Landmark {
            found.push(eid);
        }
    }
}

/// Runs traceroutes to each new landmark and derives `D1 + D2`. Landmark
/// and target traceroutes pair by vantage-point id, so a VP whose probe
/// churned out of either wave contributes no value instead of misaligning
/// the computation.
#[allow(clippy::too_many_arguments)]
fn measure_landmarks(
    world: &World,
    net: &Network,
    eco: &WebEcosystem,
    res: &Resilience,
    trace_vps: &[HostId],
    target_traces: &[(HostId, Traceroute)],
    found: &[EntityId],
    cfg: &StreetConfig,
    nonce: u64,
    landmarks: &mut Vec<LandmarkObs>,
    traceroutes: &mut u64,
    log: &mut TargetLog,
) {
    for &eid in found.iter().take(cfg.max_landmarks) {
        let entity = eco.entity(eid);
        let lm_ip = world.host(eco.website(entity.website).server).ip;
        let lm_key = nonce ^ ((eid.0 as u64) << 20);
        let batch = resilient::traceroute_batch_keyed(
            world,
            net,
            res,
            trace_vps,
            lm_ip,
            lm_key,
            |_, vp: HostId| splitmix64(lm_key ^ vp.0 as u64),
            log,
        );
        *traceroutes += batch.len() as u64;
        let mut values = Vec::new();
        for (vp, tr_lm) in &batch {
            let Some((_, tr_t)) = target_traces.iter().find(|(v, _)| v == vp) else {
                continue;
            };
            let Some(d) = d1_plus_d2(tr_lm, tr_t) else {
                continue;
            };
            values.push(d);
        }
        let delay = values.iter().copied().min_by(|a, b| a.total_cmp(b));
        landmarks.push(LandmarkObs {
            entity: eid,
            claimed_location: entity.location,
            d1d2_values: values,
            delay_ms: delay,
        });
    }
}

/// The `D1 + D2` computation of Fig. 1c / Appendix B: find the last common
/// hop `R1` of the two traceroutes, subtract its RTT from the destination
/// RTTs (halving to approximate one-way delays), and sum. Requires both
/// destinations and both `R1` observations to have answered.
pub fn d1_plus_d2(to_landmark: &Traceroute, to_target: &Traceroute) -> Option<f64> {
    let (i_lm, wp) = to_landmark.last_common_hop(to_target)?;
    let rtt_l = to_landmark.dst_rtt?;
    let rtt_t = to_target.dst_rtt?;
    let r1_lm = to_landmark.hops[i_lm].rtt?;
    let r1_t = to_target
        .hops
        .iter()
        .find(|h| h.waypoint == wp)
        .and_then(|h| h.rtt)?;
    let d1 = (rtt_l - r1_lm).value() / 2.0;
    let d2 = (rtt_t - r1_t).value() / 2.0;
    Some(d1 + d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use web_sim::ecosystem::WebConfig;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network, WebEcosystem) {
        let mut w = World::generate(WorldConfig::small(Seed(211))).unwrap();
        let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).unwrap();
        let net = Network::new(Seed(211));
        (w, net, eco)
    }

    /// Fault-free run that discards the executor log.
    fn run(
        w: &World,
        net: &Network,
        eco: &WebEcosystem,
        vps: &[HostId],
        target: HostId,
        nonce: u64,
    ) -> StreetOutcome {
        let mut log = TargetLog::default();
        let cfg = StreetConfig::default();
        geolocate(
            w,
            net,
            eco,
            &Resilience::none(),
            vps,
            target,
            &cfg,
            nonce,
            &mut log,
        )
    }

    fn clean_anchor_vps(w: &World, exclude: HostId) -> Vec<HostId> {
        w.anchors
            .iter()
            .copied()
            .filter(|&a| a != exclude && !w.host(a).is_mis_geolocated())
            .collect()
    }

    #[test]
    fn pipeline_produces_estimate_and_costs() {
        let (w, net, eco) = setup();
        let target = w.anchors[0];
        let vps = clean_anchor_vps(&w, target);
        let out = run(&w, &net, &eco, &vps, target, 1);
        assert!(out.tier1.is_some());
        let est = out.estimate.expect("estimate");
        let err = est.distance(&w.host(target).location).value();
        assert!(err < 3000.0, "error {err} km");
        assert!(out.mapping_queries > 0, "no mapping queries issued");
        assert!(out.virtual_secs > 100.0, "virtual time unaccounted");
        assert!(out.vps_used.len() <= 10);
    }

    #[test]
    fn outcome_is_deterministic() {
        let (w, net, eco) = setup();
        let target = w.anchors[1];
        let vps = clean_anchor_vps(&w, target);
        let a = run(&w, &net, &eco, &vps, target, 5);
        let b = run(&w, &net, &eco, &vps, target, 5);
        assert_eq!(
            a.estimate.map(|p| (p.lat(), p.lon())),
            b.estimate.map(|p| (p.lat(), p.lon()))
        );
        assert_eq!(a.landmarks.len(), b.landmarks.len());
        assert_eq!(a.mapping_queries, b.mapping_queries);
    }

    #[test]
    fn some_landmarks_have_negative_delays() {
        // The Fig. 6a phenomenon: asymmetric reverse paths make D1 + D2
        // negative for a meaningful share of landmarks.
        let (w, net, eco) = setup();
        let mut negative = 0usize;
        let mut measured = 0usize;
        for &target in w.anchors.iter().take(8) {
            let vps = clean_anchor_vps(&w, target);
            let out = run(&w, &net, &eco, &vps, target, 77);
            for lm in &out.landmarks {
                if let Some(d) = lm.delay_ms {
                    measured += 1;
                    if d < 0.0 {
                        negative += 1;
                    }
                }
            }
        }
        // Miniature worlds may find few landmarks; only assert when there
        // is signal.
        if measured >= 20 {
            assert!(
                negative > 0,
                "no negative D1+D2 among {measured} landmarks — asymmetry model broken?"
            );
        }
    }

    #[test]
    fn resilient_street_survives_hostile_faults() {
        use atlas_sim::faults::{FaultPlan, FaultProfile};
        let (w, net, eco) = setup();
        let target = w.anchors[3];
        let vps = clean_anchor_vps(&w, target);
        let run = || {
            let plan = FaultPlan::new(Seed(31), FaultProfile::Hostile);
            let res = Resilience::with_plan(&plan);
            let mut log = TargetLog::default();
            let out = geolocate(
                &w,
                &net,
                &eco,
                &res,
                &vps,
                target,
                &StreetConfig::default(),
                6,
                &mut log,
            );
            (
                out.estimate.map(|p| (p.lat(), p.lon())),
                out.landmarks.len(),
                out.traceroutes,
                format!("{log:?}"),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "hostile street-level not deterministic");
    }

    #[test]
    fn d1d2_requires_common_responsive_hop() {
        let (w, net, _) = setup();
        let vp = w.anchors[2];
        let t1 = net.traceroute(&w, vp, w.host(w.anchors[3]).ip, 1);
        let t2 = net.traceroute(&w, vp, w.host(w.anchors[4]).ip, 1);
        // Either a value or None — must not panic.
        let _ = d1_plus_d2(&t1, &t2);
        // Traceroute with no hops yields None.
        let empty = Traceroute {
            src: vp,
            dst: w.host(w.anchors[3]).ip,
            hops: Vec::new(),
            dst_rtt: None,
        };
        assert!(d1_plus_d2(&empty, &t2).is_none());
    }
}
