//! Cross-crate integration: world generation → network simulation →
//! measurement platform → sanitization → classic geolocation.

use atlas_sim::{CreditAccount, Platform};
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use geo_model::stats;
use ipgeo::cbg::{cbg, shortest_ping, VpMeasurement};
use net_sim::Network;
use world_sim::{World, WorldConfig};

fn setup() -> (World, Network) {
    let w = World::generate(WorldConfig::small(Seed(1001))).expect("world generates");
    let net = Network::new(Seed(1001));
    (w, net)
}

/// The full §4 pipeline: mesh, sanitize anchors, sanitize probes — then
/// CBG with the surviving VPs is accurate at city level for most targets.
#[test]
fn sanitized_cbg_end_to_end() {
    let (w, net) = setup();
    let mut platform = Platform::new(CreditAccount::upgraded());

    let mesh = platform.anchor_mesh(&w, &net, &w.anchors).expect("mesh");
    let anchors = ipgeo::sanitize_anchors(&w, &w.anchors, &mesh, SpeedOfInternet::CBG);
    assert!(anchors.kept.len() >= w.anchors.len() - 3);

    let rtts =
        geo_model::matrix::DelayMatrix::par_build(w.probes.len(), anchors.kept.len(), |p, row| {
            for (a, slot) in anchors.kept.iter().zip(row.iter_mut()) {
                *slot = geo_model::matrix::DelayMatrix::cell(
                    net.ping_min(&w, w.probes[p], w.host(*a).ip, 3, 11).rtt(),
                );
            }
        });
    let probes = ipgeo::sanitize_probes(&w, &w.probes, &anchors.kept, &rtts, SpeedOfInternet::CBG);

    // Geolocate every surviving anchor with CBG over surviving probes.
    let mut errors = Vec::new();
    for (ai, &target) in anchors.kept.iter().enumerate() {
        let ms: Vec<VpMeasurement> = probes
            .kept
            .iter()
            .filter_map(|&vp| {
                let p = w.probes.iter().position(|&x| x == vp).expect("known probe");
                rtts.get(p, ai).map(|rtt| VpMeasurement {
                    vp,
                    location: w.host(vp).registered_location,
                    rtt,
                })
            })
            .collect();
        if let Some(r) = cbg(&ms, SpeedOfInternet::CBG) {
            errors.push(r.estimate.distance(&w.host(target).location).value());
        }
    }
    assert!(
        errors.len() >= anchors.kept.len() - 3,
        "too many empty regions"
    );
    let median = stats::median(&errors).expect("errors nonempty");
    assert!(median < 150.0, "median error {median} km too large");
    // City-level for a solid majority.
    assert!(
        stats::fraction_at_most(&errors, 100.0) > 0.6,
        "city-level fraction too small"
    );
}

/// Shortest ping agrees with CBG to within the same order of magnitude.
#[test]
fn shortest_ping_vs_cbg() {
    let (w, net) = setup();
    let target = w.host(w.anchors[0]).clone();
    let ms: Vec<VpMeasurement> = w
        .probes
        .iter()
        .filter(|&&p| !w.host(p).is_mis_geolocated())
        .filter_map(|&vp| {
            net.ping_min(&w, vp, target.ip, 3, 5)
                .rtt()
                .map(|rtt| VpMeasurement {
                    vp,
                    location: w.host(vp).registered_location,
                    rtt,
                })
        })
        .collect();
    let sp = shortest_ping(&ms).expect("measurements exist");
    let sp_err = sp.location.distance(&target.location).value();
    let cbg_err = cbg(&ms, SpeedOfInternet::CBG)
        .expect("region nonempty")
        .estimate
        .distance(&target.location)
        .value();
    assert!(sp_err < 500.0, "shortest ping err {sp_err}");
    assert!(cbg_err < 500.0, "cbg err {cbg_err}");
}

/// Platform accounting: the anchor-mesh download charges 3 credits per
/// ordered pair and one API round trip of virtual time.
#[test]
fn platform_accounting_end_to_end() {
    let (w, net) = setup();
    let mut platform = Platform::new(CreditAccount::new(1_000_000));
    platform
        .anchor_mesh(&w, &net, &w.anchors[..20])
        .expect("mesh");
    assert_eq!(platform.credits().spent(), 20 * 19 * 3);
    assert_eq!(platform.credits().balance(), 1_000_000 - 20 * 19 * 3);
    assert!(platform.clock().now_secs() > 30.0);
}

/// The same seed reproduces the same full pipeline outcome; a different
/// seed produces a different world.
#[test]
fn determinism_across_full_stack() {
    let run = |seed: u64| -> (usize, f64) {
        let w = World::generate(WorldConfig::small(Seed(seed))).expect("world");
        let net = Network::new(Seed(seed));
        let target = w.host(w.anchors[0]).clone();
        let sum: f64 = w
            .probes
            .iter()
            .take(50)
            .filter_map(|&p| net.ping_min(&w, p, target.ip, 3, 1).rtt())
            .map(|m| m.value())
            .sum();
        (w.hosts.len(), sum)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}
