//! A walkthrough of the street-level three-tier technique (Wang et al.,
//! NSDI 2011) for one target: tier-1 CBG, landmark discovery through the
//! mapping services, `D1 + D2` delays, and the final mapping.
//!
//! ```sh
//! cargo run --release -p ipgeo --example street_level
//! ```

use geo_model::rng::Seed;
use ipgeo::street::{geolocate, StreetConfig};
use ipgeo::{Resilience, TargetLog};
use net_sim::Network;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::{World, WorldConfig};

fn main() {
    let mut world = World::generate(WorldConfig::small(Seed(99))).expect("valid preset");
    let eco = WebEcosystem::generate(&mut world, &WebConfig::default()).expect("valid web config");
    let net = Network::new(Seed(99));
    println!(
        "web ecosystem: {} entities, {} websites",
        eco.entities.len(),
        eco.websites.len()
    );

    let target = world.anchors[2];
    let target_host = world.host(target).clone();
    let vps: Vec<_> = world
        .anchors
        .iter()
        .copied()
        .filter(|&a| a != target && !world.host(a).is_mis_geolocated())
        .collect();

    let out = geolocate(
        &world,
        &net,
        &eco,
        &Resilience::none(),
        &vps,
        target,
        &StreetConfig::default(),
        0,
        &mut TargetLog::default(),
    );

    if let Some(t1) = &out.tier1 {
        println!(
            "tier 1: CBG centroid {} ({}), error {:.1} km",
            t1.estimate,
            if out.used_fallback_soi {
                "2/3c fallback"
            } else {
                "4/9c"
            },
            t1.estimate.distance(&target_host.location).value()
        );
    }
    println!(
        "tiers 2+3: {} mapping queries, {} locality tests, {} landmarks, {} traceroutes",
        out.mapping_queries,
        out.locality_tests,
        out.landmarks.len(),
        out.traceroutes
    );
    let unusable = out
        .landmarks
        .iter()
        .filter(|l| l.delay_ms.is_none_or(|d| d < 0.0))
        .count();
    println!(
        "{unusable}/{} landmarks have no usable D1+D2 delay",
        out.landmarks.len()
    );
    match (out.estimate, out.chosen_landmark) {
        (Some(est), Some(lm)) => println!(
            "final: mapped to landmark {:?} at {} -> error {:.1} km (virtual time {:.0} s)",
            lm,
            est,
            est.distance(&target_host.location).value(),
            out.virtual_secs
        ),
        (Some(est), None) => println!(
            "final: centroid fallback {} -> error {:.1} km (virtual time {:.0} s)",
            est,
            est.distance(&target_host.location).value(),
            out.virtual_secs
        ),
        _ => println!("tier 1 failed; no estimate"),
    }
}
