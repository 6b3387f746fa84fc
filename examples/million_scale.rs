//! The million-scale vantage-point selection (Hu et al., IMC 2012) and
//! the replication's two-step extension, side by side on one target.
//!
//! ```sh
//! cargo run --release -p ipgeo --example million_scale
//! ```

use geo_model::rng::Seed;
use ipgeo::million::{geolocate_with_selection, probe_representatives};
use ipgeo::two_step::{geolocate as two_step, greedy_coverage};
use ipgeo::{Resilience, TargetLog};
use net_sim::Network;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(Seed(7))).expect("valid preset");
    let net = Network::new(Seed(7));
    let vps: Vec<HostId> = world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect();
    let target = world.host(world.anchors[3]);
    // No fault plan: every batch takes the executor's direct path.
    let res = Resilience::none();
    let mut log = TargetLog::default();
    println!("target {} in {}", target.ip, world.city(target.city).name);

    // --- Original algorithm: all VPs probe the /24 representatives. ---
    let probe = probe_representatives(&world, &net, &res, &vps, target.ip, 1, &mut log);
    println!(
        "representatives of {}: {:?}",
        target.ip.prefix24(),
        probe
            .representatives
            .iter()
            .map(|r| r.ip.to_string())
            .collect::<Vec<_>>()
    );
    for k in [1usize, 3, 10] {
        let out = geolocate_with_selection(&world, &net, &res, &probe, target.ip, k, 1, &mut log);
        let err = out
            .cbg
            .as_ref()
            .map(|r| r.estimate.distance(&target.location).value());
        println!(
            "k={k}: {} measurements, error {:?} km (selected VPs: {:?})",
            out.measurements,
            err.map(|e| (e * 10.0).round() / 10.0),
            out.selected_vps.len()
        );
    }

    // --- Two-step extension (§5.1.4): coverage subset first. ---
    let full_overhead = vps.len() as u64 * 3;
    for s in [10usize, 30, 60] {
        let coverage = greedy_coverage(&world, &vps, s);
        let out = two_step(&world, &net, &res, &coverage, &vps, target.ip, 2, &mut log);
        let err = out
            .cbg
            .as_ref()
            .map(|r| r.estimate.distance(&target.location).value());
        println!(
            "two-step s={s}: {} measurements ({:.0}% of full {}), {} step-2 candidates, error {:?} km",
            out.measurements,
            100.0 * out.measurements as f64 / full_overhead as f64,
            full_overhead,
            out.step2_candidates,
            err.map(|e| (e * 10.0).round() / 10.0)
        );
    }
}
