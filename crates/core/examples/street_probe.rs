// Timing measurement is this code's purpose; the workspace bans
// wall-clock reads by default (see clippy.toml).
#![allow(clippy::disallowed_methods)]
use geo_model::rng::Seed;
use geo_model::stats;
use ipgeo::street::{geolocate, StreetConfig};
use ipgeo::{Resilience, TargetLog};
use net_sim::Network;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::{World, WorldConfig};

fn main() {
    let t0 = std::time::Instant::now();
    let mut w = World::generate(WorldConfig::paper(Seed(2023))).unwrap();
    let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).unwrap();
    println!(
        "world+eco in {:?}; entities={} websites={}",
        t0.elapsed(),
        eco.entities.len(),
        eco.websites.len()
    );
    let net = Network::new(Seed(2023));
    let clean: Vec<_> = w
        .anchors
        .iter()
        .copied()
        .filter(|&a| !w.host(a).is_mis_geolocated())
        .collect();
    let mut errs = Vec::new();
    let mut lm_counts = Vec::new();
    let mut neg_fracs = Vec::new();
    let mut times = Vec::new();
    let t1 = std::time::Instant::now();
    for (i, &target) in clean.iter().enumerate().take(40) {
        let vps: Vec<_> = clean.iter().copied().filter(|&a| a != target).collect();
        let out = geolocate(
            &w,
            &net,
            &eco,
            &Resilience::none(),
            &vps,
            target,
            &StreetConfig::default(),
            i as u64,
            &mut TargetLog::default(),
        );
        let th = w.host(target);
        if let Some(est) = out.estimate {
            errs.push(est.distance(&th.location).value());
        }
        lm_counts.push(out.landmarks.len() as f64);
        let measured: Vec<&_> = out
            .landmarks
            .iter()
            .filter(|l| l.delay_ms.is_some())
            .collect();
        if !measured.is_empty() {
            let neg = measured
                .iter()
                .filter(|l| l.delay_ms.unwrap() < 0.0)
                .count();
            neg_fracs.push(neg as f64 / measured.len() as f64);
        }
        times.push(out.virtual_secs);
    }
    println!("40 targets in {:?}", t1.elapsed());
    println!(
        "street err: median {:.1} km, <=40km {:.2}",
        stats::median(&errs).unwrap(),
        stats::fraction_at_most(&errs, 40.0)
    );
    println!(
        "landmarks/target: median {:.0}",
        stats::median(&lm_counts).unwrap()
    );
    println!(
        "neg d1d2 frac: median {:.2}",
        stats::median(&neg_fracs).unwrap_or(f64::NAN)
    );
    println!("virtual secs: median {:.0}", stats::median(&times).unwrap());
}
