//! Builds the paper's motivating deliverable: an explainable geolocation
//! dataset over the target prefixes, printing per-method accuracy and a
//! CSV preview.

use geo_model::ip::Prefix24;
use geo_model::stats;
use ipgeo::publish::{build_dataset, to_csv};
use ipgeo::Resilience;
use std::collections::HashMap;

fn main() {
    let d = bench::load_dataset();
    let prefixes: Vec<Prefix24> = d
        .targets
        .iter()
        .map(|&t| d.world.host(t).ip.prefix24())
        .collect();
    // A coverage subset keeps the latency tier affordable.
    let mesh = ipgeo::two_step::greedy_coverage(&d.world, &d.vps, 500);
    let (ds, _) = build_dataset(&d.world, &d.net, &Resilience::none(), &mesh, &prefixes, 1);

    let mut per_method: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for e in &ds {
        let target = d
            .targets
            .iter()
            .map(|&t| d.world.host(t))
            .find(|h| h.ip.prefix24() == e.prefix)
            .expect("dataset prefixes come from targets");
        per_method
            .entry(e.evidence.method())
            .or_default()
            .push(e.location.distance(&target.location).value());
    }
    println!("## Explainable geolocation dataset ({} prefixes)", ds.len());
    println!("| method | prefixes | median error (km) | city level |");
    println!("|---|---|---|---|");
    let mut methods: Vec<_> = per_method.into_iter().collect();
    methods.sort_by_key(|(m, _)| *m);
    for (method, errs) in methods {
        println!(
            "| {method} | {} | {:.1} | {:.0}% |",
            errs.len(),
            stats::median(&errs).unwrap_or(f64::NAN),
            100.0 * stats::fraction_at_most(&errs, 40.0)
        );
    }
    println!("\nCSV preview:");
    for line in to_csv(&ds).lines().take(8) {
        println!("  {line}");
    }
}
