//! Figure 5 — the street-level technique: end-to-end accuracy (5a),
//! landmark availability (5b), and the distance-order insight (5c).

use crate::dataset::Dataset;
use crate::report::{log_thresholds, Report, Table};
use geo_model::soi::SpeedOfInternet;
use geo_model::stats;
use geo_model::units::Km;
use ipgeo::cbg::{cbg, VpMeasurement};
use ipgeo::oracle::closest_landmark;
use ipgeo::street::{geolocate, StreetConfig, StreetOutcome};
use ipgeo::{Resilience, TargetLog};
use web_sim::locality::LocalityTester;

/// Street-level outcomes for the street target sample; computed once and
/// shared by Figures 5a–5c and 6a–6c.
pub struct StreetSet {
    /// (target index, outcome) pairs.
    pub outcomes: Vec<(usize, StreetOutcome)>,
}

impl StreetSet {
    /// Runs the three-tier pipeline for the configured street sample.
    pub fn compute(d: &Dataset) -> StreetSet {
        let n = d
            .scale
            .street_sample
            .unwrap_or(d.targets.len())
            .min(d.targets.len());
        let stride = d.targets.len() as f64 / n as f64;
        let cfg = StreetConfig::default();
        // Target-parallel: each three-tier run is a pure function of the
        // target index, so the outcome list is identical at any
        // `IPGEO_THREADS`.
        let outcomes = geo_model::runtime::par_map_indexed(n, |i| {
            let t = (i as f64 * stride) as usize;
            let target = d.targets[t];
            let vps: Vec<_> = d.anchors.iter().copied().filter(|&a| a != target).collect();
            let mut log = TargetLog::default();
            let out = geolocate(
                &d.world,
                &d.net,
                &d.eco,
                &Resilience::none(),
                &vps,
                target,
                &cfg,
                t as u64,
                &mut log,
            );
            (t, out)
        });
        StreetSet { outcomes }
    }
}

/// The "CBG" line of Figure 5a: classic CBG (2/3 c) from the anchor VPs,
/// using the meshed anchor RTT matrix.
fn anchor_cbg_error(d: &Dataset, target_idx: usize) -> Option<f64> {
    let target = d.targets[target_idx];
    let aidx = d.anchors.iter().position(|&a| a == target)?;
    let ms: Vec<VpMeasurement> = d
        .anchors
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != aidx)
        .filter_map(|(i, &vp)| {
            d.anchor_rtt.get(i, aidx).map(|rtt| VpMeasurement {
                vp,
                location: d.world.host(vp).registered_location,
                rtt,
            })
        })
        .collect();
    let r = cbg(&ms, SpeedOfInternet::CBG)?;
    Some(d.error_km(target_idx, &r.estimate))
}

/// Figure 5a: street level vs CBG vs the closest-landmark oracle.
pub fn fig5a(d: &Dataset, set: &StreetSet) -> Report {
    let mut report = Report::new("Figure 5a — street level vs CBG vs closest-landmark oracle");
    let xs = log_thresholds(0.1, 10_000.0, 4);
    let mut street = Vec::new();
    let mut cbg_errs = Vec::new();
    let mut oracle_errs = Vec::new();
    let mut no_landmark = 0usize;
    let mut fallback_soi = 0usize;

    for (t, out) in &set.outcomes {
        let cbg_err = anchor_cbg_error(d, *t);
        if let Some(e) = cbg_err {
            cbg_errs.push(e);
        }
        if let Some(est) = out.estimate {
            street.push(d.error_km(*t, &est));
        }
        if out.used_fallback_soi {
            fallback_soi += 1;
        }
        // Oracle: closest passed landmark; CBG fallback when none exists
        // (the paper's 46 targets).
        let ids: Vec<_> = out.landmarks.iter().map(|l| l.entity).collect();
        let true_loc = d.target_host(*t).location;
        match closest_landmark(&d.eco, &ids, &true_loc) {
            Some((_, dist)) => oracle_errs.push(dist.value()),
            None => {
                no_landmark += 1;
                if let Some(e) = cbg_err {
                    oracle_errs.push(e);
                }
            }
        }
    }

    report.note(format!(
        "street level: median {:.1} km | CBG: median {:.1} km | oracle: {:.0}% within 1 km",
        stats::median(&street).unwrap_or(f64::NAN),
        stats::median(&cbg_errs).unwrap_or(f64::NAN),
        100.0 * stats::fraction_at_most(&oracle_errs, 1.0)
    ));
    report.note(format!(
        "{no_landmark} targets had no landmark (CBG fallback); {fallback_soi} needed the 2/3c fallback"
    ));
    let series = vec![
        ("Street Level".to_string(), stats::cdf_at(&street, &xs)),
        ("CBG".to_string(), stats::cdf_at(&cbg_errs, &xs)),
        (
            "Closest Landmark".to_string(),
            stats::cdf_at(&oracle_errs, &xs),
        ),
    ];
    report.cdf_section("CDF of targets", "error (km)", &xs, &series);
    report
}

/// Figure 5b: number of targets with at least one landmark within
/// 1/5/10/40 km, with and without the additional latency check.
pub fn fig5b(d: &Dataset, set: &StreetSet) -> Report {
    let mut report = Report::new("Figure 5b — targets with a close landmark");
    let tester = LocalityTester::new(d.scale.seed.derive("fig5b"));
    let distances = [1.0f64, 5.0, 10.0, 40.0];
    let mut plain = [0usize; 4];
    let mut checked = [0usize; 4];
    let total = set.outcomes.len();
    let mut candidates = 0u64;
    let mut passed = 0u64;

    for (t, out) in &set.outcomes {
        let true_loc = d.target_host(*t).location;
        let target = d.targets[*t];
        candidates += out.locality_tests;
        passed += out.landmarks.len() as u64;
        let mut best_plain = f64::INFINITY;
        let mut best_checked = f64::INFINITY;
        for lm in &out.landmarks {
            let dist = lm.claimed_location.distance(&true_loc).value();
            best_plain = best_plain.min(dist);
            if dist <= 40.0 {
                let entity = d.eco.entity(lm.entity);
                if tester.latency_check(&d.world, &d.net, &d.eco, target, entity) {
                    best_checked = best_checked.min(dist);
                }
            }
        }
        for (i, &cut) in distances.iter().enumerate() {
            if best_plain <= cut {
                plain[i] += 1;
            }
            if best_checked <= cut {
                checked[i] += 1;
            }
        }
    }

    report.note(format!(
        "{passed} landmarks passed out of {candidates} tested candidates ({:.1}%)",
        100.0 * passed as f64 / candidates.max(1) as f64
    ));
    let mut table = Table {
        heading: "targets with at least one close landmark".into(),
        columns: [
            "landmark distance",
            "# of targets",
            "# with latency-checked landmarks",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows: Vec::new(),
    };
    for (i, &cut) in distances.iter().enumerate() {
        table.rows.push(vec![
            format!("{cut:.0} km"),
            format!(
                "{} ({:.0}%)",
                plain[i],
                100.0 * plain[i] as f64 / total as f64
            ),
            format!(
                "{} ({:.0}%)",
                checked[i],
                100.0 * checked[i] as f64 / total as f64
            ),
        ]);
    }
    report.table(table);
    report
}

/// Figure 5c: measured vs geographic distance; the order-preservation
/// insight, summarized by the median per-target Pearson correlation.
pub fn fig5c(d: &Dataset, set: &StreetSet) -> Report {
    let mut report =
        Report::new("Figure 5c — measured vs geographic landmark distances (order preservation)");
    let speed = SpeedOfInternet::STREET_LEVEL.km_per_ms();
    let mut correlations = Vec::new();
    let mut example = Table {
        heading: "example target scatter (first target with >= 8 usable landmarks)".into(),
        columns: ["geographic distance (km)", "measured distance (km)"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: Vec::new(),
    };

    for (t, out) in &set.outcomes {
        let true_loc = d.target_host(*t).location;
        let mut geo = Vec::new();
        let mut meas = Vec::new();
        for lm in &out.landmarks {
            let Some(delay) = lm.delay_ms else { continue };
            if delay < 0.0 {
                continue;
            }
            geo.push(lm.claimed_location.distance(&true_loc).value());
            meas.push(delay * speed);
        }
        if let Some(r) = stats::pearson(&geo, &meas) {
            correlations.push(r);
        }
        if example.rows.is_empty() && geo.len() >= 8 {
            for (g, m) in geo.iter().zip(&meas).take(20) {
                example
                    .rows
                    .push(vec![format!("{g:.2}"), format!("{m:.1}")]);
            }
        }
    }

    report.note(format!(
        "median Pearson correlation between measured and geographic distances: {:.2} over {} targets",
        stats::median(&correlations).unwrap_or(f64::NAN),
        correlations.len()
    ));
    if !example.rows.is_empty() {
        report.table(example);
    }
    report
}

/// Helper for tests and Figure 6: distance conversion used above.
pub fn measured_distance_km(delay_ms: f64) -> Km {
    Km(delay_ms * SpeedOfInternet::STREET_LEVEL.km_per_ms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::EvalScale;
    use geo_model::rng::Seed;

    fn setup() -> (Dataset, StreetSet) {
        let d = Dataset::load(EvalScale::tiny(Seed(281)));
        let s = StreetSet::compute(&d);
        (d, s)
    }

    #[test]
    fn street_set_covers_sample() {
        let (d, s) = setup();
        assert_eq!(
            s.outcomes.len(),
            d.scale.street_sample.unwrap().min(d.targets.len())
        );
    }

    #[test]
    fn fig5a_has_three_series() {
        let (d, s) = setup();
        let r = fig5a(&d, &s);
        assert_eq!(r.tables[0].columns.len(), 4); // x + 3 series
    }

    #[test]
    fn fig5b_counts_are_monotone_in_distance() {
        let (d, s) = setup();
        let r = fig5b(&d, &s);
        let counts: Vec<usize> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[1].split(' ').next().unwrap().parse().unwrap())
            .collect();
        for w in counts.windows(2) {
            assert!(w[0] <= w[1], "closer cutoffs must match fewer targets");
        }
        // Latency check can only remove targets.
        for row in &r.tables[0].rows {
            let plain: usize = row[1].split(' ').next().unwrap().parse().unwrap();
            let checked: usize = row[2].split(' ').next().unwrap().parse().unwrap();
            assert!(checked <= plain);
        }
    }

    #[test]
    fn fig5c_reports_weak_correlation() {
        let (d, s) = setup();
        let r = fig5c(&d, &s);
        assert!(r.notes[0].contains("median Pearson"));
    }
}
