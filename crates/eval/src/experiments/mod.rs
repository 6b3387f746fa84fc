//! One module per paper artifact. Every public function takes a
//! [`Dataset`] (plus precomputed street outcomes where relevant) and
//! returns a [`Report`](crate::Report) whose rows mirror the
//! paper's figure or table.

pub mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod hints;
pub mod sanity;
pub mod tables;

use crate::dataset::Dataset;
use geo_model::soi::SpeedOfInternet;
use ipgeo::cbg::{cbg, VpMeasurement};

/// CBG measurements of one target from a set of VP indices (rows of the
/// main RTT matrix). Reads rows via [`crate::dataset::RttMatrix::row`] so
/// the per-cell index arithmetic stays out of the hot loop.
pub fn measurements_for(
    d: &Dataset,
    target_idx: usize,
    vp_indices: impl Iterator<Item = usize>,
) -> Vec<VpMeasurement> {
    vp_indices
        .filter_map(|vi| {
            let cell = d.rtt.row(vi)[target_idx];
            if cell.is_nan() {
                return None;
            }
            Some(VpMeasurement {
                vp: d.vps[vi],
                location: d.world.host(d.vps[vi]).registered_location,
                rtt: geo_model::units::Ms(cell as f64),
            })
        })
        .collect()
}

/// CBG measurements built from the representative campaign: each VP's
/// constraint RTT is its median min-RTT to the target's `/24`
/// representatives (the first step of the two-step selection).
pub fn measurements_from_reps(
    d: &Dataset,
    target_idx: usize,
    vp_indices: &[usize],
) -> Vec<VpMeasurement> {
    use geo_model::units::Ms;
    let m = d.rep_rtt();
    let k = ipgeo::million::REPRESENTATIVES;
    vp_indices
        .iter()
        .filter_map(|&vi| {
            // One row lookup covers all k representative cells.
            let cells = &m.row(vi)[target_idx * k..target_idx * k + k];
            let vals: Vec<f64> = cells
                .iter()
                .filter(|c| !c.is_nan())
                .map(|&c| c as f64)
                .collect();
            geo_model::stats::median(&vals).map(|rtt| VpMeasurement {
                vp: d.vps[vi],
                location: d.world.host(d.vps[vi]).registered_location,
                rtt: Ms(rtt),
            })
        })
        .collect()
}

/// CBG error (km) of one target using the given VP indices; `None` when
/// the region is empty or no VP answered.
pub fn cbg_error(
    d: &Dataset,
    target_idx: usize,
    vp_indices: impl Iterator<Item = usize>,
) -> Option<f64> {
    let ms = measurements_for(d, target_idx, vp_indices);
    let r = cbg(&ms, SpeedOfInternet::CBG)?;
    Some(d.error_km(target_idx, &r.estimate))
}

/// Per-target CBG errors using *all* sanitized probes — the baseline
/// series reused by Figures 2c, 4 and 7. Target-parallel: each target's
/// CBG run is independent, so the error vector is identical at any
/// `IPGEO_THREADS`.
pub fn cbg_errors_all_vps(d: &Dataset) -> Vec<f64> {
    geo_model::runtime::par_map_indexed(d.targets.len(), |t| cbg_error(d, t, 0..d.vps.len()))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::EvalScale;
    use geo_model::rng::Seed;
    use geo_model::stats;

    #[test]
    fn all_vp_baseline_is_sane() {
        let d = Dataset::load(EvalScale::tiny(Seed(241)));
        let errs = cbg_errors_all_vps(&d);
        assert!(errs.len() >= d.targets.len() - 3);
        let median = stats::median(&errs).unwrap();
        assert!(median < 300.0, "median {median}");
    }
}
