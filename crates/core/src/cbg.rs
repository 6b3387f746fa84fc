//! Classic latency-based geolocation: CBG and Shortest Ping.
//!
//! Both consume the same input: vantage points with known (registered)
//! locations and a measured minimum RTT to the target.
//!
//! - **Shortest Ping** maps the target to the location of the VP with the
//!   smallest RTT.
//! - **CBG** converts each RTT into a maximum distance (via a
//!   speed-of-Internet factor), intersects the resulting circles, and
//!   estimates the target as the intersection's centroid.

use geo_model::constraint::{Circle, Region, RegionEstimate, RegionScratch};
use geo_model::point::GeoPoint;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Ms;
use net_sim::PingOutcome;
use world_sim::ids::HostId;
use world_sim::World;

/// One vantage point's measurement of the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VpMeasurement {
    /// The vantage point.
    pub vp: HostId,
    /// The VP's *registered* location (what the platform metadata claims).
    pub location: GeoPoint,
    /// Minimum RTT to the target.
    pub rtt: Ms,
}

/// The measurements a ping batch delivered: one per answering VP, in
/// batch order, placed at the VP's registered location (what CBG may
/// trust); timeouts carry no constraint and are dropped.
pub fn vp_measurements(world: &World, batch: &[(HostId, PingOutcome)]) -> Vec<VpMeasurement> {
    batch
        .iter()
        .filter_map(|&(vp, outcome)| {
            outcome.rtt().map(|rtt| VpMeasurement {
                vp,
                location: world.host(vp).registered_location,
                rtt,
            })
        })
        .collect()
}

/// The outcome of a CBG run.
#[derive(Debug, Clone)]
pub struct CbgResult {
    /// Estimated target location (centroid of the intersection).
    pub estimate: GeoPoint,
    /// Diagnostics of the intersection.
    pub region_estimate: RegionEstimate,
    /// The constraint region (useful for tier-2 sampling).
    pub region: Region,
    /// True if the requested speed factor produced an empty intersection
    /// and the conservative 2/3 c fallback was used instead (§5.2.1
    /// reports 5 such targets).
    pub used_fallback_soi: bool,
}

/// Runs CBG over the measurements with the given speed-of-Internet factor.
///
/// Returns `None` when there are no measurements or no intersection even
/// at the conservative 2/3 c fallback.
pub fn cbg(measurements: &[VpMeasurement], soi: SpeedOfInternet) -> Option<CbgResult> {
    cbg_with(measurements, soi, &mut RegionScratch::new())
}

/// [`cbg`] with caller-owned intersection buffers: bit-identical result;
/// solver loops over many targets should hold one [`RegionScratch`] and
/// pass it to every call.
pub fn cbg_with(
    measurements: &[VpMeasurement],
    soi: SpeedOfInternet,
    scratch: &mut RegionScratch,
) -> Option<CbgResult> {
    if measurements.is_empty() {
        return None;
    }
    let build = |factor: SpeedOfInternet| -> Region {
        Region::from_circles(
            measurements
                .iter()
                .map(|m| Circle::new(m.location, factor.max_distance(m.rtt)))
                .collect(),
        )
    };
    let region = build(soi);
    if let Some(est) = region.intersect_with(scratch) {
        return Some(CbgResult {
            estimate: est.centroid,
            region_estimate: est,
            region,
            used_fallback_soi: false,
        });
    }
    // Fallback: the paper keeps 2/3 c for targets whose 4/9 c constraints
    // are inconsistent.
    let fallback = SpeedOfInternet::CBG;
    if soi == fallback {
        return None;
    }
    let region = build(fallback);
    region.intersect_with(scratch).map(|est| CbgResult {
        estimate: est.centroid,
        region_estimate: est,
        region,
        used_fallback_soi: true,
    })
}

/// Shortest Ping: the VP with the lowest RTT *is* the estimate.
pub fn shortest_ping(measurements: &[VpMeasurement]) -> Option<&VpMeasurement> {
    measurements.iter().min_by(|a, b| a.rtt.total_cmp(&b.rtt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::units::Km;

    fn vp(id: u32, lat: f64, lon: f64, rtt: f64) -> VpMeasurement {
        VpMeasurement {
            vp: HostId(id),
            location: GeoPoint::new(lat, lon),
            rtt: Ms(rtt),
        }
    }

    /// Builds measurements whose RTTs are consistent with a target at
    /// `target` seen through a given inflation factor.
    fn consistent_measurements(target: GeoPoint, inflation: f64) -> Vec<VpMeasurement> {
        [
            (40.0, 500.0),
            (130.0, 800.0),
            (250.0, 300.0),
            (330.0, 1200.0),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(bearing, d))| {
            let loc = target.destination(bearing, Km(d));
            let rtt = SpeedOfInternet::CBG.min_rtt(Km(d)) * inflation;
            VpMeasurement {
                vp: HostId(i as u32),
                location: loc,
                rtt,
            }
        })
        .collect()
    }

    #[test]
    fn cbg_recovers_target_with_sound_constraints() {
        let target = GeoPoint::new(48.8, 2.3);
        let ms = consistent_measurements(target, 1.4);
        let r = cbg(&ms, SpeedOfInternet::CBG).unwrap();
        assert!(!r.used_fallback_soi);
        let err = r.estimate.distance(&target).value();
        assert!(err < 250.0, "error {err} km");
        assert!(r.region.contains(&target));
    }

    #[test]
    fn cbg_empty_input_is_none() {
        assert!(cbg(&[], SpeedOfInternet::CBG).is_none());
    }

    #[test]
    fn street_level_factor_falls_back_when_too_aggressive() {
        // Inflation 1.05: at 4/9 c the circles exclude the target and (for
        // these bearings) the intersection is empty; 2/3 c still works.
        let target = GeoPoint::new(48.8, 2.3);
        let ms = consistent_measurements(target, 1.05);
        let r = cbg(&ms, SpeedOfInternet::STREET_LEVEL).unwrap();
        assert!(r.used_fallback_soi, "expected 4/9c to fail here");
    }

    #[test]
    fn street_level_factor_works_with_heavy_inflation() {
        let target = GeoPoint::new(48.8, 2.3);
        let ms = consistent_measurements(target, 2.0);
        let r = cbg(&ms, SpeedOfInternet::STREET_LEVEL).unwrap();
        assert!(!r.used_fallback_soi);
    }

    #[test]
    fn tightest_constraint_bounds_cbg_error() {
        let target = GeoPoint::new(10.0, 10.0);
        let mut ms = consistent_measurements(target, 1.5);
        // Add a very close VP: 20 km away.
        let close = target.destination(77.0, Km(20.0));
        ms.push(VpMeasurement {
            vp: HostId(99),
            location: close,
            rtt: SpeedOfInternet::CBG.min_rtt(Km(20.0)) * 1.5,
        });
        let r = cbg(&ms, SpeedOfInternet::CBG).unwrap();
        let err = r.estimate.distance(&target).value();
        assert!(err <= 2.0 * 30.0 + 1.0, "close VP did not tighten: {err}");
    }

    #[test]
    fn shortest_ping_picks_minimum() {
        let ms = vec![
            vp(1, 0.0, 0.0, 30.0),
            vp(2, 10.0, 10.0, 5.0),
            vp(3, 20.0, 20.0, 50.0),
        ];
        let best = shortest_ping(&ms).unwrap();
        assert_eq!(best.vp, HostId(2));
    }

    #[test]
    fn shortest_ping_empty_is_none() {
        assert!(shortest_ping(&[]).is_none());
    }
}
