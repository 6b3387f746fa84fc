//! Geolocation-metadata sanitization (§4.3).
//!
//! Platform metadata sometimes lies: a relocated anchor or probe keeps its
//! old coordinates. The sanitizer catches physically impossible
//! combinations: if the measured RTT between two hosts is smaller than the
//! speed-of-Internet minimum for their *claimed* distance, at least one
//! claim is wrong.
//!
//! - Anchors are checked against the meshed anchor-to-anchor RTTs,
//!   iteratively removing the anchor with the most violations until no
//!   violation remains (the paper removed 9).
//! - Probes are then checked against the surviving (trusted) anchors and
//!   removed on any violation (the paper removed 96).
//!
//! Both checks are dominated by great-circle distances between registered
//! locations (about 7M probe-anchor pairs in the paper world). Each host's
//! trigonometry is computed once, as a [`PointTrig`], whose `distance`
//! replays [`GeoPoint::distance`](geo_model::point::GeoPoint::distance)
//! bit for bit, so every comparison sees exactly the distance it would
//! without the hoist. Probe rows are independent and are checked on the
//! worker pool ([`par_map_indexed`]); the kept and removed lists are then
//! split serially in input order, so the report is identical at any
//! `IPGEO_THREADS`.

use geo_model::matrix::DelayMatrix;
use geo_model::point::PointTrig;
use geo_model::runtime::par_map_indexed;
use geo_model::soi::SpeedOfInternet;
use geo_model::units::Ms;
use world_sim::ids::HostId;
use world_sim::World;

/// Outcome of a sanitization pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeReport {
    /// Hosts that survived, in input order.
    pub kept: Vec<HostId>,
    /// Hosts removed, in removal order.
    pub removed: Vec<HostId>,
    /// Iterations the greedy removal ran (anchors only; probes are a
    /// single pass).
    pub iterations: usize,
}

/// Sanitizes anchors using meshed RTTs: cell `(i, j)` of `mesh` is the
/// min-RTT from `anchors[i]` to `anchors[j]` (NaN on the diagonal or
/// timeout, as produced by `atlas_sim::Platform::anchor_mesh`). Distances
/// use the anchors' *registered* locations — that is all the platform
/// metadata offers. The mesh stays in the `f64` staging format
/// ([`DelayMatrix`]) so the physics comparison sees the exact measured
/// bits.
pub fn sanitize_anchors(
    world: &World,
    anchors: &[HostId],
    mesh: &DelayMatrix,
    soi: SpeedOfInternet,
) -> SanitizeReport {
    assert!(
        mesh.rows() == anchors.len() && mesh.cols() == anchors.len(),
        "mesh must be square over anchors"
    );
    let n = anchors.len();
    let mut alive: Vec<bool> = vec![true; n];
    let mut removed = Vec::new();
    let mut iterations = 0;

    // Precompute violation edges (symmetric union of both directions).
    let trig = registered_trig(world, anchors);
    let violates = |i: usize, j: usize| -> bool {
        let dist = trig[i].distance(&trig[j]);
        let v_ij = mesh.get(i, j).is_some_and(|rtt| soi.violates(dist, rtt));
        let v_ji = mesh.get(j, i).is_some_and(|rtt| soi.violates(dist, rtt));
        v_ij || v_ji
    };
    let mut edges: Vec<Vec<bool>> = vec![vec![false; n]; n];
    #[allow(clippy::needless_range_loop)] // symmetric double-index fill
    for i in 0..n {
        for j in (i + 1)..n {
            if violates(i, j) {
                edges[i][j] = true;
                edges[j][i] = true;
            }
        }
    }
    let mut counts: Vec<usize> = (0..n)
        .map(|i| (0..n).filter(|&j| edges[i][j]).count())
        .collect();

    loop {
        iterations += 1;
        let worst = (0..n)
            .filter(|&i| alive[i] && counts[i] > 0)
            .max_by_key(|&i| counts[i]);
        let Some(worst) = worst else { break };
        alive[worst] = false;
        removed.push(anchors[worst]);
        for j in 0..n {
            if edges[worst][j] && alive[j] {
                counts[j] -= 1;
            }
        }
        counts[worst] = 0;
    }

    SanitizeReport {
        kept: anchors
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| a)
            .map(|(&id, _)| id)
            .collect(),
        removed,
        iterations: iterations - 1,
    }
}

/// Sanitizes probes against trusted anchors: cell `(p, a)` of `rtts` is
/// the min-RTT from `probes[p]` to `trusted_anchors[a]` (NaN = timeout).
/// A probe is removed on any violation.
pub fn sanitize_probes(
    world: &World,
    probes: &[HostId],
    trusted_anchors: &[HostId],
    rtts: &DelayMatrix,
    soi: SpeedOfInternet,
) -> SanitizeReport {
    assert_eq!(rtts.rows(), probes.len(), "one RTT row per probe");
    assert_eq!(
        rtts.cols(),
        trusted_anchors.len(),
        "one RTT column per trusted anchor"
    );
    let anchor_trig = registered_trig(world, trusted_anchors);
    let violated = par_map_indexed(probes.len(), |p| {
        let probe = PointTrig::of(&world.host(probes[p]).registered_location);
        rtts.row(p)
            .iter()
            .zip(&anchor_trig)
            .any(|(&rtt, anchor)| !rtt.is_nan() && soi.violates(probe.distance(anchor), Ms(rtt)))
    });
    let mut kept = Vec::new();
    let mut removed = Vec::new();
    for (&probe, &violation) in probes.iter().zip(&violated) {
        if violation {
            removed.push(probe);
        } else {
            kept.push(probe);
        }
    }
    SanitizeReport {
        kept,
        removed,
        iterations: 1,
    }
}

/// The trigonometry of each host's registered location.
fn registered_trig(world: &World, hosts: &[HostId]) -> Vec<PointTrig> {
    hosts
        .iter()
        .map(|&h| PointTrig::of(&world.host(h).registered_location))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_sim::{CreditAccount, Platform};
    use geo_model::rng::Seed;
    use net_sim::Network;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network) {
        let w = World::generate(WorldConfig::small(Seed(171))).unwrap();
        let net = Network::new(Seed(171));
        (w, net)
    }

    #[test]
    fn catches_the_mis_geolocated_anchor() {
        let (w, net) = setup();
        let mut platform = Platform::new(CreditAccount::upgraded());
        let mesh = platform.anchor_mesh(&w, &net, &w.anchors).unwrap();
        let report = sanitize_anchors(&w, &w.anchors, &mesh, SpeedOfInternet::CBG);

        let truly_bad: Vec<HostId> = w
            .anchors
            .iter()
            .copied()
            .filter(|&id| w.host(id).is_mis_geolocated())
            .collect();
        assert_eq!(truly_bad.len(), 1);
        assert!(
            report.removed.contains(&truly_bad[0]),
            "sanitizer missed the planted bad anchor"
        );
        // Collateral damage must be small.
        assert!(report.removed.len() <= 3, "removed {:?}", report.removed);
        assert_eq!(report.kept.len() + report.removed.len(), w.anchors.len());
    }

    #[test]
    fn no_violations_removes_nothing() {
        let (w, _) = setup();
        // An all-NaN (unmeasured) mesh has no violations by construction.
        let n = w.anchors.len();
        let mesh = DelayMatrix::new(n, n);
        let report = sanitize_anchors(&w, &w.anchors, &mesh, SpeedOfInternet::CBG);
        assert!(report.removed.is_empty());
        assert_eq!(report.kept, w.anchors);
    }

    #[test]
    fn probe_sanitization_catches_planted_probes() {
        let (w, net) = setup();
        let mut platform = Platform::new(CreditAccount::upgraded());
        let mesh = platform.anchor_mesh(&w, &net, &w.anchors).unwrap();
        let anchors_report = sanitize_anchors(&w, &w.anchors, &mesh, SpeedOfInternet::CBG);

        // Probe -> trusted-anchor pings.
        let trusted = &anchors_report.kept;
        let rtts = DelayMatrix::par_build(w.probes.len(), trusted.len(), |p, row| {
            for (a, slot) in trusted.iter().zip(row.iter_mut()) {
                *slot = DelayMatrix::cell(net.ping_min(&w, w.probes[p], w.host(*a).ip, 3, 7).rtt());
            }
        });
        let report = sanitize_probes(&w, &w.probes, trusted, &rtts, SpeedOfInternet::CBG);

        let truly_bad: Vec<HostId> = w
            .probes
            .iter()
            .copied()
            .filter(|&id| w.host(id).is_mis_geolocated())
            .collect();
        assert_eq!(truly_bad.len(), 4);
        // SOI violations only expose hosts whose *claimed* location is
        // closer to some anchor than physics allows; a displacement that
        // moves a probe further from every anchor is undetectable (the
        // paper's sanitizer shares this blind spot). Require that most of
        // the planted probes are caught.
        let caught = truly_bad
            .iter()
            .filter(|bad| report.removed.contains(bad))
            .count();
        assert!(
            caught >= truly_bad.len() / 2,
            "sanitizer caught only {caught}/{} planted probes",
            truly_bad.len()
        );
        // Honest probes must survive overwhelmingly.
        assert!(
            report.removed.len() <= truly_bad.len() + 5,
            "too much collateral damage: {}",
            report.removed.len()
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn mesh_shape_is_checked() {
        let (w, _) = setup();
        let _ = sanitize_anchors(
            &w,
            &w.anchors,
            &DelayMatrix::new(0, 0),
            SpeedOfInternet::CBG,
        );
    }
}
