//! Constraint circles and region intersection — the geometric core of
//! Constraint-Based Geolocation (CBG).
//!
//! Each vantage point with a measured RTT to the target induces a
//! [`Circle`]: the target must lie within `max_distance(rtt)` of the
//! vantage point. A [`Region`] is the conjunction of such constraints; CBG
//! estimates the target position as the **centroid of the intersection** of
//! all circles.
//!
//! The intersection of spherical caps has no convenient closed form, so the
//! centroid is estimated by sampling: a polar grid is laid over the
//! smallest circle (every point of the intersection must lie inside the
//! smallest circle) and the spherical centroid of the samples that satisfy
//! every constraint is returned. The resolution adapts: if no sample
//! satisfies all constraints, the grid is refined a few times before the
//! region is declared empty — mirroring the paper's observation that for 5
//! targets the 4/9 c factor produced no intersection at all (§5.2.1).

use crate::point::{GeoPoint, PointTrig};
use crate::units::Km;
use std::sync::OnceLock;

/// A single geographic constraint: the target lies within `radius` of
/// `center`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// The vantage point (or landmark) location.
    pub center: GeoPoint,
    /// Maximum distance of the target from the center.
    pub radius: Km,
}

impl Circle {
    /// Creates a constraint circle. Negative radii are clamped to zero.
    pub fn new(center: GeoPoint, radius: Km) -> Circle {
        Circle {
            center,
            radius: radius.max(Km::ZERO),
        }
    }

    /// True if `point` satisfies this constraint.
    #[inline]
    pub fn contains(&self, point: &GeoPoint) -> bool {
        self.center.distance(point) <= self.radius
    }

    /// True if the two circles can possibly share a point
    /// (necessary, not sufficient, for a common intersection).
    #[inline]
    pub fn overlaps(&self, other: &Circle) -> bool {
        self.center.distance(&other.center) <= self.radius + other.radius
    }
}

/// The result of intersecting a region: the centroid estimate plus
/// diagnostics used by the evaluation harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionEstimate {
    /// Spherical centroid of the sampled intersection.
    pub centroid: GeoPoint,
    /// Approximate area of the intersection in km².
    pub area_km2: f64,
    /// Radius of the smallest constraint circle — an upper bound on how far
    /// the centroid can be from the target when constraints are sound.
    pub tightest_radius: Km,
}

/// A conjunction of constraint circles.
#[derive(Debug, Clone, Default)]
pub struct Region {
    circles: Vec<Circle>,
}

/// Number of radial rings in the base sampling grid.
const BASE_RINGS: usize = 24;
/// Number of refinement passes before declaring the region empty.
const MAX_REFINES: usize = 3;

/// Slack between a ring's reach and a circle's radius below which the
/// sampler still tests the circle exactly on that ring.
///
/// A sample on the ring of radius `ρ` around the tightest center lies,
/// by the triangle inequality, within `d + ρ` of a circle whose center is
/// `d` from the tightest center. The computed distances and sample points
/// stray from the true ones by well under a metre: the worst cases are
/// `asin` near 1, for near-antipodal pairs in the haversine and for
/// samples near a pole in the destination formula, where a rounding error
/// of 1e-16 grows to about 4e-4 km. So when `d + ρ + RING_MARGIN_KM` is
/// within the circle's radius, the exact test on that ring would pass for
/// every sample; skipping it changes no result.
const RING_MARGIN_KM: f64 = 1.0;

/// Sine and cosine of every sample bearing of the grid with `rings` rings
/// (`BASE_RINGS << pass` for refinement pass `pass`): ring `r` holds its
/// `6r` bearings `k * 360 / (6r)` degrees, in sample order, from offset
/// `3r(r - 1)`. Each grid's table is built on its first use, with the
/// sampler's own per-sample expressions, so every entry has the bits the
/// sampler would compute; a process that never refines builds only the
/// 1,800 entries of the base grid.
// geo-lint: allow(P1T, reason = "each grid's table is built once per process behind a OnceLock; every later call only reads it")
fn bearings(rings: usize) -> &'static [(f64, f64)] {
    type Table = Box<[(f64, f64)]>;
    static TABLES: [OnceLock<Table>; MAX_REFINES + 1] =
        [const { OnceLock::new() }; MAX_REFINES + 1];
    let pass = (rings / BASE_RINGS).trailing_zeros() as usize;
    debug_assert_eq!(rings, BASE_RINGS << pass, "not a sampling grid");
    TABLES[pass].get_or_init(|| {
        let mut table = Vec::with_capacity(3 * rings * (rings + 1));
        for ring in 1..=rings {
            let samples = 6 * ring;
            let step = 360.0 / samples as f64;
            for k in 0..samples {
                let theta = (k as f64 * step).to_radians();
                table.push((theta.sin(), theta.cos()));
            }
        }
        table.into_boxed_slice()
    })
}

/// Reusable buffers for [`Region::intersect_with`].
///
/// One `intersect` call makes thousands of circle-containment tests, each
/// of which used to re-derive the radians and sine/cosine of both
/// endpoints, and allocated an active-circle list plus a sample vector per
/// refinement pass. The scratch hoists the per-circle trig (computed once
/// per call) and keeps the buffers alive across calls, so solver loops
/// over many targets perform no steady-state allocations.
///
/// The result is bit-identical to [`Region::intersect`] — only redundant
/// work is skipped (see [`PointTrig`]); a scratch carries no state between
/// calls other than buffer capacity.
#[derive(Debug, Clone, Default)]
pub struct RegionScratch {
    /// Active circles, in region order (as [`Region::active_circles`]).
    active: Vec<Circle>,
    /// Precomputed center trig, parallel to `active`.
    trig: Vec<PointTrig>,
    /// Each active center's distance to the tightest center (km),
    /// parallel to `active`.
    dist: Vec<f64>,
    /// Containment-check order: indices into `active`, ascending radius.
    /// The region is a conjunction, so check order cannot change the
    /// outcome — but tight circles reject samples earliest.
    order: Vec<u32>,
    /// The circles of `order` that may cut the ring being sampled; the
    /// rest contain the whole ring.
    exact: Vec<u32>,
    /// Samples inside every constraint, in sample-grid order.
    inside: Vec<GeoPoint>,
}

impl RegionScratch {
    /// Fresh (empty) buffers.
    pub fn new() -> RegionScratch {
        RegionScratch::default()
    }

    /// True if the sample `t` satisfies every active constraint, checking
    /// tightest circles first.
    // geo-lint: hot-path
    #[inline]
    fn contains(&self, t: &PointTrig) -> bool {
        self.order
            .iter()
            .all(|&i| self.trig[i as usize].distance(t) <= self.active[i as usize].radius)
    }
}

impl Region {
    /// An empty region (no constraints — the whole Earth).
    pub fn new() -> Region {
        Region::default()
    }

    /// Builds a region from constraint circles.
    pub fn from_circles(circles: Vec<Circle>) -> Region {
        Region { circles }
    }

    /// Adds one constraint.
    pub fn push(&mut self, circle: Circle) {
        self.circles.push(circle);
    }

    /// The constraints in this region.
    pub fn circles(&self) -> &[Circle] {
        &self.circles
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.circles.len()
    }

    /// True if no constraint has been added.
    pub fn is_empty(&self) -> bool {
        self.circles.is_empty()
    }

    /// True if `point` satisfies every constraint.
    pub fn contains(&self, point: &GeoPoint) -> bool {
        self.circles.iter().all(|c| c.contains(point))
    }

    /// The smallest constraint circle, if any.
    pub fn tightest(&self) -> Option<&Circle> {
        self.circles
            .iter()
            .min_by(|a, b| a.radius.total_cmp(&b.radius))
    }

    /// Quick necessary condition for non-emptiness: every pair of circles
    /// overlaps. Cheap pre-filter before sampling.
    pub fn pairwise_feasible(&self) -> bool {
        for (i, a) in self.circles.iter().enumerate() {
            for b in &self.circles[i + 1..] {
                if !a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Drops constraints that cannot shape the intersection because they
    /// fully contain the tightest circle's disc. With thousands of vantage
    /// points, almost every circle is redundant: a VP at 100 ms constrains
    /// a 10,000 km radius that any same-city constraint already implies.
    /// Returns the active circles (always including the tightest).
    pub fn active_circles(&self) -> Vec<Circle> {
        let Some(t) = self.tightest().copied() else {
            return Vec::new();
        };
        self.circles
            .iter()
            .filter(|c| {
                // Keep c unless it strictly swallows the tightest disc
                // (>=: the tightest itself is always kept).
                c.center.distance(&t.center) + t.radius >= c.radius
            })
            .copied()
            .collect()
    }

    /// Estimates the centroid of the intersection of all constraints.
    ///
    /// Returns `None` if the region has no constraints or the intersection
    /// is (numerically) empty. Redundant circles are dropped first
    /// ([`active_circles`]); the smallest circle is then sampled with a
    /// polar grid of `BASE_RINGS` rings (denser rings carry proportionally
    /// more azimuthal samples so the point density is roughly uniform);
    /// samples inside **all** active circles vote for the centroid. On an
    /// empty vote the grid is refined up to `MAX_REFINES` times.
    ///
    /// [`active_circles`]: Region::active_circles
    pub fn intersect(&self) -> Option<RegionEstimate> {
        self.intersect_with(&mut RegionScratch::new())
    }

    /// [`Region::intersect`] with caller-owned buffers: bit-identical
    /// result, no steady-state allocations. Solver loops that intersect
    /// many regions should hold one [`RegionScratch`] and pass it here.
    // geo-lint: hot-path
    pub fn intersect_with(&self, scratch: &mut RegionScratch) -> Option<RegionEstimate> {
        self.intersect_by(scratch, Region::sample_with)
    }

    /// [`Region::intersect_with`] over the per-sample oracle sampler.
    #[cfg(test)]
    fn intersect_oracle(&self, scratch: &mut RegionScratch) -> Option<RegionEstimate> {
        self.intersect_by(scratch, Region::sample_oracle)
    }

    /// The active filter, feasibility check and refinement loop around a
    /// grid sampler.
    // geo-lint: hot-path
    fn intersect_by(
        &self,
        scratch: &mut RegionScratch,
        sample: impl Fn(&mut RegionScratch, &Circle, &PointTrig, usize) -> Option<RegionEstimate>,
    ) -> Option<RegionEstimate> {
        let tightest = *self.tightest()?;
        let t_trig = PointTrig::of(&tightest.center);

        // Active filter (same predicate and order as `active_circles`),
        // computing each center's trig exactly once.
        scratch.active.clear();
        scratch.trig.clear();
        scratch.dist.clear();
        scratch.order.clear();
        for c in &self.circles {
            let ct = PointTrig::of(&c.center);
            let d = ct.distance(&t_trig);
            if d + tightest.radius >= c.radius {
                scratch.active.push(*c);
                scratch.trig.push(ct);
                scratch.dist.push(d.value());
            }
        }

        // Pairwise feasibility over the active set (`pairwise_feasible`).
        for i in 0..scratch.active.len() {
            for j in i + 1..scratch.active.len() {
                if scratch.trig[i].distance(&scratch.trig[j])
                    > scratch.active[i].radius + scratch.active[j].radius
                {
                    return None;
                }
            }
        }

        scratch.order.extend(0..scratch.active.len() as u32);
        scratch.order.sort_unstable_by(|&a, &b| {
            scratch.active[a as usize]
                .radius
                .total_cmp(&scratch.active[b as usize].radius)
        });

        // Degenerate zero-radius constraint: the intersection is the center
        // itself if it satisfies everything.
        if tightest.radius.value() <= f64::EPSILON {
            return if scratch.contains(&t_trig) {
                Some(RegionEstimate {
                    centroid: tightest.center,
                    area_km2: 0.0,
                    tightest_radius: tightest.radius,
                })
            } else {
                None
            };
        }

        let mut rings = BASE_RINGS;
        for _ in 0..=MAX_REFINES {
            if let Some(est) = sample(scratch, &tightest, &t_trig, rings) {
                return Some(est);
            }
            rings *= 2;
        }
        None
    }

    /// Samples the polar grid of `rings` rings over the tightest circle:
    /// the center, then ring by ring `6 * ring` points at equal bearings.
    /// Each ring reads its bearings' trig from the grid's table; a circle
    /// is tested exactly only on rings it may cut (see
    /// [`RING_MARGIN_KM`]), and a sample that no circle needs to test is
    /// accepted without its trig. Samples, their order and the centroid
    /// are those of the per-sample grid, bit for bit.
    // geo-lint: hot-path
    fn sample_with(
        scratch: &mut RegionScratch,
        tightest: &Circle,
        center: &PointTrig,
        rings: usize,
    ) -> Option<RegionEstimate> {
        let r = tightest.radius.value();
        let ring_width = r / rings as f64;
        scratch.inside.clear();
        let mut total_samples = 0usize;

        // Ring 0: the center itself.
        total_samples += 1;
        if scratch.contains(center) {
            scratch.inside.push(tightest.center);
        }

        let table = bearings(rings);
        for ring in 1..=rings {
            let radius = Km(ring as f64 * ring_width);
            scratch.exact.clear();
            for &i in &scratch.order {
                let i = i as usize;
                if scratch.dist[i] + radius.value() + RING_MARGIN_KM
                    > scratch.active[i].radius.value()
                {
                    scratch.exact.push(i as u32);
                }
            }
            let ring_bearings = &table[3 * ring * (ring - 1)..][..6 * ring];
            total_samples += ring_bearings.len();
            for &(sin_b, cos_b) in ring_bearings {
                let p = center.destination_with(sin_b, cos_b, radius);
                let inside = scratch.exact.is_empty() || {
                    let t = PointTrig::of(&p);
                    scratch.exact.iter().all(|&i| {
                        scratch.trig[i as usize].distance(&t) <= scratch.active[i as usize].radius
                    })
                };
                if inside {
                    scratch.inside.push(p);
                }
            }
        }

        if scratch.inside.is_empty() {
            return None;
        }
        let centroid = GeoPoint::centroid(&scratch.inside)?;
        let circle_area = std::f64::consts::PI * r * r;
        let area_km2 = circle_area * scratch.inside.len() as f64 / total_samples as f64;
        Some(RegionEstimate {
            centroid,
            area_km2,
            tightest_radius: tightest.radius,
        })
    }

    /// The per-sample grid sampler [`Region::sample_with`] replaced: every
    /// sample derives its own bearing and arc trig and is tested against
    /// every active circle. The oracle of the bit-for-bit property tests.
    #[cfg(test)]
    fn sample_oracle(
        scratch: &mut RegionScratch,
        tightest: &Circle,
        center: &PointTrig,
        rings: usize,
    ) -> Option<RegionEstimate> {
        let r = tightest.radius.value();
        let ring_width = r / rings as f64;
        scratch.inside.clear();
        let mut total_samples = 0usize;

        // Ring 0: the center itself.
        total_samples += 1;
        if scratch.contains(center) {
            scratch.inside.push(tightest.center);
        }

        for ring in 1..=rings {
            let radius = Km(ring as f64 * ring_width);
            // ~6 samples per ring index keeps areal density uniform.
            let samples = 6 * ring;
            let step = 360.0 / samples as f64;
            for k in 0..samples {
                total_samples += 1;
                let p = center.destination(k as f64 * step, radius);
                if scratch.contains(&PointTrig::of(&p)) {
                    scratch.inside.push(p);
                }
            }
        }

        if scratch.inside.is_empty() {
            return None;
        }
        let centroid = GeoPoint::centroid(&scratch.inside)?;
        let circle_area = std::f64::consts::PI * r * r;
        let area_km2 = circle_area * scratch.inside.len() as f64 / total_samples as f64;
        Some(RegionEstimate {
            centroid,
            area_km2,
            tightest_radius: tightest.radius,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::MAX_DISTANCE_KM;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    /// The estimate's centroid and area as raw bits.
    fn bits(est: Option<RegionEstimate>) -> Option<(u64, u64, u64, u64)> {
        est.map(|e| {
            (
                e.centroid.lat().to_bits(),
                e.centroid.lon().to_bits(),
                e.area_km2.to_bits(),
                e.tightest_radius.value().to_bits(),
            )
        })
    }

    /// `intersect_with` (through a reused scratch) against the per-sample
    /// oracle (through a fresh one), bit for bit, `None` included.
    fn agree_with_oracle(
        region: &Region,
        scratch: &mut RegionScratch,
    ) -> Result<(), TestCaseError> {
        let want = bits(region.intersect_oracle(&mut RegionScratch::new()));
        let got = bits(region.intersect_with(scratch));
        prop_assert_eq!(got, want, "{:?}", region.circles());
        Ok(())
    }

    /// A point within 1° of the north pole, the south pole or the
    /// antimeridian, or anywhere, from two draws in [-1, 1].
    fn anchor((kind, a, b): (u8, f64, f64)) -> GeoPoint {
        match kind {
            0 => p(90.0 - (a + 1.0) / 2.0, b * 180.0),
            1 => p(-90.0 + (a + 1.0) / 2.0, b * 180.0),
            2 => p(a * 80.0, 180.0 + b),
            _ => p(a * 89.0, b * 180.0),
        }
    }

    /// A constraint around `center` with a radius of zero (kind 0), below
    /// the ring margin (1), above half the circumference (2), or one that
    /// contains `target` with a little (3..=14) or a lot (15..) of slack.
    fn circle(center: GeoPoint, target: &GeoPoint, kind: u8, u: f64) -> Circle {
        let reach = center.distance(target).value();
        Circle::new(
            center,
            Km(match kind {
                0 => 0.0,
                1 => u * RING_MARGIN_KM,
                2 => MAX_DISTANCE_KM * (1.0 + u),
                3..=14 => reach * (1.0 + 0.05 * u) + 0.5,
                _ => reach * (1.0 + u) + 50.0,
            }),
        )
    }

    /// A region of CBG-like constraints around a target within 1° of a
    /// pole, the antimeridian or anywhere: circle 0 sits within 1° of the
    /// target; each further circle sits within 1° of the target or of its
    /// antipode, up to 3,000 km away, or just outside circle 0 with a
    /// radius that leaves a lens a few percent of the smaller radius wide
    /// (nearly tangent: the base grid often misses it, so refinement
    /// runs).
    fn region_of(
        first: (u8, f64, f64),
        c0: (f64, f64, u8, f64),
        rest: Vec<(u8, f64, f64, u8, f64)>,
    ) -> Region {
        let target = anchor(first);
        let c0 = circle(
            p(target.lat() + c0.0, target.lon() + c0.1),
            &target,
            c0.2,
            c0.3,
        );
        let mut circles = vec![c0];
        for (place, a, b, kind, u) in rest {
            circles.push(match place {
                0 | 1 => circle(p(target.lat() + a, target.lon() + b), &target, kind, u),
                2 => circle(
                    p(a - target.lat(), target.lon() + 180.0 + b),
                    &target,
                    kind,
                    u,
                ),
                3..=5 => circle(
                    target.destination((a + 1.0) * 180.0, Km(10.0 + u * 3000.0)),
                    &target,
                    kind,
                    (b + 1.0) / 2.0,
                ),
                _ => {
                    let r = 1.0 + u * 2000.0;
                    let r0 = c0.radius.value();
                    let lens = (b + 1.0) / 2.0 * 0.05 * r.min(r0);
                    Circle::new(
                        c0.center.destination((a + 1.0) * 180.0, Km(r0 + r - lens)),
                        Km(r),
                    )
                }
            });
        }
        Region::from_circles(circles)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The ring-by-ring sampler against the per-sample oracle over
        /// regions near the poles and the antimeridian, with near-antipodal
        /// pairs, radii of 0, below the margin and above half the
        /// circumference, and nearly tangent pairs.
        #[test]
        fn sampler_matches_per_sample_oracle(
            first in (0u8..4, -1.0f64..=1.0, -1.0f64..=1.0),
            c0 in (-1.0f64..=1.0, -1.0f64..=1.0, 0u8..24, 0.0f64..=1.0),
            rest in prop::collection::vec(
                (0u8..7, -1.0f64..=1.0, -1.0f64..=1.0, 0u8..24, 0.0f64..=1.0),
                0..5,
            ),
        ) {
            let region = region_of(first, c0, rest);
            agree_with_oracle(&region, &mut RegionScratch::new())?;
        }
    }

    #[test]
    fn sampler_matches_oracle_at_fixed_edge_cases() {
        let north = p(90.0, 0.0);
        let a = p(0.0, 179.9);
        let regions = [
            // Centered exactly on a pole.
            Region::from_circles(vec![Circle::new(north, Km(300.0))]),
            // A pole cap cut by a circle across the antimeridian.
            Region::from_circles(vec![
                Circle::new(p(89.5, 179.5), Km(400.0)),
                Circle::new(p(86.0, -179.0), Km(250.0)),
            ]),
            // Exactly antipodal centers whose radii just reach each other.
            Region::from_circles(vec![
                Circle::new(a, Km(MAX_DISTANCE_KM / 2.0 + 5.0)),
                Circle::new(p(0.0, -0.1), Km(MAX_DISTANCE_KM / 2.0 + 5.0)),
            ]),
            // Tightest circle reaching past the antipode of its center.
            Region::from_circles(vec![
                Circle::new(a, Km(MAX_DISTANCE_KM * 1.5)),
                Circle::new(p(10.0, 10.0), Km(MAX_DISTANCE_KM * 1.6)),
            ]),
            // A tightest radius below the margin, inside a wide circle.
            Region::from_circles(vec![
                Circle::new(a, Km(0.4)),
                Circle::new(a.destination(30.0, Km(0.3)), Km(0.5)),
            ]),
            // The thin lens of `refinement_finds_thin_lens`.
            Region::from_circles(vec![
                Circle::new(p(0.0, 0.0), Km(500.0)),
                Circle::new(p(0.0, 0.0).destination(90.0, Km(999.0)), Km(500.0)),
            ]),
        ];
        let mut scratch = RegionScratch::new();
        for region in &regions {
            agree_with_oracle(region, &mut scratch).unwrap();
        }
    }

    #[test]
    fn single_circle_centroid_is_center() {
        let region = Region::from_circles(vec![Circle::new(p(40.0, -3.0), Km(500.0))]);
        let est = region.intersect().unwrap();
        assert!(est.centroid.distance(&p(40.0, -3.0)).value() < 10.0);
        // Area should approximate the full circle.
        let expected = std::f64::consts::PI * 500.0 * 500.0;
        assert!((est.area_km2 - expected).abs() / expected < 0.1);
    }

    #[test]
    fn two_overlapping_circles() {
        // Centers 600 km apart, radii 400 km: lens around the midpoint.
        let a = p(0.0, 0.0);
        let b = a.destination(90.0, Km(600.0));
        let region =
            Region::from_circles(vec![Circle::new(a, Km(400.0)), Circle::new(b, Km(400.0))]);
        let est = region.intersect().unwrap();
        let mid = a.midpoint(&b);
        assert!(
            est.centroid.distance(&mid).value() < 30.0,
            "centroid {} vs midpoint {}",
            est.centroid,
            mid
        );
    }

    #[test]
    fn disjoint_circles_have_no_intersection() {
        let a = p(0.0, 0.0);
        let b = a.destination(90.0, Km(3000.0));
        let region =
            Region::from_circles(vec![Circle::new(a, Km(500.0)), Circle::new(b, Km(500.0))]);
        assert!(region.intersect().is_none());
        assert!(!region.pairwise_feasible());
    }

    #[test]
    fn empty_region_returns_none() {
        assert!(Region::new().intersect().is_none());
    }

    #[test]
    fn tightest_circle_bounds_error() {
        // True target inside all circles: centroid must be within the
        // tightest radius + tightest radius of the target.
        let target = p(48.85, 2.35);
        let vps = [
            (p(50.0, 3.0), 250.0),
            (p(47.0, 1.0), 350.0),
            (p(49.0, 5.0), 300.0),
        ];
        let circles: Vec<Circle> = vps.iter().map(|(vp, r)| Circle::new(*vp, Km(*r))).collect();
        // Every circle genuinely contains the target.
        for c in &circles {
            assert!(c.contains(&target));
        }
        let region = Region::from_circles(circles);
        let est = region.intersect().unwrap();
        assert!(est.centroid.distance(&target).value() <= 2.0 * est.tightest_radius.value());
    }

    #[test]
    fn zero_radius_circle() {
        let c = p(10.0, 10.0);
        let region = Region::from_circles(vec![
            Circle::new(c, Km(0.0)),
            Circle::new(p(10.5, 10.5), Km(200.0)),
        ]);
        let est = region.intersect().unwrap();
        assert_eq!(est.centroid, c);
        assert_eq!(est.area_km2, 0.0);
    }

    #[test]
    fn negative_radius_clamped() {
        let c = Circle::new(p(0.0, 0.0), Km(-5.0));
        assert_eq!(c.radius, Km(0.0));
    }

    #[test]
    fn contains_is_conjunction() {
        let region = Region::from_circles(vec![
            Circle::new(p(0.0, 0.0), Km(1000.0)),
            Circle::new(p(0.0, 10.0), Km(1000.0)),
        ]);
        assert!(region.contains(&p(0.0, 5.0)));
        assert!(!region.contains(&p(0.0, -8.5)));
    }

    #[test]
    fn intersect_with_reused_scratch_is_bit_identical() {
        // Several geometries through ONE scratch, compared bit-for-bit
        // against the fresh-allocation path: lens, redundant outer circle,
        // zero radius, empty intersection, thin lens (refinement), single
        // circle.
        let a = p(0.0, 0.0);
        let regions = [
            Region::from_circles(vec![Circle::new(a, Km(400.0))]),
            Region::from_circles(vec![
                Circle::new(a, Km(400.0)),
                Circle::new(a.destination(90.0, Km(600.0)), Km(400.0)),
                Circle::new(a.destination(45.0, Km(100.0)), Km(9000.0)),
            ]),
            Region::from_circles(vec![
                Circle::new(p(10.0, 10.0), Km(0.0)),
                Circle::new(p(10.5, 10.5), Km(200.0)),
            ]),
            Region::from_circles(vec![
                Circle::new(a, Km(500.0)),
                Circle::new(a.destination(90.0, Km(3000.0)), Km(500.0)),
            ]),
            Region::from_circles(vec![
                Circle::new(a, Km(500.0)),
                Circle::new(a.destination(90.0, Km(999.0)), Km(500.0)),
            ]),
            Region::new(),
        ];
        let mut scratch = RegionScratch::new();
        for (i, region) in regions.iter().enumerate() {
            let fresh = region.intersect();
            let reused = region.intersect_with(&mut scratch);
            match (fresh, reused) {
                (None, None) => {}
                (Some(f), Some(r)) => {
                    assert_eq!(
                        f.centroid.lat().to_bits(),
                        r.centroid.lat().to_bits(),
                        "region {i}"
                    );
                    assert_eq!(
                        f.centroid.lon().to_bits(),
                        r.centroid.lon().to_bits(),
                        "region {i}"
                    );
                    assert_eq!(f.area_km2.to_bits(), r.area_km2.to_bits(), "region {i}");
                    assert_eq!(f.tightest_radius, r.tightest_radius, "region {i}");
                }
                (f, r) => panic!("region {i}: fresh {f:?} vs reused {r:?}"),
            }
        }
    }

    #[test]
    fn refinement_finds_thin_lens() {
        // Nearly tangent circles: intersection is a thin lens that the base
        // grid may miss; refinement should still find it.
        let a = p(0.0, 0.0);
        let b = a.destination(90.0, Km(999.0));
        let region =
            Region::from_circles(vec![Circle::new(a, Km(500.0)), Circle::new(b, Km(500.0))]);
        let est = region.intersect();
        assert!(est.is_some(), "thin lens not found");
    }
}
