//! Points on the Earth and spherical geometry.
//!
//! All geometry uses the mean-radius spherical Earth model
//! ([`EARTH_RADIUS_KM`]), which is what the replicated geolocation papers
//! use implicitly when converting latency to distance: CBG errors are tens
//! of kilometers, three orders of magnitude above the ~0.5% error of the
//! spherical approximation.

use crate::units::Km;
use std::fmt;

/// Mean Earth radius in kilometers (IUGG mean radius R1).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Half the Earth's circumference: the maximum possible great-circle
/// distance between two points.
pub const MAX_DISTANCE_KM: f64 = std::f64::consts::PI * EARTH_RADIUS_KM;

/// A geographic coordinate: latitude and longitude in degrees.
///
/// Latitude is in `[-90, 90]`, longitude in `[-180, 180)`. Constructors
/// normalize out-of-range longitudes and clamp latitudes, so downstream code
/// can assume canonical values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180)`.
    pub fn new(lat: f64, lon: f64) -> GeoPoint {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon >= 180.0 {
            lon -= 360.0;
        }
        GeoPoint { lat, lon }
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Great-circle distance to `other` using the haversine formula,
    /// numerically stable for small distances.
    pub fn distance(&self, other: &GeoPoint) -> Km {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().clamp(0.0, 1.0).asin();
        Km(EARTH_RADIUS_KM * c)
    }

    /// Initial bearing (forward azimuth) from `self` to `other`, in degrees
    /// clockwise from north, in `[0, 360)`.
    pub fn bearing_to(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by travelling `distance` along the great circle
    /// with initial bearing `bearing_deg` (degrees clockwise from north).
    ///
    /// This is the primitive behind the street-level paper's concentric
    /// circle sampling (Tier 2/3): points on a circle of radius `r` around a
    /// centroid are `destination(centroid, k * alpha, r)`.
    pub fn destination(&self, bearing_deg: f64, distance: Km) -> GeoPoint {
        let delta = distance.value() / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos())
            .clamp(-1.0, 1.0)
            .asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }

    /// The midpoint of the great-circle segment between `self` and `other`.
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        let half = self.distance(other) / 2.0;
        let bearing = self.bearing_to(other);
        self.destination(bearing, half)
    }

    /// Geographic centroid of a set of points (mean of unit vectors on the
    /// sphere, projected back). Returns `None` for an empty slice or if the
    /// points cancel out exactly (antipodal degenerate case).
    pub fn centroid(points: &[GeoPoint]) -> Option<GeoPoint> {
        if points.is_empty() {
            return None;
        }
        let (mut x, mut y, mut z) = (0.0f64, 0.0f64, 0.0f64);
        for p in points {
            let lat = p.lat.to_radians();
            let lon = p.lon.to_radians();
            x += lat.cos() * lon.cos();
            y += lat.cos() * lon.sin();
            z += lat.sin();
        }
        let n = points.len() as f64;
        let (x, y, z) = (x / n, y / n, z / n);
        let norm = (x * x + y * y + z * z).sqrt();
        if norm < 1e-12 {
            return None;
        }
        let lat = (z / norm).asin().to_degrees();
        let lon = y.atan2(x).to_degrees();
        Some(GeoPoint::new(lat, lon))
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

/// Precomputed trigonometry of a [`GeoPoint`] for repeated spherical
/// geometry against many counterparts.
///
/// [`GeoPoint::distance`] and [`GeoPoint::destination`] re-derive the
/// radians and sine/cosine of both endpoints on every call; inner loops
/// that test one point against thousands of others (constraint-region
/// sampling, PoP detour scans) pay most of their time in that redundant
/// trig. `PointTrig` hoists it: the methods below replay the exact
/// floating-point operation sequence of their `GeoPoint` counterparts, so
/// results are **bit-identical** — only the redundant recomputation is
/// skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointTrig {
    /// Latitude and longitude in radians.
    lat: f64,
    lon: f64,
    sin_lat: f64,
    cos_lat: f64,
}

impl PointTrig {
    /// Precomputes the trig of `point`.
    pub fn of(point: &GeoPoint) -> PointTrig {
        let lat = point.lat.to_radians();
        PointTrig {
            lat,
            lon: point.lon.to_radians(),
            sin_lat: lat.sin(),
            cos_lat: lat.cos(),
        }
    }

    /// [`GeoPoint::distance`], bit-identical, with both endpoints' trig
    /// precomputed.
    // geo-lint: hot-path
    #[inline]
    pub fn distance(&self, other: &PointTrig) -> Km {
        let dlat = other.lat - self.lat;
        let dlon = other.lon - self.lon;
        let a =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().clamp(0.0, 1.0).asin();
        Km(EARTH_RADIUS_KM * c)
    }

    /// [`GeoPoint::destination`], bit-identical, with the origin's trig
    /// precomputed (the per-call trig is only the bearing and arc length).
    // geo-lint: hot-path
    pub fn destination(&self, bearing_deg: f64, distance: Km) -> GeoPoint {
        let theta = bearing_deg.to_radians();
        self.destination_with(theta.sin(), theta.cos(), distance)
    }

    /// [`PointTrig::destination`], bit-identical, with the bearing given
    /// by its sine and cosine, so a fixed set of bearings can come from a
    /// table. The arc's trig depends only on `distance`: a loop over one
    /// ring's bearings computes it once (the compiler hoists it).
    // geo-lint: hot-path
    #[inline]
    pub fn destination_with(&self, sin_bearing: f64, cos_bearing: f64, distance: Km) -> GeoPoint {
        let delta = distance.value() / EARTH_RADIUS_KM;
        let lat2 = (self.sin_lat * delta.cos() + self.cos_lat * delta.sin() * cos_bearing)
            .clamp(-1.0, 1.0)
            .asin();
        let lon2 = self.lon
            + (sin_bearing * delta.sin() * self.cos_lat)
                .atan2(delta.cos() - self.sin_lat * lat2.sin());
        GeoPoint::new(lat2.to_degrees(), lon2.to_degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn normalizes_longitude() {
        let p = GeoPoint::new(10.0, 190.0);
        assert!(close(p.lon(), -170.0, 1e-9));
        let q = GeoPoint::new(10.0, -190.0);
        assert!(close(q.lon(), 170.0, 1e-9));
    }

    #[test]
    fn clamps_latitude() {
        assert_eq!(GeoPoint::new(95.0, 0.0).lat(), 90.0);
        assert_eq!(GeoPoint::new(-95.0, 0.0).lat(), -90.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = GeoPoint::new(48.8566, 2.3522);
        assert!(p.distance(&p).value() < 1e-9);
    }

    #[test]
    fn known_distance_paris_london() {
        // Paris <-> London is ~344 km.
        let paris = GeoPoint::new(48.8566, 2.3522);
        let london = GeoPoint::new(51.5074, -0.1278);
        let d = paris.distance(&london).value();
        assert!((330.0..360.0).contains(&d), "got {d}");
    }

    #[test]
    fn known_distance_equator_quarter() {
        // A quarter of the equator.
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 90.0);
        let d = a.distance(&b).value();
        assert!(close(d, MAX_DISTANCE_KM / 2.0, 1.0), "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = GeoPoint::new(37.77, -122.42);
        let b = GeoPoint::new(-33.87, 151.21);
        assert!(close(a.distance(&b).value(), b.distance(&a).value(), 1e-9));
    }

    #[test]
    fn destination_inverts_distance() {
        let start = GeoPoint::new(40.0, -74.0);
        let dest = start.destination(63.0, Km(500.0));
        assert!(close(start.distance(&dest).value(), 500.0, 0.5));
    }

    #[test]
    fn destination_bearing_north() {
        let start = GeoPoint::new(0.0, 0.0);
        let dest = start.destination(0.0, Km(111.0));
        assert!(close(dest.lon(), 0.0, 1e-6));
        assert!(dest.lat() > 0.9 && dest.lat() < 1.1);
    }

    #[test]
    fn bearing_east_at_equator() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 10.0);
        assert!(close(a.bearing_to(&b), 90.0, 1e-6));
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = GeoPoint::new(48.8566, 2.3522);
        let b = GeoPoint::new(51.5074, -0.1278);
        let m = a.midpoint(&b);
        assert!(close(a.distance(&m).value(), b.distance(&m).value(), 0.1));
    }

    #[test]
    fn centroid_of_symmetric_points() {
        let pts = [
            GeoPoint::new(1.0, 1.0),
            GeoPoint::new(-1.0, 1.0),
            GeoPoint::new(1.0, -1.0),
            GeoPoint::new(-1.0, -1.0),
        ];
        let c = GeoPoint::centroid(&pts).unwrap();
        assert!(close(c.lat(), 0.0, 1e-6));
        assert!(close(c.lon(), 0.0, 1e-6));
    }

    #[test]
    fn centroid_empty_is_none() {
        assert!(GeoPoint::centroid(&[]).is_none());
    }

    /// A deterministic scatter of awkward points (poles, antimeridian,
    /// near-coincident pairs) for the bit-equality checks.
    fn scatter() -> Vec<GeoPoint> {
        let mut pts = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(90.0, 0.0),
            GeoPoint::new(-90.0, 13.0),
            GeoPoint::new(51.5074, -0.1278),
            GeoPoint::new(51.5074, -0.1279),
            GeoPoint::new(-33.87, 151.21),
            GeoPoint::new(10.0, 179.999),
            GeoPoint::new(10.0, -179.999),
        ];
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..40 {
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            let lat = (h >> 40) as f64 / (1u64 << 24) as f64 * 180.0 - 90.0;
            let lon = (h & 0xFFFF_FFFF) as f64 / (1u64 << 32) as f64 * 360.0 - 180.0;
            pts.push(GeoPoint::new(lat, lon));
        }
        pts
    }

    #[test]
    fn point_trig_distance_is_bit_identical() {
        let pts = scatter();
        let trig: Vec<PointTrig> = pts.iter().map(PointTrig::of).collect();
        for (a, ta) in pts.iter().zip(&trig) {
            for (b, tb) in pts.iter().zip(&trig) {
                assert_eq!(
                    a.distance(b).value().to_bits(),
                    ta.distance(tb).value().to_bits(),
                    "distance bits drifted for {a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn point_trig_destination_is_bit_identical() {
        for p in scatter() {
            let t = PointTrig::of(&p);
            for (i, bearing) in [0.0, 63.0, 90.0, 179.5, 270.0, 359.0]
                .into_iter()
                .enumerate()
            {
                let d = Km(7.0 + 997.0 * i as f64);
                let a = p.destination(bearing, d);
                let b = t.destination(bearing, d);
                assert_eq!(a.lat().to_bits(), b.lat().to_bits());
                assert_eq!(a.lon().to_bits(), b.lon().to_bits());
            }
        }
    }
}
