//! Zip codes: the mapping service's spatial granularity.
//!
//! A zip code is the nearest city plus a ~2 km grid cell in the local
//! tangent plane around that city's center. Both the street-level paper's
//! tier 2/3 (map circle points to zip codes, look around them for
//! websites) and its first locality test (does the entity's postal zip
//! match the point's zip?) operate at this granularity.

use geo_model::point::GeoPoint;
use world_sim::ids::ZipCode;
use world_sim::World;

/// Edge length of a zip cell, km.
pub const ZIP_CELL_KM: f64 = 2.0;
/// Zip cells extend ±this many cells from the city center (±64 km).
const HALF_SPAN: i32 = 32;

/// The zip code containing a point: nearest city + local grid cell.
/// Returns `None` only if the world has no cities.
// geo-lint: hot-path
pub fn zip_of(world: &World, p: &GeoPoint) -> Option<ZipCode> {
    let (city, _) = world.city_index.nearest(p)?;
    let center = world.city(city).center;
    // Local equirectangular offsets, km.
    let dy = (p.lat() - center.lat()) * 110.574;
    let dx = (p.lon() - center.lon()) * 111.320 * center.lat().to_radians().cos();
    let cx = (dx / ZIP_CELL_KM).floor() as i32;
    let cy = (dy / ZIP_CELL_KM).floor() as i32;
    let cx = cx.clamp(-HALF_SPAN, HALF_SPAN - 1) + HALF_SPAN;
    let cy = cy.clamp(-HALF_SPAN, HALF_SPAN - 1) + HALF_SPAN;
    Some(ZipCode {
        city,
        cell: (cx as u16) << 8 | cy as u16,
    })
}

/// Approximate center of a zip cell (inverse of [`zip_of`] up to cell
/// quantization) — used by tests and by POI placement.
pub fn zip_center(world: &World, zip: ZipCode) -> GeoPoint {
    let center = world.city(zip.city).center;
    let cx = (zip.cell >> 8) as i32 - HALF_SPAN;
    let cy = (zip.cell & 0xFF) as i32 - HALF_SPAN;
    let dx_km = (cx as f64 + 0.5) * ZIP_CELL_KM;
    let dy_km = (cy as f64 + 0.5) * ZIP_CELL_KM;
    let lat = center.lat() + dy_km / 110.574;
    let lon = center.lon() + dx_km / (111.320 * center.lat().to_radians().cos());
    GeoPoint::new(lat, lon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use geo_model::units::Km;
    use world_sim::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::small(Seed(131))).unwrap()
    }

    #[test]
    fn same_point_same_zip() {
        let w = world();
        let p = w.cities[0].center;
        assert_eq!(zip_of(&w, &p), zip_of(&w, &p));
    }

    #[test]
    fn nearby_points_share_zip_distant_points_do_not() {
        let w = world();
        let base = w.cities[0].center;
        let near = base.destination(45.0, Km(0.3));
        let far = base.destination(45.0, Km(12.0));
        // Not guaranteed for points straddling a cell edge, but from the
        // center 0.3 km stays in-cell while 12 km certainly leaves it.
        let zb = zip_of(&w, &base).unwrap();
        let zf = zip_of(&w, &far).unwrap();
        assert_ne!(zb, zf);
        let zn = zip_of(&w, &near).unwrap();
        assert_eq!(zb.city, zn.city);
    }

    #[test]
    fn zip_center_roundtrip() {
        let w = world();
        let p = w.cities[1].center.destination(120.0, Km(5.0));
        let zip = zip_of(&w, &p).unwrap();
        let c = zip_center(&w, zip);
        // Cell diagonal is ~2.8 km; the center must be within that.
        assert!(
            p.distance(&c).value() <= 2.9,
            "zip center {} too far from {}",
            c,
            p
        );
        // And the center maps back to the same zip.
        assert_eq!(zip_of(&w, &c), Some(zip));
    }

    #[test]
    fn far_rural_point_clamps_to_edge_cell() {
        let w = world();
        let p = w.cities[0].center.destination(90.0, Km(500.0));
        // Still resolves (nearest city may differ); no panic, valid cell.
        let zip = zip_of(&w, &p).unwrap();
        let _ = zip_center(&w, zip);
    }
}
