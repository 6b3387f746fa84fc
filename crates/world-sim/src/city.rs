//! Cities: placement, population, and a spatial index.
//!
//! Cities are the world's geographic anchors: hosts, websites and postal
//! codes all hang off a city. Placement samples continent land boxes with a
//! minimum-separation rule (so "city-level accuracy = 40 km" remains a
//! meaningful granularity), populations follow a per-continent Zipf law,
//! and countries are coarse geographic partitions of each continent.

use crate::config::WorldConfig;
use crate::continent::Continent;
use crate::ids::{CityId, CountryId};
use geo_model::distr::Zipf;
use geo_model::point::{GeoPoint, PointTrig};
use geo_model::units::Km;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Minimum distance between two city centers, km.
const MIN_CITY_SEPARATION_KM: f64 = 30.0;
/// Attempts to find a separated location before giving up on separation.
const PLACEMENT_ATTEMPTS: usize = 40;
/// Size of the country grid cells, degrees (lat, lon).
const COUNTRY_CELL_DEG: (f64, f64) = (6.0, 8.0);

/// A city in the synthetic world.
#[derive(Debug, Clone)]
pub struct City {
    /// Identifier (index into the world's city vector).
    pub id: CityId,
    /// Synthetic name, e.g. `EU-0042`.
    pub name: String,
    /// City center.
    pub center: GeoPoint,
    /// Population (people).
    pub population: f64,
    /// Core population density (people/km²) used by the density field.
    pub core_density: f64,
    /// Continent the city is on.
    pub continent: Continent,
    /// Country (coarse partition of the continent).
    pub country: CountryId,
    /// Extra last-mile delay (ms) that access infrastructure in this city
    /// adds to every probe; zero for well-served cities. Correlating
    /// last-mile quality by city reproduces §5.1.5's targets whose *every*
    /// nearby probe measures a large RTT.
    pub infrastructure_penalty_ms: f64,
}

/// Generates all cities plus the number of distinct countries.
pub fn generate_cities<R: Rng + ?Sized>(cfg: &WorldConfig, rng: &mut R) -> (Vec<City>, usize) {
    let mut cities: Vec<City> = Vec::with_capacity(cfg.total_cities());
    let mut country_ids: HashMap<(Continent, i32, i32), CountryId> = HashMap::new();

    for mix in &cfg.mix {
        let n = mix.cities;
        if n == 0 {
            continue;
        }
        // Sample separated centers.
        let mut centers: Vec<GeoPoint> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut placed = None;
            for _ in 0..PLACEMENT_ATTEMPTS {
                let p = mix.continent.sample_point(rng);
                let ok = centers
                    .iter()
                    .all(|c| c.distance(&p).value() >= MIN_CITY_SEPARATION_KM);
                if ok {
                    placed = Some(p);
                    break;
                }
            }
            centers.push(placed.unwrap_or_else(|| mix.continent.sample_point(rng)));
        }

        // Zipf populations over a random rank permutation, so geography and
        // rank are independent.
        let zipf = Zipf::new(n, cfg.city_zipf_exponent);
        let mut ranks: Vec<usize> = (1..=n).collect();
        ranks.shuffle(rng);

        for (i, center) in centers.into_iter().enumerate() {
            let rank = ranks[i];
            // Use the Zipf weight relative to rank 1 to scale populations.
            let population = cfg.max_city_population * zipf.weight(rank) / zipf.weight(1);
            let population = population.max(20_000.0);
            let id = CityId(cities.len() as u32);
            let country = country_of(&mut country_ids, mix.continent, &center);
            let infrastructure_penalty_ms = if rng.gen::<f64>() < cfg.heavy_city_fraction {
                rng.gen_range(4.0..14.0)
            } else {
                0.0
            };
            cities.push(City {
                id,
                name: format!("{}-{:04}", mix.continent.code(), i),
                center,
                population,
                core_density: core_density(population),
                continent: mix.continent,
                country,
                infrastructure_penalty_ms,
            });
        }
    }

    let num_countries = country_ids.len();
    (cities, num_countries)
}

/// Core population density from total population: sublinear, so megacities
/// reach a few thousand people/km² and small towns a few hundred.
fn core_density(population: f64) -> f64 {
    (8.0 * population.powf(0.42)).min(25_000.0)
}

fn country_of(
    ids: &mut HashMap<(Continent, i32, i32), CountryId>,
    continent: Continent,
    p: &GeoPoint,
) -> CountryId {
    let cell = (
        (p.lat() / COUNTRY_CELL_DEG.0).floor() as i32,
        (p.lon() / COUNTRY_CELL_DEG.1).floor() as i32,
    );
    let next = CountryId(ids.len() as u32);
    *ids.entry((continent, cell.0, cell.1)).or_insert(next)
}

/// Rows of the 1° grid: `floor(lat)` for lat in −90..=90.
const LAT_CELLS: usize = 181;
/// Columns of the 1° grid: `floor(lon)` for lon in −180..=180.
const LON_CELLS: usize = 361;

/// A grid-bucketed spatial index over city centers for nearest-city and
/// radius queries (used by the density field, zip codes, and landmark
/// discovery).
///
/// The grid is one dense CSR table over every 1° cell of the globe (about
/// 260 KB): cell `k` lists `ids[starts[k]..starts[k + 1]]`, its cities in
/// ascending id order, so a lookup is two loads instead of a hash probe.
///
/// Each center is stored as its [`PointTrig`]: a query derives the probe's
/// trig once and measures every candidate with [`PointTrig::distance`],
/// which is bit-identical to [`GeoPoint::distance`] (center first, probe
/// second, as before), so only the per-candidate trig of both endpoints
/// is saved.
#[derive(Debug, Clone)]
pub struct CityIndex {
    /// City center trig, indexed by `CityId`.
    centers: Vec<PointTrig>,
    /// Row-major (lat, lon) cell offsets into `ids`; one extra sentinel.
    starts: Vec<u32>,
    /// City indices grouped by cell.
    ids: Vec<u32>,
}

impl CityIndex {
    /// Builds the index.
    pub fn build(cities: &[City]) -> CityIndex {
        Self::from_centers(cities.iter().map(|c| c.center).collect())
    }

    fn from_centers(centers: Vec<GeoPoint>) -> CityIndex {
        let slots: Vec<usize> = centers
            .iter()
            .map(|p| {
                let (lat, lon) = Self::cell(p);
                slot(lat, lon).expect("GeoPoint keeps lat in [-90, 90] and lon in [-180, 180)")
            })
            .collect();
        // Counting sort by cell; ids enter their cell in ascending order.
        let mut starts = vec![0u32; LAT_CELLS * LON_CELLS + 1];
        for &k in &slots {
            starts[k + 1] += 1;
        }
        for k in 0..LAT_CELLS * LON_CELLS {
            starts[k + 1] += starts[k];
        }
        let mut fill = starts.clone();
        let mut ids = vec![0u32; centers.len()];
        for (i, &k) in slots.iter().enumerate() {
            ids[fill[k] as usize] = i as u32;
            fill[k] += 1;
        }
        CityIndex {
            centers: centers.iter().map(PointTrig::of).collect(),
            starts,
            ids,
        }
    }

    fn cell(p: &GeoPoint) -> (i32, i32) {
        (p.lat().floor() as i32, p.lon().floor() as i32)
    }

    /// The cities in a 1° cell; empty for cells off the grid.
    #[inline]
    fn bucket(&self, lat_cell: i32, lon_cell: i32) -> &[u32] {
        match slot(lat_cell, lon_cell) {
            Some(k) => &self.ids[self.starts[k] as usize..self.starts[k + 1] as usize],
            None => &[],
        }
    }

    /// The nearest city to `p`, or `None` if the index is empty.
    // geo-lint: hot-path
    pub fn nearest(&self, p: &GeoPoint) -> Option<(CityId, Km)> {
        if self.centers.is_empty() {
            return None;
        }
        let (clat, clon) = Self::cell(p);
        let probe = PointTrig::of(p);
        // Expand search rings until a hit is found, then one extra ring to
        // guard against grid-boundary effects.
        let mut best: Option<(u32, f64)> = None;
        let mut ring = 0i32;
        loop {
            // Walk only the ring boundary, row by row: whole first and
            // last rows, the two end cells of every row in between. That
            // is the order a full-square scan skipping the interior visits
            // them in, so ties between equidistant cities break the same.
            for dlat in -ring..=ring {
                let step = if dlat.abs() == ring { 1 } else { 2 * ring };
                for dlon in (-ring..=ring).step_by(step as usize) {
                    // Wrap longitude cells.
                    let lon_cell = wrap_lon_cell(clon + dlon);
                    for &i in self.bucket(clat + dlat, lon_cell) {
                        let d = self.centers[i as usize].distance(&probe).value();
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((i, d));
                        }
                    }
                }
            }
            if let Some((_, bd)) = best {
                // Terminate once the scanned rings are guaranteed to cover
                // the best distance. Longitude cells shrink by cos(lat), so
                // use the most pessimistic latitude touched by the scan.
                let worst_lat = (p.lat().abs() + ring as f64 + 1.0).min(89.0);
                let lon_km_per_cell = 111.32 * worst_lat.to_radians().cos();
                let scanned_km = ring as f64 * lon_km_per_cell.min(110.57);
                if bd <= scanned_km || ring > 360 {
                    break;
                }
            }
            if ring > 400 {
                break;
            }
            ring += 1;
        }
        best.map(|(i, d)| (CityId(i), Km(d)))
    }

    /// All cities within `radius` of `p`.
    pub fn within(&self, p: &GeoPoint, radius: Km) -> Vec<(CityId, Km)> {
        // Longitude cells shrink by cos(lat); size the scan for the most
        // pessimistic latitude the radius can reach.
        let lat_cells = (radius.value() / 110.57).ceil();
        let worst_lat = (p.lat().abs() + lat_cells + 1.0).min(89.0);
        let lon_km = 111.32 * worst_lat.to_radians().cos();
        let cells = (radius.value() / lon_km.min(110.57)).ceil() as i32 + 1;
        let (clat, clon) = Self::cell(p);
        let probe = PointTrig::of(p);
        let mut out = Vec::new();
        for dlat in -cells..=cells {
            for dlon in -cells..=cells {
                let lon_cell = wrap_lon_cell(clon + dlon);
                for &i in self.bucket(clat + dlat, lon_cell) {
                    let d = self.centers[i as usize].distance(&probe);
                    if d <= radius {
                        out.push((CityId(i), d));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

/// The row-major grid slot of a cell, or `None` off the grid.
#[inline]
fn slot(lat_cell: i32, lon_cell: i32) -> Option<usize> {
    let row = usize::try_from(lat_cell + 90).ok()?;
    let col = usize::try_from(lon_cell + 180).ok()?;
    (row < LAT_CELLS && col < LON_CELLS).then_some(row * LON_CELLS + col)
}

fn wrap_lon_cell(cell: i32) -> i32 {
    let mut c = cell;
    while c < -180 {
        c += 360;
    }
    while c >= 180 {
        c -= 360;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn make_world() -> (Vec<City>, usize) {
        let cfg = WorldConfig::small(Seed(5));
        let mut rng = Seed(5).derive("cities").rng();
        generate_cities(&cfg, &mut rng)
    }

    #[test]
    fn generates_requested_counts() {
        let (cities, countries) = make_world();
        assert_eq!(cities.len(), 50);
        assert!(
            countries >= 2,
            "expected multiple countries, got {countries}"
        );
    }

    #[test]
    fn cities_are_on_their_continent() {
        let (cities, _) = make_world();
        for c in &cities {
            assert!(c.continent.contains(&c.center), "{} off-continent", c.name);
        }
    }

    #[test]
    fn populations_follow_zipf_shape() {
        let (cities, _) = make_world();
        let max = cities.iter().map(|c| c.population).fold(0.0, f64::max);
        let min = cities
            .iter()
            .map(|c| c.population)
            .fold(f64::INFINITY, f64::min);
        assert!(max / min > 5.0, "Zipf spread too small: {max}/{min}");
        assert!(cities.iter().all(|c| c.population >= 20_000.0));
    }

    #[test]
    fn most_cities_respect_separation() {
        let (cities, _) = make_world();
        let mut violations = 0;
        for (i, a) in cities.iter().enumerate() {
            for b in &cities[i + 1..] {
                if a.continent == b.continent
                    && a.center.distance(&b.center).value() < MIN_CITY_SEPARATION_KM
                {
                    violations += 1;
                }
            }
        }
        // Rejection sampling is best-effort; tolerate a few collisions.
        assert!(
            violations <= cities.len() / 10,
            "{violations} separation violations"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorldConfig::small(Seed(5));
        let mut r1 = Seed(5).derive("cities").rng();
        let mut r2 = Seed(5).derive("cities").rng();
        let (a, _) = generate_cities(&cfg, &mut r1);
        let (b, _) = generate_cities(&cfg, &mut r2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.center, y.center);
            assert_eq!(x.population, y.population);
            assert_eq!(x.country, y.country);
        }
    }

    #[test]
    fn index_nearest_matches_linear_scan() {
        let (cities, _) = make_world();
        let index = CityIndex::build(&cities);
        let mut rng = Seed(6).derive("probe-points").rng();
        for _ in 0..50 {
            let p = Continent::Europe.sample_point(&mut rng);
            let (got, gd) = index.nearest(&p).unwrap();
            let want = cities
                .iter()
                .min_by(|a, b| a.center.distance(&p).total_cmp(&b.center.distance(&p)))
                .unwrap();
            let wd = want.center.distance(&p);
            assert!(
                (gd.value() - wd.value()).abs() < 1e-6,
                "nearest mismatch: got {} at {}, want {} at {}",
                got,
                gd,
                want.id,
                wd
            );
        }
    }

    #[test]
    fn index_within_radius() {
        let (cities, _) = make_world();
        let index = CityIndex::build(&cities);
        let p = cities[0].center;
        let hits = index.within(&p, Km(500.0));
        assert!(hits.iter().any(|(id, _)| *id == cities[0].id));
        // Sorted by distance.
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // All within radius and no false negatives.
        let brute: usize = cities
            .iter()
            .filter(|c| c.center.distance(&p).value() <= 500.0)
            .count();
        assert_eq!(hits.len(), brute);
    }

    #[test]
    fn empty_index_returns_none() {
        let index = CityIndex::build(&[]);
        assert!(index.nearest(&GeoPoint::new(0.0, 0.0)).is_none());
    }

    /// The `HashMap`-bucketed grid `CityIndex` was before its dense CSR
    /// table, kept verbatim as the oracle the table must match: same ids,
    /// same distance bits, same order.
    struct HashGrid {
        centers: Vec<GeoPoint>,
        grid: HashMap<(i32, i32), Vec<u32>>,
    }

    impl HashGrid {
        fn build(centers: &[GeoPoint]) -> HashGrid {
            let mut grid: HashMap<(i32, i32), Vec<u32>> = HashMap::new();
            for (i, p) in centers.iter().enumerate() {
                grid.entry(CityIndex::cell(p)).or_default().push(i as u32);
            }
            HashGrid {
                centers: centers.to_vec(),
                grid,
            }
        }

        fn nearest(&self, p: &GeoPoint) -> Option<(CityId, Km)> {
            if self.centers.is_empty() {
                return None;
            }
            let (clat, clon) = CityIndex::cell(p);
            let mut best: Option<(u32, f64)> = None;
            let mut ring = 0i32;
            loop {
                for dlat in -ring..=ring {
                    for dlon in -ring..=ring {
                        if dlat.abs() != ring && dlon.abs() != ring {
                            continue;
                        }
                        let lon_cell = wrap_lon_cell(clon + dlon);
                        if let Some(bucket) = self.grid.get(&(clat + dlat, lon_cell)) {
                            for &i in bucket {
                                let d = self.centers[i as usize].distance(p).value();
                                if best.is_none_or(|(_, bd)| d < bd) {
                                    best = Some((i, d));
                                }
                            }
                        }
                    }
                }
                if let Some((_, bd)) = best {
                    let worst_lat = (p.lat().abs() + ring as f64 + 1.0).min(89.0);
                    let lon_km_per_cell = 111.32 * worst_lat.to_radians().cos();
                    let scanned_km = ring as f64 * lon_km_per_cell.min(110.57);
                    if bd <= scanned_km || ring > 360 {
                        break;
                    }
                }
                if ring > 400 {
                    break;
                }
                ring += 1;
            }
            best.map(|(i, d)| (CityId(i), Km(d)))
        }

        fn within(&self, p: &GeoPoint, radius: Km) -> Vec<(CityId, Km)> {
            let lat_cells = (radius.value() / 110.57).ceil();
            let worst_lat = (p.lat().abs() + lat_cells + 1.0).min(89.0);
            let lon_km = 111.32 * worst_lat.to_radians().cos();
            let cells = (radius.value() / lon_km.min(110.57)).ceil() as i32 + 1;
            let (clat, clon) = CityIndex::cell(p);
            let mut out = Vec::new();
            for dlat in -cells..=cells {
                for dlon in -cells..=cells {
                    let lon_cell = wrap_lon_cell(clon + dlon);
                    if let Some(bucket) = self.grid.get(&(clat + dlat, lon_cell)) {
                        for &i in bucket {
                            let d = self.centers[i as usize].distance(p);
                            if d <= radius {
                                out.push((CityId(i), d));
                            }
                        }
                    }
                }
            }
            out.sort_by(|a, b| a.1.total_cmp(&b.1));
            out
        }
    }

    /// Checks the dense grid against the oracle at each probe: the nearest
    /// city's id and distance bits, and every `within` hit in order.
    fn agree(centers: &[GeoPoint], probes: &[GeoPoint], radius: Km) -> Result<(), TestCaseError> {
        let dense = CityIndex::from_centers(centers.to_vec());
        let oracle = HashGrid::build(centers);
        let bits = |hit: Option<(CityId, Km)>| hit.map(|(id, d)| (id, d.value().to_bits()));
        for p in probes {
            prop_assert_eq!(
                bits(dense.nearest(p)),
                bits(oracle.nearest(p)),
                "nearest {}",
                p
            );
            let got: Vec<_> = dense
                .within(p, radius)
                .into_iter()
                .map(|h| bits(Some(h)))
                .collect();
            let want: Vec<_> = oracle
                .within(p, radius)
                .into_iter()
                .map(|h| bits(Some(h)))
                .collect();
            prop_assert_eq!(got, want, "within {} of {}", radius, p);
        }
        Ok(())
    }

    /// A point in one of four regions, from two draws in [-1, 1]:
    /// anywhere, the north or the south polar cap, or a band across the
    /// antimeridian.
    fn region_point((region, a, b): (u8, f64, f64)) -> GeoPoint {
        match region {
            0 => GeoPoint::new(90.0 * a, 180.0 * b),
            1 => GeoPoint::new(90.0 - 6.0 * a.abs(), 180.0 * b),
            2 => GeoPoint::new(-90.0 + 6.0 * a.abs(), 180.0 * b),
            _ => GeoPoint::new(60.0 * a, 180.0 + 3.0 * b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random cities, biased toward the poles and the antimeridian,
        /// probed within half a degree of one of them (so each scan ends
        /// well before the 360-ring cap, which the fixed tests below reach
        /// and which the oracle's full-square loop makes slow).
        #[test]
        fn dense_grid_matches_hash_grid(
            cities in prop::collection::vec((0u8..4, -1.0f64..=1.0, -1.0f64..=1.0), 1..120),
            near in prop::collection::vec((0usize..120, -0.5f64..=0.5, -0.5f64..=0.5), 1..4),
            radius in 0.0f64..400.0,
        ) {
            let centers: Vec<GeoPoint> = cities.into_iter().map(region_point).collect();
            let probes: Vec<GeoPoint> = near
                .into_iter()
                .map(|(i, dlat, dlon)| {
                    let c = centers[i % centers.len()];
                    GeoPoint::new(c.lat() + dlat, c.lon() + dlon)
                })
                .collect();
            agree(&centers, &probes, Km(radius))?;
        }
    }

    #[test]
    fn dense_grid_matches_hash_grid_at_poles_and_antimeridian() {
        let centers = [
            GeoPoint::new(89.9, 10.0),
            GeoPoint::new(89.95, -170.0),
            GeoPoint::new(-89.9, 45.0),
            GeoPoint::new(10.0, 179.99),
            GeoPoint::new(10.0, -179.99),
            GeoPoint::new(10.2, -180.0),
            // Same cell, same distance from (10.1, 179.5): a tie the
            // lower id must win in both.
            GeoPoint::new(-30.0, 20.0),
            GeoPoint::new(-30.0, 20.0),
        ];
        let probes = [
            GeoPoint::new(90.0, 0.0),
            GeoPoint::new(-90.0, 0.0),
            GeoPoint::new(89.5, 179.5),
            GeoPoint::new(-89.5, -179.5),
            GeoPoint::new(10.1, 179.5),
            GeoPoint::new(10.1, -179.5),
            GeoPoint::new(10.0, -180.0),
            GeoPoint::new(-30.0, 20.0),
        ];
        for radius in [0.0, 50.0, 400.0] {
            agree(&centers, &probes, Km(radius)).unwrap();
        }
        let index = CityIndex::from_centers(centers.to_vec());
        assert_eq!(
            index.nearest(&GeoPoint::new(-30.0, 20.0)).unwrap().0,
            CityId(6)
        );
        assert_eq!(
            index.nearest(&GeoPoint::new(10.0, 179.999)).unwrap().0,
            CityId(3)
        );
    }

    #[test]
    fn dense_grid_matches_hash_grid_across_empty_cells() {
        // One cluster in Europe; probes over empty ocean and far continents
        // have to expand many rings of empty cells before the first hit.
        let (cities, _) = make_world();
        let centers: Vec<GeoPoint> = cities.iter().map(|c| c.center).collect();
        let probes = [
            GeoPoint::new(-60.5, -179.5),
            GeoPoint::new(0.0, 0.0),
            cities[0].center,
        ];
        agree(&centers, &probes, Km(300.0)).unwrap();
    }

    #[test]
    fn empty_index_agrees_with_hash_grid() {
        let probes = [GeoPoint::new(0.0, 0.0), GeoPoint::new(90.0, -180.0)];
        agree(&[], &probes, Km(100.0)).unwrap();
        let index = CityIndex::build(&[]);
        assert!(index
            .within(&GeoPoint::new(0.0, 0.0), Km(1000.0))
            .is_empty());
    }
}
