//! Entities, websites, and hosting.
//!
//! Tier 2 of the street-level technique mines a mapping service for
//! "points of interest with a website" and keeps those that appear locally
//! hosted. The generator creates that universe: per-city entity
//! populations, each entity pointing at a website whose hosting model
//! determines whether it can ever be a useful landmark:
//!
//! - `Local`: served from the entity's premises — a *true* landmark;
//! - `Cloud`: served from a cloud datacenter, often another city;
//! - `Cdn`: served from an anycast front end in the nearest big metro;
//! - chain websites are shared by entities in many cities (franchises),
//!   the main prey of the multi-zip locality test.
//!
//! Websites share server hosts per (AS, city) — virtual hosting — except
//! local sites, which each get a host at their entity's location.
//!
//! Generation runs in two passes. The serial pass walks the cities in id
//! order and makes every RNG draw, host allocation and shared-server
//! insertion, placing each address with the city center's precomputed
//! trig and each CDN site at its nearest edge (a pruned scan, memoized per
//! (CDN, city)). The parallel pass then finds every entity's zip on the
//! worker pool, in place: a zip is a pure function of the address, so the
//! output is bit-identical at any `IPGEO_THREADS`. The zip table is a
//! counting sort by zip city.

use crate::zipgrid::zip_of;
use geo_model::point::{GeoPoint, PointTrig, EARTH_RADIUS_KM};
use geo_model::runtime::par_for_each_mut;
use geo_model::units::Km;
use rand::Rng;
use std::collections::HashMap;
use world_sim::asn::AsCategory;
use world_sim::ids::{AsId, CityId, HostId, ZipCode};
use world_sim::World;

/// Identifier of an entity (index into the ecosystem's entity vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Identifier of a website (index into the ecosystem's website vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WebsiteId(pub u32);

/// The categories the street-level paper mined from Geonames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A business.
    Business,
    /// A university (reliably locally hosted in 2011; less so now).
    University,
    /// A government office.
    GovernmentOffice,
}

/// How a website is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// Served from the owning entity's premises.
    Local,
    /// Served from a cloud datacenter.
    Cloud,
    /// Served from a CDN's anycast edge.
    Cdn,
}

/// A website.
#[derive(Debug, Clone)]
pub struct Website {
    /// Identifier.
    pub id: WebsiteId,
    /// Hosting model.
    pub hosting: Hosting,
    /// The host serving the site (shared for cloud/CDN).
    pub server: HostId,
    /// Number of distinct zip codes in which entities list this website
    /// (chains appear in many — the third locality test).
    pub zip_appearances: u32,
}

impl Website {
    /// Domain name, e.g. `www.cloud-17.example`: the hosting model and the
    /// id, spelled out on demand.
    pub fn domain(&self) -> String {
        let model = match self.hosting {
            Hosting::Local => "local",
            Hosting::Cloud => "cloud",
            Hosting::Cdn => "cdn",
        };
        format!("www.{model}-{}.example", self.id.0)
    }
}

/// A point of interest with a postal address and a website.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Identifier.
    pub id: EntityId,
    /// Kind.
    pub kind: EntityKind,
    /// Physical location (street address).
    pub location: GeoPoint,
    /// City of the address.
    pub city: CityId,
    /// Postal code of the address.
    pub zip: ZipCode,
    /// The entity's website.
    pub website: WebsiteId,
}

/// Generation knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct WebConfig {
    /// Entities per inhabitant (e.g. 1/2500).
    pub entities_per_capita: f64,
    /// Per-city entity floor and cap.
    pub min_entities_per_city: usize,
    /// Per-city entity cap.
    pub max_entities_per_city: usize,
    /// Probability that a non-chain website is locally hosted.
    pub p_local: f64,
    /// Probability that a non-chain website is cloud hosted.
    pub p_cloud: f64,
    /// Fraction of entities belonging to a chain (shared website).
    pub chain_fraction: f64,
    /// Mean number of entities per chain.
    pub mean_chain_size: usize,
}

impl Default for WebConfig {
    fn default() -> WebConfig {
        WebConfig {
            entities_per_capita: 1.0 / 300.0,
            min_entities_per_city: 30,
            max_entities_per_city: 30_000,
            p_local: 0.022,
            p_cloud: 0.28,
            chain_fraction: 0.30,
            mean_chain_size: 40,
        }
    }
}

impl WebConfig {
    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.p_local + self.p_cloud > 1.0 || self.p_local < 0.0 || self.p_cloud < 0.0 {
            return Err("hosting probabilities must be non-negative and sum <= 1".into());
        }
        if !(0.0..=1.0).contains(&self.chain_fraction) {
            return Err("chain_fraction must be a probability".into());
        }
        if self.mean_chain_size == 0 {
            return Err("chains must have at least one member".into());
        }
        Ok(())
    }
}

/// The generated web ecosystem.
#[derive(Debug, Clone)]
pub struct WebEcosystem {
    /// All entities.
    pub entities: Vec<Entity>,
    /// All websites.
    pub websites: Vec<Website>,
    /// City `c`'s entities are `entities[city_starts[c]..city_starts[c + 1]]`:
    /// generation runs city by city.
    city_starts: Vec<u32>,
    /// The zip table: every zip with an entity, ascending; zip `zips[i]`
    /// lists `zip_entities[zip_starts[i]..zip_starts[i + 1]]`.
    zips: Vec<ZipCode>,
    zip_starts: Vec<u32>,
    /// Entity ids grouped by zip, ascending within each zip.
    zip_entities: Vec<EntityId>,
}

impl WebEcosystem {
    /// Generates the ecosystem, adding server hosts to the world.
    pub fn generate(world: &mut World, cfg: &WebConfig) -> Result<WebEcosystem, String> {
        cfg.validate()?;
        let mut rng = world.config.seed.derive("web-ecosystem").rng();

        // Infrastructure lookup tables.
        let mut local_as_in_city: Vec<Vec<AsId>> = vec![Vec::new(); world.cities.len()];
        let mut cloud_sites: Vec<(AsId, CityId)> = Vec::new();
        let mut cdn_pops: Vec<(AsId, Vec<CityId>)> = Vec::new();
        for a in &world.ases {
            match a.category {
                AsCategory::Access | AsCategory::Enterprise => {
                    for &c in &a.pops {
                        local_as_in_city[c.index()].push(a.id);
                    }
                }
                AsCategory::Content if a.is_cloud => {
                    for &c in &a.pops {
                        cloud_sites.push((a.id, c));
                    }
                }
                AsCategory::Content if a.is_cdn => {
                    cdn_pops.push((a.id, a.pops.clone()));
                }
                _ => {}
            }
        }
        if cloud_sites.is_empty() {
            // Tiny worlds may lack cloud ASes; fall back to any content AS.
            for a in &world.ases {
                if a.category == AsCategory::Content {
                    cloud_sites.push((a.id, a.pops[0]));
                }
            }
        }
        if cloud_sites.is_empty() {
            return Err("world has no content ASes to host cloud websites".into());
        }
        if cdn_pops.is_empty() {
            // Fall back: treat the widest content AS as a CDN.
            let widest = world
                .ases
                .iter()
                .filter(|a| a.category == AsCategory::Content)
                .max_by_key(|a| a.pops.len())
                .ok_or("world has no content ASes for CDN fallback")?;
            cdn_pops.push((widest.id, widest.pops.clone()));
        }

        // Shared server hosts per (AS, city).
        let mut shared_servers: HashMap<(AsId, CityId), HostId> = HashMap::new();

        // City centers never move: their trig serves every entity's
        // `destination` and, with their unit vectors, the CDN edge scan.
        let centers = CenterTable::of(world.cities.iter().map(|c| c.center));

        // `nearest_of` is a scan over a CDN's PoP list and city centers
        // never move, so the nearest edge per (CDN, entity city) is a
        // constant; memoize it in a flat table (u32::MAX = unfilled).
        let mut nearest_edge: Vec<u32> = vec![u32::MAX; cdn_pops.len() * world.cities.len()];

        // Per-city entity counts are fixed by the config, so the entity
        // table is allocated once, at its final size.
        let counts: Vec<usize> = world
            .cities
            .iter()
            .map(|c| {
                ((c.population * cfg.entities_per_capita) as usize)
                    .clamp(cfg.min_entities_per_city, cfg.max_entities_per_city)
            })
            .collect();
        let mut entities: Vec<Entity> = Vec::with_capacity(counts.iter().sum());
        let mut websites: Vec<Website> = Vec::new();
        let mut city_starts: Vec<u32> = Vec::with_capacity(world.cities.len() + 1);

        // Chain websites are created lazily as a pool and reused.
        let mut chain_pool: Vec<WebsiteId> = Vec::new();

        // The serial pass: every RNG draw, host allocation and shared-server
        // insertion in generation order. Zips are a pure function of the
        // location and are filled on the worker pool afterwards.
        let city_count = world.cities.len();
        for (ci, &n) in counts.iter().enumerate() {
            city_starts.push(entities.len() as u32);
            let city_id = world.cities[ci].id;
            for _ in 0..n {
                let eid = EntityId(entities.len() as u32);
                let kind = match rng.gen_range(0..100) {
                    0..=84 => EntityKind::Business,
                    85..=89 => EntityKind::University,
                    _ => EntityKind::GovernmentOffice,
                };
                // Addresses cluster toward the center.
                let r = world.config.city_radius_km * rng.gen_range(0.0f64..1.0).powf(0.75);
                let location = centers.trig[ci].destination(rng.gen_range(0.0..360.0), Km(r));

                let is_chain_member = rng.gen::<f64>() < cfg.chain_fraction;
                let website = if is_chain_member && !chain_pool.is_empty() && {
                    // Reuse an existing chain unless it is time to found a
                    // new one (expected chain size controls the rate).
                    rng.gen_range(0..cfg.mean_chain_size) != 0
                } {
                    chain_pool[rng.gen_range(0..chain_pool.len())]
                } else {
                    // Found a new website (chain seed or independent).
                    let hosting = if is_chain_member {
                        // Chains are essentially never locally hosted.
                        if rng.gen::<f64>() < 0.5 {
                            Hosting::Cdn
                        } else {
                            Hosting::Cloud
                        }
                    } else {
                        let u: f64 = rng.gen();
                        if u < cfg.p_local {
                            Hosting::Local
                        } else if u < cfg.p_local + cfg.p_cloud {
                            Hosting::Cloud
                        } else {
                            Hosting::Cdn
                        }
                    };
                    let wid = WebsiteId(websites.len() as u32);
                    let server = match hosting {
                        Hosting::Local => {
                            let local = &local_as_in_city[ci];
                            let asn = if local.is_empty() {
                                world.ases[0].id
                            } else {
                                local[rng.gen_range(0..local.len())]
                            };
                            world.add_web_server(asn, city_id, location)
                        }
                        Hosting::Cloud => {
                            let (asn, dc_city) = cloud_sites[rng.gen_range(0..cloud_sites.len())];
                            *shared_servers.entry((asn, dc_city)).or_insert_with(|| {
                                let loc = world.city(dc_city).center;
                                world.add_web_server(asn, dc_city, loc)
                            })
                        }
                        Hosting::Cdn => {
                            // Anycast approximation: the edge nearest the
                            // entity's city.
                            let cdn = rng.gen_range(0..cdn_pops.len());
                            let (asn, pops) = &cdn_pops[cdn];
                            let slot = &mut nearest_edge[cdn * city_count + ci];
                            if *slot == u32::MAX {
                                *slot = nearest_of(&centers, pops, city_id).0;
                            }
                            let edge = CityId(*slot);
                            *shared_servers.entry((*asn, edge)).or_insert_with(|| {
                                let loc = world.city(edge).center;
                                world.add_web_server(*asn, edge, loc)
                            })
                        }
                    };
                    websites.push(Website {
                        id: wid,
                        hosting,
                        server,
                        zip_appearances: 0,
                    });
                    if is_chain_member {
                        chain_pool.push(wid);
                    }
                    wid
                };

                entities.push(Entity {
                    id: eid,
                    kind,
                    location,
                    city: city_id,
                    // Filled by the parallel pass below.
                    zip: ZipCode {
                        city: city_id,
                        cell: 0,
                    },
                    website,
                });
            }
        }
        city_starts.push(entities.len() as u32);

        // The parallel pass: each entity's zip, in place.
        let world = &*world;
        par_for_each_mut(&mut entities, |_, e| {
            e.zip = zip_of(world, &e.location).expect("world has cities");
        });

        let (zips, zip_starts, zip_entities) = zip_table(&entities, world.cities.len());

        // Distinct zips per website: one pass over the zip table, counting
        // a website the first time it shows up in each zip.
        let mut last_zip = vec![u32::MAX; websites.len()];
        for (z, span) in zip_starts.windows(2).enumerate() {
            for id in &zip_entities[span[0] as usize..span[1] as usize] {
                let w = entities[id.0 as usize].website.0 as usize;
                if last_zip[w] != z as u32 {
                    last_zip[w] = z as u32;
                    websites[w].zip_appearances += 1;
                }
            }
        }

        Ok(WebEcosystem {
            entities,
            websites,
            city_starts,
            zips,
            zip_starts,
            zip_entities,
        })
    }

    /// Entities registered in a zip code, in ascending id order.
    pub fn entities_in_zip(&self, zip: ZipCode) -> &[EntityId] {
        match self.zips.binary_search(&zip) {
            Ok(i) => {
                &self.zip_entities[self.zip_starts[i] as usize..self.zip_starts[i + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Entities registered in a city, in ascending id order.
    pub fn entities_in_city(&self, city: CityId) -> &[Entity] {
        let span = self.city_starts.get(city.index()..city.index() + 2);
        span.map_or(&[], |s| &self.entities[s[0] as usize..s[1] as usize])
    }

    /// Entity lookup.
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.0 as usize]
    }

    /// Website lookup.
    pub fn website(&self, id: WebsiteId) -> &Website {
        &self.websites[id.0 as usize]
    }

    /// All entities within `radius` of a point (scans cities in range).
    pub fn entities_within(&self, world: &World, p: &GeoPoint, radius: Km) -> Vec<(EntityId, Km)> {
        let mut out = Vec::new();
        // Entities lie within city_radius of their city center.
        let slack = Km(world.config.city_radius_km);
        for (city, _) in world.city_index.within(p, radius + slack) {
            for e in self.entities_in_city(city) {
                let d = e.location.distance(p);
                if d <= radius {
                    out.push((e.id, d));
                }
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

/// Per-city center geometry, indexed by `CityId`: each center's trig and
/// its unit vector on the sphere.
struct CenterTable {
    trig: Vec<PointTrig>,
    unit: Vec<[f64; 3]>,
}

impl CenterTable {
    fn of(centers: impl Iterator<Item = GeoPoint>) -> CenterTable {
        let (trig, unit) = centers
            .map(|p| (PointTrig::of(&p), unit_vector(&p)))
            .unzip();
        CenterTable { trig, unit }
    }
}

/// The unit vector of a point on the sphere.
fn unit_vector(p: &GeoPoint) -> [f64; 3] {
    let (lat, lon) = (p.lat().to_radians(), p.lon().to_radians());
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

/// Kilometres by which a PoP's chord bound must exceed the best distance
/// so far before the PoP is skipped unmeasured. The bound and the
/// haversine each carry a rounding error far below a metre (the
/// haversine's worst case, `asin` near 1 for near-antipodal pairs, is
/// about 4e-4 km; see `RING_MARGIN_KM` in `geo_model::constraint`), so a
/// skipped PoP's computed distance is never below the best.
const CHORD_MARGIN_KM: f64 = 1.0;

/// The PoP in `cities` nearest to city `to`: the first strict minimum of
/// the haversine distance over the list, as `Iterator::min_by` picks it.
///
/// One distance per measured PoP, on the centers' precomputed trig
/// (bit-identical to `GeoPoint::distance`). A great-circle distance is
/// never shorter than `R` times the chord between the two unit vectors,
/// so a PoP whose `R · chord − CHORD_MARGIN_KM` is at least the best
/// distance so far cannot be strictly nearer, and is skipped: the chord
/// costs one square root, the haversine three trig calls. At seed 42 the
/// 96,000 (CDN, city) pairs of the paper world measure 446,835 PoPs
/// instead of the 10.7M haversines of `min_by`.
fn nearest_of(centers: &CenterTable, cities: &[CityId], to: CityId) -> CityId {
    let (target, tu) = (&centers.trig[to.index()], centers.unit[to.index()]);
    let mut best = (*cities.first().expect("non-empty city list"), f64::INFINITY);
    for &c in cities {
        let u = centers.unit[c.index()];
        let chord =
            ((u[0] - tu[0]).powi(2) + (u[1] - tu[1]).powi(2) + (u[2] - tu[2]).powi(2)).sqrt();
        if EARTH_RADIUS_KM * chord - CHORD_MARGIN_KM >= best.1 {
            continue;
        }
        let d = centers.trig[c.index()].distance(target).value();
        if d < best.1 {
            best = (c, d);
        }
    }
    best.0
}

/// The zip table of `entities`: every zip with an entity, ascending; the
/// offsets of each zip's span; and the entity ids grouped by zip,
/// ascending within each zip — the order a stable sort of the ids by zip
/// gives.
///
/// A counting sort by the zip's city places the ids in ascending order,
/// then each city's span is sorted by `(cell, id)` through a reused buffer
/// of packed keys, so the sort reads no entity and needs no merge buffer.
fn zip_table(entities: &[Entity], cities: usize) -> (Vec<ZipCode>, Vec<u32>, Vec<EntityId>) {
    let mut spans = vec![0u32; cities + 1];
    for e in entities {
        spans[e.zip.city.index() + 1] += 1;
    }
    for c in 0..cities {
        spans[c + 1] += spans[c];
    }
    let mut fill = spans.clone();
    let mut zip_entities = vec![EntityId(0); entities.len()];
    for e in entities {
        let slot = &mut fill[e.zip.city.index()];
        zip_entities[*slot as usize] = e.id;
        *slot += 1;
    }

    let mut zips: Vec<ZipCode> = Vec::new();
    let mut zip_starts: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    for (c, span) in spans.windows(2).enumerate() {
        let ids = &mut zip_entities[span[0] as usize..span[1] as usize];
        keys.clear();
        keys.extend(
            ids.iter()
                .map(|id| u64::from(entities[id.0 as usize].zip.cell) << 32 | u64::from(id.0)),
        );
        keys.sort_unstable();
        let mut last_cell = None;
        for (k, (slot, &key)) in ids.iter_mut().zip(&keys).enumerate() {
            *slot = EntityId(key as u32);
            let cell = (key >> 32) as u16;
            if last_cell != Some(cell) {
                last_cell = Some(cell);
                zips.push(ZipCode {
                    city: CityId(c as u32),
                    cell,
                });
                zip_starts.push(span[0] + k as u32);
            }
        }
    }
    zip_starts.push(entities.len() as u32);
    (zips, zip_starts, zip_entities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use proptest::prelude::*;
    use world_sim::host::HostKind;
    use world_sim::WorldConfig;

    /// `nearest_of` as it was before the pruned scan: `min_by` over
    /// `GeoPoint::distance`, two haversines per comparison. Kept as the
    /// oracle the pruned scan must match edge for edge.
    fn nearest_of_oracle(centers: &[GeoPoint], cities: &[CityId], to: CityId) -> CityId {
        let target = centers[to.index()];
        *cities
            .iter()
            .min_by(|&&a, &&b| {
                centers[a.index()]
                    .distance(&target)
                    .total_cmp(&centers[b.index()].distance(&target))
            })
            .expect("non-empty city list")
    }

    /// Checks the pruned scan against the oracle for every target city.
    fn edges_agree(centers: &[GeoPoint], pops: &[CityId]) {
        let table = CenterTable::of(centers.iter().copied());
        for to in 0..centers.len() {
            let to = CityId(to as u32);
            assert_eq!(
                nearest_of(&table, pops, to),
                nearest_of_oracle(centers, pops, to),
                "PoPs {pops:?}, target {to}"
            );
        }
    }

    #[test]
    fn edge_scan_matches_min_by_on_every_small_world_pair() {
        for seed in [141, 5001] {
            let w = World::generate(WorldConfig::small(Seed(seed))).unwrap();
            let centers: Vec<GeoPoint> = w.cities.iter().map(|c| c.center).collect();
            // Every AS's PoP list is a candidate CDN footprint.
            let mut lists = 0;
            for a in w.ases.iter().filter(|a| !a.pops.is_empty()) {
                edges_agree(&centers, &a.pops);
                lists += 1;
            }
            assert!(lists > 10, "only {lists} PoP lists");
        }
    }

    #[test]
    fn edge_scan_keeps_the_first_of_exact_ties() {
        let centers = [
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.0, 10.0),
            GeoPoint::new(0.0, -10.0),
            GeoPoint::new(45.0, 45.0),
            // City 4 sits exactly on city 3.
            GeoPoint::new(45.0, 45.0),
        ];
        let table = CenterTable::of(centers.iter().copied());
        let id = CityId;
        // A PoP listed twice: the first listing wins.
        assert_eq!(nearest_of(&table, &[id(3), id(1), id(1)], id(0)), id(1));
        // Two PoPs at one location: whichever is listed first wins.
        assert_eq!(nearest_of(&table, &[id(3), id(4)], id(0)), id(3));
        assert_eq!(nearest_of(&table, &[id(4), id(3)], id(0)), id(4));
        // Mirror images of each other about the target: equal bits.
        assert_eq!(nearest_of(&table, &[id(2), id(1)], id(0)), id(2));
        assert_eq!(nearest_of(&table, &[id(1), id(2)], id(0)), id(1));
        edges_agree(&centers, &[id(3), id(1), id(1), id(4), id(2)]);
        edges_agree(&centers, &[id(4), id(2), id(3), id(1)]);
    }

    #[test]
    fn edge_scan_with_one_pop_returns_it() {
        let centers = [GeoPoint::new(10.0, 20.0), GeoPoint::new(-10.0, -160.0)];
        let table = CenterTable::of(centers.iter().copied());
        for to in [CityId(0), CityId(1)] {
            assert_eq!(nearest_of(&table, &[CityId(1)], to), CityId(1));
        }
        edges_agree(&centers, &[CityId(0)]);
    }

    #[test]
    fn edge_scan_matches_min_by_near_antipodes_poles_and_antimeridian() {
        let centers = [
            GeoPoint::new(10.0, 20.0),
            // The exact antipode of city 0, and points a hair off it.
            GeoPoint::new(-10.0, -160.0),
            GeoPoint::new(-10.000_001, -160.0),
            GeoPoint::new(-9.999_999, -159.999_999),
            GeoPoint::new(-10.0, -160.000_001),
            // Both poles and their neighbourhoods.
            GeoPoint::new(90.0, 0.0),
            GeoPoint::new(89.999, 180.0 - 1e-9),
            GeoPoint::new(89.999, -180.0),
            GeoPoint::new(-90.0, 17.0),
            GeoPoint::new(-89.999, -90.0),
            // Across the antimeridian.
            GeoPoint::new(0.0, 179.999_999),
            GeoPoint::new(0.0, -179.999_999),
            GeoPoint::new(0.0, -180.0),
            GeoPoint::new(0.000_001, 179.999_999),
        ];
        let all: Vec<CityId> = (0..centers.len() as u32).map(CityId).collect();
        edges_agree(&centers, &all);
        let reversed: Vec<CityId> = all.iter().rev().copied().collect();
        edges_agree(&centers, &reversed);
        for skip in 0..centers.len() {
            let rest: Vec<CityId> = all.iter().copied().filter(|c| c.index() != skip).collect();
            edges_agree(&centers, &rest);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random footprints, repeats included, over random cities, some
        /// of them clustered so that distances nearly tie.
        #[test]
        fn edge_scan_matches_min_by_on_random_footprints(
            cities in prop::collection::vec((-90.0f64..=90.0, -180.0f64..180.0, any::<bool>()), 2..40),
            pops in prop::collection::vec(0usize..40, 1..25),
        ) {
            let centers: Vec<GeoPoint> = cities
                .iter()
                .map(|&(lat, lon, near)| {
                    if near {
                        GeoPoint::new(lat / 1e4, lon / 1e4)
                    } else {
                        GeoPoint::new(lat, lon)
                    }
                })
                .collect();
            let pops: Vec<CityId> = pops
                .into_iter()
                .map(|i| CityId((i % centers.len()) as u32))
                .collect();
            edges_agree(&centers, &pops);
        }
    }

    fn build() -> (World, WebEcosystem) {
        let mut w = World::generate(WorldConfig::small(Seed(141))).unwrap();
        let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).unwrap();
        (w, eco)
    }

    #[test]
    fn generates_entities_for_every_city() {
        let (w, eco) = build();
        assert!(!eco.entities.is_empty());
        for city in &w.cities {
            assert!(
                eco.entities_in_city(city.id).len() >= 12,
                "{} has too few entities",
                city.name
            );
        }
    }

    #[test]
    fn local_sites_are_served_from_entity_location() {
        let (w, eco) = build();
        let mut checked = 0;
        for e in &eco.entities {
            let site = eco.website(e.website);
            if site.hosting == Hosting::Local {
                let server = w.host(site.server);
                assert_eq!(server.kind, HostKind::WebServer);
                let d = server.location.distance(&e.location).value();
                assert!(d < 0.001, "local server {d} km from entity");
                checked += 1;
            }
        }
        assert!(checked > 0, "no local sites generated");
    }

    #[test]
    fn hosting_mix_is_plausible() {
        let (_, eco) = build();
        let total = eco.websites.len() as f64;
        let local = eco
            .websites
            .iter()
            .filter(|s| s.hosting == Hosting::Local)
            .count() as f64;
        // p_local applies to website records (chains excluded), so the
        // realized fraction is near but not exactly p_local.
        assert!(
            local / total < 0.10,
            "too many local sites: {}",
            local / total
        );
        assert!(local > 0.0);
    }

    #[test]
    fn chains_span_multiple_zips() {
        let (_, eco) = build();
        let max_appearances = eco
            .websites
            .iter()
            .map(|s| s.zip_appearances)
            .max()
            .unwrap();
        assert!(
            max_appearances >= 3,
            "no chain spans several zips (max {max_appearances})"
        );
        // Local sites appear in exactly one zip.
        for s in &eco.websites {
            if s.hosting == Hosting::Local {
                assert_eq!(s.zip_appearances, 1);
            }
        }
    }

    #[test]
    fn zip_index_is_consistent() {
        let (_, eco) = build();
        for e in eco.entities.iter().take(500) {
            assert!(eco.entities_in_zip(e.zip).contains(&e.id));
        }
    }

    #[test]
    fn entities_within_matches_brute_force() {
        let (w, eco) = build();
        let p = w.cities[0].center;
        let hits = eco.entities_within(&w, &p, Km(30.0));
        let brute = eco
            .entities
            .iter()
            .filter(|e| e.location.distance(&p).value() <= 30.0)
            .count();
        assert_eq!(hits.len(), brute);
        for win in hits.windows(2) {
            assert!(win[0].1 <= win[1].1);
        }
    }

    #[test]
    fn servers_resolve_by_ip() {
        let (w, eco) = build();
        for s in eco.websites.iter().take(200) {
            let host = w.host(s.server);
            assert_eq!(w.host_by_ip(host.ip).unwrap().id, host.id);
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut w = World::generate(WorldConfig::small(Seed(142))).unwrap();
        let cfg = WebConfig {
            p_local: 0.8,
            p_cloud: 0.5,
            ..WebConfig::default()
        };
        assert!(WebEcosystem::generate(&mut w, &cfg).is_err());
    }
}
