//! The assembled world.
//!
//! [`World::generate`] runs every generation stage in a fixed order, each
//! with its own derived RNG stream, and exposes lookup tables the higher
//! layers need (ip → host, spatial index, density field).

use crate::asn::AutonomousSystem;
use crate::city::{City, CityIndex};
use crate::config::WorldConfig;
use crate::density::DensityField;
use crate::hitlist::Hitlist;
use crate::host::{generate_hosts, AddressPlan, Host, HostKind, LastMile};
use crate::ids::{AsId, CityId, HostId};
use crate::metadata::Metadata;
use geo_model::ip::Ipv4;
use geo_model::point::GeoPoint;
use std::collections::HashMap;

/// A fully generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration the world was generated from.
    pub config: WorldConfig,
    /// All cities.
    pub cities: Vec<City>,
    /// Number of distinct countries.
    pub num_countries: usize,
    /// All autonomous systems.
    pub ases: Vec<AutonomousSystem>,
    /// All hosts (anchors, probes, representatives, web servers).
    pub hosts: Vec<Host>,
    /// Anchor host ids.
    pub anchors: Vec<HostId>,
    /// Probe host ids.
    pub probes: Vec<HostId>,
    /// Representative host ids per anchor (parallel to `anchors`).
    pub representatives: Vec<Vec<HostId>>,
    /// The address plan.
    pub plan: AddressPlan,
    /// The responsiveness hitlist.
    pub hitlist: Hitlist,
    /// DNS / geofeed / WHOIS hints.
    pub metadata: Metadata,
    /// The population-density field.
    pub density: DensityField,
    /// Spatial index over city centers.
    pub city_index: CityIndex,
    ip_to_host: HashMap<Ipv4, HostId>,
    /// (AS, city) pairs with a PoP — O(1) membership for routing.
    pop_set: std::collections::HashSet<(u32, u32)>,
    /// Transit providers (tier-1s, else transit/access, else the largest
    /// AS) — the candidate pool for interdomain path synthesis.
    transit_pool: Vec<AsId>,
    /// Each AS's two upstream providers (multi-homing), drawn from the
    /// transit pool; members of the pool are their own provider.
    providers: Vec<[AsId; 2]>,
    /// Unit vectors of city centers for trig-free distance comparisons.
    city_units: Vec<[f64; 3]>,
}

/// Unit vector of a geographic point on the sphere.
fn unit_vector(p: &GeoPoint) -> [f64; 3] {
    let lat = p.lat().to_radians();
    let lon = p.lon().to_radians();
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

impl World {
    /// Generates a world from a configuration. Fails if the configuration
    /// is inconsistent.
    pub fn generate(config: WorldConfig) -> Result<World, String> {
        config.validate()?;
        let seed = config.seed;

        let mut rng = seed.derive("cities").rng();
        let (cities, num_countries) = crate::city::generate_cities(&config, &mut rng);

        let mut rng = seed.derive("ases").rng();
        let mut ases = crate::asn::generate_ases(&config, &cities, &mut rng);

        let mut rng = seed.derive("hosts").rng();
        let pop = generate_hosts(&config, &cities, &mut ases, &mut rng);

        let mut rng = seed.derive("hitlist").rng();
        let hitlist = Hitlist::build(&pop, &mut rng);

        let mut rng = seed.derive("metadata").rng();
        let metadata = Metadata::generate(
            &pop.hosts,
            &ases,
            &cities,
            &pop.plan,
            config.dns_hint_fraction,
            &mut rng,
        );

        let density = DensityField::build(&cities, seed);
        let city_index = CityIndex::build(&cities);
        let ip_to_host = pop.hosts.iter().map(|h| (h.ip, h.id)).collect();
        let mut pop_set = std::collections::HashSet::new();
        for a in &ases {
            for &c in &a.pops {
                pop_set.insert((a.id.0, c.0));
            }
        }
        let city_units = cities.iter().map(|c| unit_vector(&c.center)).collect();
        let transit_pool = {
            use crate::asn::AsCategory;
            let pick = |cat: AsCategory| -> Vec<AsId> {
                ases.iter()
                    .filter(|a| a.category == cat)
                    .map(|a| a.id)
                    .collect()
            };
            let tier1 = pick(AsCategory::Tier1);
            if !tier1.is_empty() {
                tier1
            } else {
                let transit = pick(AsCategory::TransitAccess);
                if !transit.is_empty() {
                    transit
                } else {
                    vec![
                        ases.iter()
                            .max_by_key(|a| a.pops.len())
                            .expect("world has ASes")
                            .id,
                    ]
                }
            }
        };

        let providers = {
            use geo_model::rng::splitmix64;
            let pool = &transit_pool;
            ases.iter()
                .map(|a| {
                    if pool.contains(&a.id) {
                        [a.id, a.id]
                    } else {
                        let h1 = splitmix64(a.id.0 as u64 ^ 0x9E37_79B9);
                        let h2 = splitmix64(h1);
                        let p1 = pool[(h1 % pool.len() as u64) as usize];
                        let mut p2 = pool[(h2 % pool.len() as u64) as usize];
                        if p2 == p1 && pool.len() > 1 {
                            p2 = pool[((h2 + 1) % pool.len() as u64) as usize];
                        }
                        [p1, p2]
                    }
                })
                .collect()
        };

        Ok(World {
            config,
            cities,
            num_countries,
            ases,
            hosts: pop.hosts,
            anchors: pop.anchors,
            probes: pop.probes,
            representatives: pop.representatives,
            plan: pop.plan,
            hitlist,
            metadata,
            density,
            city_index,
            ip_to_host,
            pop_set,
            city_units,
            transit_pool,
            providers,
        })
    }

    /// The transit-provider candidate pool (never empty).
    #[inline]
    pub fn transit_pool(&self) -> &[AsId] {
        &self.transit_pool
    }

    /// The two upstream providers of an AS (equal for single-homed and
    /// for transit-pool members themselves).
    #[inline]
    pub fn providers(&self, asn: AsId) -> [AsId; 2] {
        self.providers[asn.index()]
    }

    /// True if the AS has a PoP in the city — O(1), for routing hot paths.
    #[inline]
    pub fn has_pop(&self, asn: AsId, city: CityId) -> bool {
        self.pop_set.contains(&(asn.0, city.0))
    }

    /// The PoP city of `asn` nearest to `city`, compared via precomputed
    /// unit vectors (no trigonometry on the hot path).
    pub fn nearest_pop(&self, asn: AsId, city: CityId) -> CityId {
        let target = self.city_units[city.index()];
        let asys = self.asn(asn);
        let mut best = asys.pops[0];
        let mut best_dot = f64::NEG_INFINITY;
        for &p in &asys.pops {
            let u = self.city_units[p.index()];
            let dot = u[0] * target[0] + u[1] * target[1] + u[2] * target[2];
            if dot > best_dot {
                best_dot = dot;
                best = p;
            }
        }
        best
    }

    /// Looks up a host by id.
    #[inline]
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// Looks up a city by id.
    #[inline]
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Looks up an AS by id.
    #[inline]
    pub fn asn(&self, id: AsId) -> &AutonomousSystem {
        &self.ases[id.index()]
    }

    /// Resolves an address to a simulated host, if one exists.
    pub fn host_by_ip(&self, ip: Ipv4) -> Option<&Host> {
        self.ip_to_host.get(&ip).map(|id| self.host(*id))
    }

    /// Adds a host created after generation (web servers from `web-sim`).
    /// Returns its id.
    pub fn add_web_server(&mut self, asn: AsId, city: CityId, location: GeoPoint) -> HostId {
        let ip = self.plan.allocate_address(asn, city);
        let id = HostId(self.hosts.len() as u32);
        let host = Host {
            id,
            ip,
            kind: HostKind::WebServer,
            asn,
            city,
            location,
            registered_location: location,
            last_mile: LastMile::Negligible,
        };
        self.ip_to_host.insert(ip, id);
        self.hosts.push(host);
        id
    }

    /// The anchor hosts.
    pub fn anchor_hosts(&self) -> impl Iterator<Item = &Host> {
        self.anchors.iter().map(move |id| self.host(*id))
    }

    /// The representatives of the anchor at position `idx` in `anchors`.
    pub fn representatives_of(&self, idx: usize) -> &[HostId] {
        &self.representatives[idx]
    }

    /// Population density (people/km²) at a point.
    pub fn density_at(&self, p: &GeoPoint) -> f64 {
        self.density.density_at(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;

    #[test]
    fn generates_small_world() {
        let w = World::generate(WorldConfig::small(Seed(61))).unwrap();
        assert_eq!(w.anchors.len(), 30);
        assert_eq!(w.probes.len(), 230);
        assert_eq!(w.cities.len(), 50);
        assert!(w.num_countries >= 2);
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = WorldConfig::small(Seed(61));
        cfg.hitlist_per_prefix = 0;
        assert!(World::generate(cfg).is_err());
    }

    #[test]
    fn ip_lookup_roundtrip() {
        let w = World::generate(WorldConfig::small(Seed(61))).unwrap();
        for h in &w.hosts {
            assert_eq!(w.host_by_ip(h.ip).unwrap().id, h.id);
        }
        assert!(w.host_by_ip(Ipv4::from_octets(250, 0, 0, 1)).is_none());
    }

    #[test]
    fn add_web_server_extends_world() {
        let mut w = World::generate(WorldConfig::small(Seed(61))).unwrap();
        let city = w.cities[0].id;
        let asn = w.ases[0].id;
        let loc = w.cities[0].center;
        let before = w.hosts.len();
        let id = w.add_web_server(asn, city, loc);
        assert_eq!(w.hosts.len(), before + 1);
        let h = w.host(id);
        assert_eq!(h.kind, HostKind::WebServer);
        assert_eq!(w.host_by_ip(h.ip).unwrap().id, id);
    }

    #[test]
    fn same_seed_same_world() {
        let a = World::generate(WorldConfig::small(Seed(62))).unwrap();
        let b = World::generate(WorldConfig::small(Seed(62))).unwrap();
        assert_eq!(a.hosts.len(), b.hosts.len());
        for (x, y) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.location, y.location);
        }
    }

    #[test]
    fn different_seed_different_world() {
        let a = World::generate(WorldConfig::small(Seed(63))).unwrap();
        let b = World::generate(WorldConfig::small(Seed(64))).unwrap();
        let same = a
            .hosts
            .iter()
            .zip(&b.hosts)
            .filter(|(x, y)| x.location == y.location)
            .count();
        assert!(same < a.hosts.len() / 2);
    }
}
