//! Counter conservation on the serve path: every answered address is
//! counted once in `ServeStats`, as a hit or a miss, and every cache
//! lookup once in the cache's counters, at any worker count, over both
//! protocols and both verbs, while clients race on one server.

use geo_model::ip::{Ipv4, Prefix24};
use geo_model::point::GeoPoint;
use geo_serve::proto::Opcode;
use geo_serve::{query_one, BinaryClient, DatasetStore, QueryServer, Response};
use ipgeo::publish::{DatasetEntry, Evidence};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// 200 entries over the first 1,000 /24s: one /24 in five is covered.
fn store() -> DatasetStore {
    let entries: Vec<DatasetEntry> = (0..200u32)
        .map(|i| DatasetEntry {
            prefix: Prefix24(i * 5 + 2),
            location: GeoPoint::new(f64::from(i % 160) - 80.0, f64::from(i % 340) - 170.0),
            evidence: if i % 2 == 0 {
                Evidence::Geofeed
            } else {
                Evidence::Whois
            },
        })
        .collect();
    DatasetStore::from_entries(&entries, 5, 1)
}

/// What a client's traffic should add to the server's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// Addresses answered with an entry.
    hits: u64,
    /// Addresses answered with no entry.
    misses: u64,
    /// Cache lookups the server makes for them: one per address.
    cache_lookups: u64,
}

impl Tally {
    fn add(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.cache_lookups += 1;
    }

    fn plus(self, other: Tally) -> Tally {
        Tally {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            cache_lookups: self.cache_lookups + other.cache_lookups,
        }
    }
}

/// Each client repeats its queries this many times, so later rounds find
/// them cached.
const ROUNDS: u32 = 3;

/// A client's `i`-th /24, in 0..1,100: past the last entry (997), so
/// LOCATE both hits and misses.
fn key(client: u32, i: u32) -> Prefix24 {
    Prefix24((client * 97 + i * 13) % 1100)
}

/// Sends binary LOCATE and NEAREST frames of 1 to 40 addresses, each
/// awaited, and checks every record against the store.
fn binary_client(addr: &str, store: &DatasetStore, client: u32) -> Tally {
    let mut conn = BinaryClient::connect(addr).unwrap();
    let mut tally = Tally::default();
    for _ in 0..ROUNDS {
        for frame in 0..6u32 {
            let n = 1 + (client * 7 + frame * 11) % 40;
            let ips: Vec<Ipv4> = (0..n)
                .map(|i| key(client, frame * 40 + i).host(i as u8))
                .collect();
            let nearest = frame % 2 == 1;
            let opcode = if nearest {
                Opcode::Nearest
            } else {
                Opcode::Locate
            };
            let Response::Records { records, .. } = conn.query(opcode, &ips).unwrap() else {
                panic!("a LOCATE/NEAREST frame is answered with records");
            };
            assert_eq!(records.len(), ips.len());
            for (ip, rec) in ips.iter().zip(&records) {
                let hit = if nearest {
                    store.lookup_nearest(*ip).is_some()
                } else {
                    store.lookup(*ip).is_some()
                };
                assert_eq!(rec.hit, hit, "{ip} nearest={nearest}");
                tally.add(hit);
            }
        }
    }
    tally
}

/// Sends line LOCATE and NEAREST queries one at a time, plus one
/// malformed query per round that neither counter may see.
fn line_client(addr: &str, store: &DatasetStore, client: u32) -> Tally {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| {
        // One write per query: a split write waits on Nagle.
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let mut tally = Tally::default();
    for _ in 0..ROUNDS {
        for i in 0..30u32 {
            let ip = key(client, i).host(9);
            let nearest = i % 3 == 0;
            let verb = if nearest { "NEAREST" } else { "LOCATE" };
            let hit = if nearest {
                store.lookup_nearest(ip).is_some()
            } else {
                store.lookup(ip).is_some()
            };
            let reply = ask(&format!("{verb} {ip}"));
            assert_eq!(reply.starts_with("OK "), hit, "{verb} {ip}: {reply}");
            tally.add(hit);
        }
        assert!(ask("LOCATE 300.1.2.3").starts_with("ERR"));
    }
    assert_eq!(ask("QUIT").trim_end(), "BYE");
    tally
}

fn conservation_at(workers: usize) {
    let store = Arc::new(store());
    let server = QueryServer::spawn_with_workers(Arc::clone(&store), 0, workers).unwrap();
    let addr = server.addr().to_string();
    let want = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u32)
            .map(|client| {
                let (addr, store) = (addr.as_str(), &*store);
                scope.spawn(move || {
                    if client % 2 == 0 {
                        binary_client(addr, store, client)
                    } else {
                        line_client(addr, store, client)
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().unwrap())
            .fold(Tally::default(), Tally::plus)
    });
    assert!(want.hits > 0 && want.misses > 0, "{want:?}");

    let stats = server.stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (want.hits, want.misses),
        "workers={workers}: ServeStats must count every answered address once"
    );
    let cache = server.cache_stats();
    assert_eq!(
        cache.hits + cache.misses,
        want.cache_lookups,
        "workers={workers}: the cache must count every lookup once: {cache:?}"
    );
    assert_eq!(cache.evictions, 0, "the working set fits the cache");
    // Repeated rounds find their answers cached.
    assert!(cache.hits > want.cache_lookups / 2, "{cache:?}");
    // The STATS line reports the same totals.
    let line = query_one(&addr, "STATS").unwrap();
    assert!(
        line.contains(&format!(" hits={} misses={} ", want.hits, want.misses)),
        "{line}"
    );
    server.shutdown();
}

#[test]
fn counters_are_conserved_at_one_worker() {
    conservation_at(1);
}

#[test]
fn counters_are_conserved_at_four_workers() {
    conservation_at(4);
}
