//! End-to-end contract of the servable-dataset layer: publishing is
//! byte-deterministic, the TCP server answers many concurrent clients
//! correctly, and the snapshot diff surfaces churn between worlds.

use geo_model::rng::Seed;
use geo_serve::{format, query_one, DatasetStore, DiffReport, Manifest, QueryServer};
use ipgeo::publish::{build_dataset, DatasetEntry};
use ipgeo::Resilience;
use net_sim::Network;
use std::sync::Arc;
use world_sim::{World, WorldConfig};

/// The `ipgeo publish` producer pipeline at test scale: small world,
/// sanitized probes, a modest coverage mesh.
fn publish(seed: u64) -> Vec<DatasetEntry> {
    let world = World::generate(WorldConfig::small(Seed(seed))).unwrap();
    let net = Network::new(Seed(seed));
    let vps: Vec<_> = world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect();
    let mesh = ipgeo::two_step::greedy_coverage(&world, &vps, 60.min(vps.len()));
    let prefixes: Vec<_> = world
        .anchors
        .iter()
        .map(|&a| world.host(a).ip.prefix24())
        .collect();
    build_dataset(&world, &net, &Resilience::none(), &mesh, &prefixes, 1).0
}

#[test]
fn publishing_twice_with_the_same_seed_is_byte_identical() {
    // Two fully independent world generations and campaigns.
    let first = format::encode(&publish(631), 631, 1);
    let second = format::encode(&publish(631), 631, 1);
    assert_eq!(first, second, "same seed must give a byte-identical .igds");

    // And the files written from them are identical too.
    let dir = std::env::temp_dir().join("igds-determinism-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("a.igds"), dir.join("b.igds"));
    std::fs::write(&a, &first).unwrap();
    std::fs::write(&b, &second).unwrap();
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

#[test]
fn server_answers_eight_concurrent_clients_correctly() {
    let store = Arc::new(DatasetStore::from_entries(&publish(631), 631, 1));
    assert!(!store.is_empty());
    let server = QueryServer::spawn(store.clone(), 0).unwrap();
    let addr = server.addr().to_string();

    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 24;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (store, addr) = (store.clone(), addr.clone());
            scope.spawn(move || {
                // One persistent connection per client, many queries on it.
                use std::io::{BufRead, BufReader, Write};
                let stream = std::net::TcpStream::connect(&addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                for q in 0..QUERIES_PER_CLIENT {
                    // Clients walk the store at interleaved offsets, so
                    // all of them hit overlapping entries concurrently.
                    let entry = &store.entries()[(c + q * CLIENTS) % store.len()];
                    let ip = entry.prefix.host(1);
                    writeln!(writer, "LOCATE {ip}").unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    assert_eq!(reply.trim_end(), format!("OK {entry}"));
                }
                writeln!(writer, "QUIT").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                assert_eq!(reply.trim_end(), "BYE");
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.hits, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.connections, CLIENTS as u64);
    // STATS over the wire agrees with the handle's snapshot.
    let line = query_one(&addr, "STATS").unwrap();
    assert!(line.contains(&format!("hits={}", stats.hits)), "{line}");
    server.shutdown();
}

#[test]
fn diff_between_different_seeds_reports_churn() {
    let old = DatasetStore::from_entries(&publish(631), 631, 1);
    let new = DatasetStore::from_entries(&publish(632), 632, 1);
    let diff = DiffReport::between(&old, &new);
    assert!(
        diff.churn() > 0,
        "different worlds must disagree somewhere: {diff}"
    );
    // The diff partitions both snapshots completely.
    let same_or_changed = diff.unchanged
        + diff.moved.len()
        + diff
            .retagged
            .iter()
            .filter(|r| !diff.moved.iter().any(|m| m.prefix == r.prefix))
            .count();
    assert_eq!(old.len(), diff.removed.len() + same_or_changed);
    assert_eq!(new.len(), diff.added.len() + same_or_changed);

    // The manifest sees every entry exactly once.
    let manifest = Manifest::of(&new);
    assert_eq!(
        manifest.methods.iter().map(|(_, n)| n).sum::<usize>(),
        new.len()
    );
}
