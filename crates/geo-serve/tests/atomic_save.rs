//! Crash-safe publishing: `format::save` replaces a snapshot atomically,
//! so a reader racing a republish (a `RELOAD` while `ipgeo publish`
//! rewrites the file) opens the old snapshot or the new one, never a torn
//! mix, and no temp file is left behind.

use geo_model::ip::Prefix24;
use geo_model::point::GeoPoint;
use geo_model::units::Ms;
use geo_serve::{format, DatasetStore};
use ipgeo::publish::{DatasetEntry, Evidence};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use world_sim::ids::HostId;

/// `n` latency entries whose locations depend on `shift`, so two sets of
/// the same size have different payload checksums.
fn entries(n: u32, shift: f64) -> Vec<DatasetEntry> {
    (0..n)
        .map(|i| DatasetEntry {
            prefix: Prefix24(0x0001_0000 + i),
            location: GeoPoint::new(-60.0 + (i % 120) as f64 + shift, -170.0 + (i % 340) as f64),
            evidence: Evidence::Latency {
                vps: 3 + i as usize % 50,
                best_rtt: Ms(1.0 + i as f64 / 100.0),
                best_vp: HostId(i),
            },
        })
        .collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igds-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn files_in(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn readers_racing_a_republish_never_see_a_torn_snapshot() {
    const SAVES: usize = 200;
    let dir = fresh_dir("republish-race");
    let path = dir.join("live.igds");
    let sets = [entries(8_000, 0.0), entries(8_000, 0.5)];
    let checksums = [
        format::save(&path, &sets[0], 7, 1).unwrap().checksum,
        format::decode(&format::encode(&sets[1], 7, 1))
            .unwrap()
            .0
            .checksum,
    ];
    assert_ne!(checksums[0], checksums[1]);

    let done = AtomicBool::new(false);
    let opens = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut opens = [0usize; 2];
            loop {
                let finished = done.load(Ordering::Acquire);
                let store = DatasetStore::open(&path).expect("every open reads a whole snapshot");
                let sum = store.header().checksum;
                let which = checksums
                    .iter()
                    .position(|&c| c == sum)
                    .expect("the snapshot is one of the two published sets");
                opens[which] += 1;
                if finished {
                    return opens;
                }
            }
        });
        for i in 0..SAVES {
            let header = format::save(&path, &sets[(i + 1) % 2], 7, 1).unwrap();
            assert_eq!(header.checksum, checksums[(i + 1) % 2]);
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    assert!(opens[0] + opens[1] > 0);
    // The last save wrote set 0 (SAVES is even), and no temp file remains.
    assert_eq!(
        DatasetStore::open(&path).unwrap().header().checksum,
        checksums[0]
    );
    assert_eq!(files_in(&dir), ["live.igds"]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_save_leaves_the_old_snapshot_and_no_temp_file() {
    let dir = fresh_dir("failed-save");
    let path = dir.join("live.igds");
    let header = format::save(&path, &entries(10, 0.0), 7, 1).unwrap();
    // A directory at the target makes the final rename fail after the
    // temp file was written and synced.
    let blocked = dir.join("blocked.igds");
    fs::create_dir_all(blocked.join("occupied")).unwrap();
    assert!(matches!(
        format::save(&blocked, &entries(10, 0.5), 7, 1),
        Err(format::FormatError::Io(_))
    ));
    assert_eq!(files_in(&dir), ["blocked.igds", "live.igds"]);
    assert_eq!(DatasetStore::open(&path).unwrap().header(), &header);
    fs::remove_dir_all(&dir).unwrap();
}
