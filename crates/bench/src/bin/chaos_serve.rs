//! `chaos_serve`: the seeded socket-level chaos harness as a CI gate.
//!
//! Runs the full `geo_serve::chaos` equivalence experiment twice against
//! a fixed synthetic snapshot — once clean (baseline), once with half
//! the fleet replaying seeded fault schedules — and prints the attacked
//! run's [`ChaosReport`](geo_serve::ChaosReport) lines. Every printed
//! value is a pure function of the seed: no wall-clock readings, no
//! worker counts, no ordering artifacts, so CI can `cmp` the output
//! across repeat runs and across `IPGEO_THREADS` settings. Exits 1 when the clean clients' byte
//! streams differ between the baseline and the attacked run (the
//! equivalence contract), or when either run fails outright.
//!
//! Usage: `chaos_serve [--seed N] [--workers N]`
//!   --seed N      chaos schedule seed (default 7)
//!   --workers N   server worker threads; 0 = `IPGEO_THREADS` (default 0)

use geo_model::ip::Prefix24;
use geo_model::point::GeoPoint;
use geo_serve::chaos::{self, ChaosConfig};
use geo_serve::DatasetStore;
use ipgeo::publish::{DatasetEntry, Evidence};
use std::sync::Arc;

/// The fixed snapshot the harness serves: synthetic, constructed
/// in-process so the gate needs no files and no world build.
fn store() -> Arc<DatasetStore> {
    let entries: Vec<DatasetEntry> = (0..64u32)
        .map(|i| DatasetEntry {
            prefix: Prefix24(i * 11 + 5),
            location: GeoPoint::new(f64::from(i % 170) - 85.0, f64::from(i % 350) - 175.0),
            evidence: match i % 3 {
                0 => Evidence::Geofeed,
                1 => Evidence::DnsHint {
                    hostname: format!("pop-{i}.example.net"),
                },
                _ => Evidence::Whois,
            },
        })
        .collect();
    Arc::new(DatasetStore::from_entries(&entries, 42, 1))
}

fn parse_args() -> Result<(u64, usize), String> {
    let mut seed = 7u64;
    let mut workers = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workers" => {
                workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((seed, workers))
}

fn main() {
    let (seed, workers) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("chaos_serve: {e}");
            std::process::exit(2);
        }
    };
    let store = store();
    let cfg = ChaosConfig {
        seed,
        clean_conns: 6,
        chaos_conns: 6,
        queries_per_conn: 10,
        workers,
        shed_cap: 4,
        shed_extra: 3,
    };

    let baseline = match chaos::run(&store, &cfg, false) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos_serve: baseline run failed: {e}");
            std::process::exit(1);
        }
    };
    let attacked = match chaos::run(&store, &cfg, true) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos_serve: attacked run failed: {e}");
            std::process::exit(1);
        }
    };

    // The equivalence contract: chaos connections must be invisible in
    // the bytes every clean client reads.
    if baseline.clean_digest != attacked.clean_digest {
        eprintln!(
            "chaos_serve: EQUIVALENCE VIOLATION: clean digest {:016x} (baseline) != {:016x} (attacked)",
            baseline.clean_digest, attacked.clean_digest
        );
        std::process::exit(1);
    }

    print!("{}", attacked.lines());
}
