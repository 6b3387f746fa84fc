//! `ipgeo` — command-line interface to the replication framework.
//!
//! Generates a deterministic world and runs any of the replicated
//! geolocation techniques against it. See `ipgeo help`.

mod args;

use args::{parse, Cli, Command, Method, Methods, QuerySource, USAGE};
use atlas_sim::{FaultPlan, FaultProfile};
use geo_hints::{
    build_dataset_fused, fuse_sources, verify_against_region, CodeTable, FusedConfig, FusionInput,
};
use geo_model::ip::{Ipv4, Prefix24};
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use geo_serve::{DatasetStore, DiffReport, Manifest, QueryServer};
use ipgeo::cbg::{cbg, shortest_ping, vp_measurements};
use ipgeo::publish::{fused_sources, DatasetEntry};
use ipgeo::resilient::{CampaignReport, TargetLog};
use ipgeo::street::{geolocate as street_geolocate, StreetConfig};
use ipgeo::two_step::{geolocate as two_step_geolocate, greedy_coverage};
use ipgeo::Resilience;
use net_sim::Network;
use std::process::ExitCode;
use std::sync::Arc;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::census::Census;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_world(cli: &Cli) -> Result<(World, Network), String> {
    let cfg = if cli.paper {
        WorldConfig::paper(Seed(cli.seed))
    } else {
        WorldConfig::small(Seed(cli.seed))
    };
    let world = World::generate(cfg)?;
    let net = Network::new(Seed(cli.seed));
    Ok((world, net))
}

fn clean_probes(world: &World) -> Vec<HostId> {
    world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect()
}

/// The fault plan the CLI's `--fault-profile` selects, seeded from the
/// world seed so a given `(seed, profile)` pair replays bit-identically.
fn fault_plan(cli: &Cli) -> FaultPlan {
    FaultPlan::new(Seed(cli.seed), cli.fault_profile)
}

/// Prints the campaign report to stderr (stdout stays machine-readable
/// CSV / protocol output) when faults were actually injected.
fn report_faults(cli: &Cli, report: &CampaignReport) {
    if cli.fault_profile != FaultProfile::None {
        eprintln!("fault profile {} (seed {}):", cli.fault_profile, cli.seed);
        eprintln!("{report}");
    }
}

/// The shared producer behind `dataset` and `publish`: build the
/// explainable dataset over the anchors' prefixes with the CLI's
/// campaign knobs (`--nonce`, `--mesh`, `--methods`).
fn publish_dataset(cli: &Cli, world: &World) -> Result<Vec<DatasetEntry>, String> {
    let net = Network::new(Seed(cli.seed));
    let vps = clean_probes(world);
    if vps.is_empty() {
        return Err("no usable vantage points in this world".into());
    }
    let mesh = greedy_coverage(world, &vps, cli.mesh.min(vps.len()));
    let prefixes: Vec<Prefix24> = world
        .anchors
        .iter()
        .map(|&a| world.host(a).ip.prefix24())
        .collect();
    let plan = fault_plan(cli);
    let res = Resilience::with_plan(&plan);
    match cli.methods {
        Methods::Baseline => {
            let (ds, report) =
                ipgeo::publish::build_dataset(world, &net, &res, &mesh, &prefixes, cli.nonce);
            report_faults(cli, &report);
            Ok(ds)
        }
        Methods::Fused => {
            let cfg = FusedConfig::new(cli.hint_coverage, cli.hint_truthfulness);
            let (ds, report) =
                build_dataset_fused(world, &net, &res, &mesh, &prefixes, cli.nonce, &cfg);
            // The fused report keeps baseline and hint-verification
            // probes in separate books so credit accounting stays
            // auditable under fault injection.
            if cli.fault_profile != FaultProfile::None {
                eprintln!("fault profile {} (seed {}):", cli.fault_profile, cli.seed);
                eprintln!("{report}");
            }
            Ok(ds)
        }
    }
}

fn run(cli: Cli) -> Result<(), String> {
    match cli.command.clone() {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Targets => {
            let (world, _) = build_world(&cli)?;
            println!("sample anchor targets (seed {}):", cli.seed);
            for &a in world.anchors.iter().take(15) {
                let h = world.host(a);
                println!(
                    "  {:<16} {} ({})",
                    h.ip.to_string(),
                    h.location,
                    world.city(h.city).name
                );
            }
            Ok(())
        }
        Command::Census => {
            let (world, _) = build_world(&cli)?;
            let c = Census::of(&world);
            println!(
                "world seed {} ({})",
                cli.seed,
                if cli.paper { "paper scale" } else { "small" }
            );
            println!(
                "cities {}  countries {}  ASes {}",
                c.total_cities, c.total_countries, c.total_ases
            );
            println!(
                "anchors {} (in {} cities, {} countries, {} ASes)  probes {}",
                c.anchors, c.anchor_cities, c.anchor_countries, c.anchor_ases, c.probes
            );
            for (i, cont) in world_sim::continent::Continent::ALL.iter().enumerate() {
                if c.anchors_per_continent[i] > 0 {
                    println!("  {}: {} anchors", cont.code(), c.anchors_per_continent[i]);
                }
            }
            Ok(())
        }
        Command::Sanitize => {
            let (world, net) = build_world(&cli)?;
            let mut platform = atlas_sim::Platform::new(atlas_sim::CreditAccount::upgraded());
            let mesh = platform
                .anchor_mesh(&world, &net, &world.anchors)
                .map_err(|e| e.to_string())?;
            let report =
                ipgeo::sanitize_anchors(&world, &world.anchors, &mesh, SpeedOfInternet::CBG);
            println!(
                "anchors: kept {}, removed {} ({} iterations)",
                report.kept.len(),
                report.removed.len(),
                report.iterations
            );
            for id in &report.removed {
                let h = world.host(*id);
                println!(
                    "  removed {} at {} (claimed {})",
                    h.ip, h.location, h.registered_location
                );
            }
            println!(
                "credits spent: {}  virtual time: {:.0}s",
                platform.credits().spent(),
                platform.clock().now_secs()
            );
            Ok(())
        }
        Command::Dataset => {
            let (world, _) = build_world(&cli)?;
            let ds = publish_dataset(&cli, &world)?;
            print!("{}", ipgeo::publish::to_csv(&ds));
            Ok(())
        }
        Command::Publish { out } => {
            let (world, _) = build_world(&cli)?;
            let ds = publish_dataset(&cli, &world)?;
            let header = geo_serve::format::save(&out, &ds, cli.seed, cli.nonce)
                .map_err(|e| e.to_string())?;
            let store = DatasetStore::open(&out).map_err(|e| e.to_string())?;
            println!(
                "wrote {out}: {} entries, checksum {:016x}",
                header.entries, header.checksum
            );
            print!("{}", Manifest::with_accuracy(&store, &world));
            Ok(())
        }
        Command::Query {
            source,
            ip,
            nearest,
            binary,
        } => {
            match source {
                QuerySource::Server(addr) if binary => {
                    let target: Ipv4 = ip.parse().map_err(|e| format!("{e}"))?;
                    let opcode = if nearest {
                        geo_serve::Opcode::Nearest
                    } else {
                        geo_serve::Opcode::Locate
                    };
                    let mut client = geo_serve::BinaryClient::connect(&addr)
                        .map_err(|e| format!("{addr}: {e}"))?;
                    let response = client
                        .query(opcode, &[target])
                        .map_err(|e| format!("{addr}: {e}"))?;
                    match response {
                        geo_serve::Response::Records { records, .. } => {
                            let Some(rec) = records.first() else {
                                return Err(format!("{addr}: empty response batch"));
                            };
                            if !rec.hit {
                                println!("MISS {target}");
                                return Err(format!("server answered: MISS {target}"));
                            }
                            // Binary records carry the compact answer
                            // (the evidence trail stays on the line
                            // protocol and the snapshot itself).
                            println!(
                                "OK {}/24,{:.4},{:.4},method={} distance={}",
                                Ipv4(rec.prefix.0 << 8),
                                rec.lat(),
                                rec.lon(),
                                rec.method,
                                rec.distance
                            );
                        }
                        geo_serve::Response::Error(msg) => {
                            return Err(format!("server answered: ERR {msg}"))
                        }
                        geo_serve::Response::Stats(_) => {
                            return Err(format!("{addr}: unexpected STATS response"))
                        }
                        geo_serve::Response::Busy => {
                            return Err(format!(
                                "{addr}: server is at its connection cap (BUSY); retry shortly"
                            ))
                        }
                    }
                }
                QuerySource::Server(addr) => {
                    let verb = if nearest { "NEAREST" } else { "LOCATE" };
                    let reply = geo_serve::query_one(&addr, &format!("{verb} {ip}"))
                        .map_err(|e| format!("{addr}: {e}"))?;
                    println!("{reply}");
                    if !reply.starts_with("OK") {
                        return Err(format!("server answered: {reply}"));
                    }
                }
                QuerySource::File(path) => {
                    let store = DatasetStore::open(&path).map_err(|e| e.to_string())?;
                    let target: Ipv4 = ip.parse().map_err(|e| format!("{e}"))?;
                    println!("prefix,lat,lon,method,evidence");
                    match (store.lookup(target), nearest) {
                        (Some(entry), _) => println!("{entry}"),
                        (None, true) => {
                            let (entry, dist) = store
                                .lookup_nearest(target)
                                .ok_or_else(|| format!("{path} is empty"))?;
                            println!("{entry}");
                            eprintln!("note: nearest covering prefix, {dist} x /24 away");
                        }
                        (None, false) => {
                            return Err(format!(
                                "{target} has no covering /24 in {path} \
                                 (try --nearest for the closest prefix)"
                            ))
                        }
                    }
                }
            }
            Ok(())
        }
        Command::Serve { path, port } => {
            let store = Arc::new(DatasetStore::open(&path).map_err(|e| e.to_string())?);
            let config = geo_serve::ServeConfig {
                // The served file is also the RELOAD source: an admin
                // `RELOAD` re-reads it and swaps generations live.
                snapshot_path: Some(std::path::PathBuf::from(&path)),
                ..geo_serve::ServeConfig::default()
            };
            let server = QueryServer::spawn_with_config(store.clone(), port, config)
                .map_err(|e| e.to_string())?;
            println!(
                "serving {} entries from {path} on {} (world seed {}, nonce {})",
                store.len(),
                server.addr(),
                store.header().world_seed,
                store.header().nonce
            );
            use std::io::Write;
            let _ = std::io::stdout().flush();
            server.wait();
            Ok(())
        }
        Command::Diff { old, new } => {
            let old_store = DatasetStore::open(&old).map_err(|e| format!("{old}: {e}"))?;
            let new_store = DatasetStore::open(&new).map_err(|e| format!("{new}: {e}"))?;
            println!(
                "old: {old} (seed {}, {} entries)  new: {new} (seed {}, {} entries)",
                old_store.header().world_seed,
                old_store.len(),
                new_store.header().world_seed,
                new_store.len()
            );
            print!("{}", DiffReport::between(&old_store, &new_store));
            Ok(())
        }
        Command::Locate { ip, method } => {
            let (mut world, net) = build_world(&cli)?;
            let target: Ipv4 = ip.parse().map_err(|e| format!("{e}"))?;
            let Some(host) = world.host_by_ip(target).cloned() else {
                return Err(format!(
                    "{target} is not a responsive address in this world \
                     (try an anchor address from `ipgeo census`-scale worlds, \
                     e.g. 1.17.94.1 with --paper or 1.0.94.1 without)"
                ));
            };
            let vps = clean_probes(&world);
            let plan = fault_plan(&cli);
            let res = Resilience::with_plan(&plan);
            let mut log = TargetLog::default();

            let (estimate, label) = match method {
                Method::Cbg | Method::ShortestPing | Method::Fused => {
                    let batch = ipgeo::resilient::ping_batch(
                        &world, &net, &res, &vps, target, 3, 1, &mut log,
                    );
                    let ms = vp_measurements(&world, &batch);
                    match method {
                        Method::Cbg => {
                            let r = cbg(&ms, SpeedOfInternet::CBG).ok_or("CBG region is empty")?;
                            (r.estimate, "CBG (all probes)")
                        }
                        Method::Fused => {
                            let r = cbg(&ms, SpeedOfInternet::CBG).ok_or("CBG region is empty")?;
                            let cfg = world_sim::rdns::RdnsConfig::new(
                                cli.hint_coverage,
                                cli.hint_truthfulness,
                            );
                            let table = CodeTable::build(&world);
                            let name = world_sim::rdns::hostname(&world, &cfg, host.id);
                            let hint = name.as_ref().and_then(|n| {
                                let candidates = table.extract(&n.name);
                                verify_against_region(&world, &r, &n.name, &candidates)
                            });
                            let fused = fuse_sources(&FusionInput {
                                cbg: &r,
                                hint: hint.as_ref(),
                                street: None,
                                db: None,
                            });
                            match (&name, &hint) {
                                (Some(n), Some(_)) => {
                                    println!("rdns     {} (hint verified)", n.name);
                                }
                                (Some(n), None) => {
                                    println!("rdns     {} (hint refuted or absent)", n.name);
                                }
                                (None, _) => println!("rdns     none published"),
                            }
                            println!(
                                "fused    sources {}  confidence {:.2}",
                                fused_sources::label(fused.sources),
                                fused.confidence
                            );
                            (fused.location, "fused (CBG + verified rDNS hints)")
                        }
                        _ => {
                            let best = shortest_ping(&ms).ok_or("no measurements")?;
                            (best.location, "shortest ping")
                        }
                    }
                }
                Method::TwoStep => {
                    let coverage = greedy_coverage(&world, &vps, 50.min(vps.len()));
                    let out = two_step_geolocate(
                        &world, &net, &res, &coverage, &vps, target, 1, &mut log,
                    );
                    let r = out.cbg.ok_or(
                        "two-step selection failed: the target's /24 has no \
                         responsive representatives (the VP selection needs the \
                         hitlist, §3.1 — try an address from `ipgeo targets`)",
                    )?;
                    println!(
                        "two-step: {} measurements, {} step-2 candidates",
                        out.measurements, out.step2_candidates
                    );
                    (r.estimate, "two-step selection")
                }
                Method::Street => {
                    let eco = WebEcosystem::generate(&mut world, &WebConfig::default())?;
                    let anchors: Vec<HostId> = world
                        .anchors
                        .iter()
                        .copied()
                        .filter(|&a| {
                            world.host(a).ip != target && !world.host(a).is_mis_geolocated()
                        })
                        .collect();
                    let out = street_geolocate(
                        &world,
                        &net,
                        &eco,
                        &res,
                        &anchors,
                        host.id,
                        &StreetConfig::default(),
                        1,
                        &mut log,
                    );
                    println!(
                        "street level: {} landmarks, {} mapping queries, {:.0}s virtual time",
                        out.landmarks.len(),
                        out.mapping_queries,
                        out.virtual_secs
                    );
                    (
                        out.estimate.ok_or("street-level pipeline failed")?,
                        "street level",
                    )
                }
            };

            println!("target   {} (true location {})", target, host.location);
            println!("estimate {} via {}", estimate, label);
            println!(
                "error    {:.1} km",
                estimate.distance(&host.location).value()
            );
            let mut report = CampaignReport::default();
            report.absorb(&log);
            report_faults(&cli, &report);
            Ok(())
        }
    }
}
