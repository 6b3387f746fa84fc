//! The `publish` workload: the steps of `ipgeo publish --paper --methods
//! fused` with the CLI defaults (mesh 300, hint coverage 0.6, truthfulness
//! 0.9, nonce 1, no faults), over every anchor and probe /24 of the paper
//! world, then `format::save` and `DatasetStore::open`. This is the paper's
//! deliverable, and it runs the layers `campaign` skips: `ping_min` through
//! the base-delay cache, the resilient executor, CBG, hint fusion and the
//! `.igds` codec.
//!
//! The traced pass replays `geo_hints::build_dataset_fused` call for call
//! from this file under spans and checks that the replica publishes the
//! same entries and the same campaign books.

use crate::trace::{SpanId, Tracer};
use crate::{
    clocks_note, median, memory_note, out_path, peak_rss_mb, secs, Clocks, Outcome, Settings,
    CITY_KM,
};
use atlas_sim::{FaultPlan, FaultProfile};
use geo_hints::{
    build_dataset_fused, fuse_sources, probe_consistent, verify_against_region, CodeTable,
    FusedConfig, FusedReport, FusionInput, VerifiedHint,
};
use geo_model::ip::Prefix24;
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use geo_serve::{format, DatasetStore};
use ipgeo::dbsim::GeoDatabase;
use ipgeo::publish::{DatasetEntry, Evidence};
use ipgeo::two_step::greedy_coverage;
use ipgeo::{cbg, resilient, Resilience, TargetLog, VpMeasurement};
use net_sim::Network;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// CLI defaults of `ipgeo publish`.
const MESH: usize = 300;
const HINT_COVERAGE: f64 = 0.6;
const HINT_TRUTHFULNESS: f64 = 0.9;
const NONCE: u64 = 1;
/// At least this many set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// The set-up a publish pays before its build: the world, the network and
/// the coverage mesh, plus the prefix list and where each prefix's truth
/// lies (input preparation, cheap next to the rest).
struct Setup {
    world: World,
    net: Network,
    mesh: Vec<HostId>,
    prefixes: Vec<Prefix24>,
    /// For each prefix (sorted), the first anchor or probe inside it.
    truth: Vec<HostId>,
}

fn clean_probes(world: &World) -> Vec<HostId> {
    world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect()
}

fn prefixes_of(world: &World) -> (Vec<Prefix24>, Vec<HostId>) {
    let mut by_prefix: Vec<(Prefix24, usize, HostId)> = world
        .anchors
        .iter()
        .chain(&world.probes)
        .enumerate()
        .map(|(i, &h)| (world.host(h).ip.prefix24(), i, h))
        .collect();
    by_prefix.sort_unstable_by_key(|&(p, i, _)| (p, i));
    by_prefix.dedup_by_key(|e| e.0);
    by_prefix.into_iter().map(|(p, _, h)| (p, h)).unzip()
}

fn setup(seed: u64, tr: Option<(&Tracer, SpanId)>) -> Setup {
    let world = match tr {
        Some((tr, root)) => tr.span("world-sim.generate", root, |_| {
            World::generate(WorldConfig::paper(Seed(seed))).expect("valid preset config")
        }),
        None => World::generate(WorldConfig::paper(Seed(seed))).expect("valid preset config"),
    };
    let net = Network::new(Seed(seed));
    let vps = clean_probes(&world);
    let k = MESH.min(vps.len());
    let mesh = match tr {
        Some((tr, root)) => tr.span("core.two_step", root, |_| greedy_coverage(&world, &vps, k)),
        None => greedy_coverage(&world, &vps, k),
    };
    let (prefixes, truth) = prefixes_of(&world);
    Setup {
        world,
        net,
        mesh,
        prefixes,
        truth,
    }
}

/// The fused build as the CLI runs it.
fn fused(su: &Setup, seed: u64) -> (Vec<DatasetEntry>, FusedReport) {
    let plan = FaultPlan::new(Seed(seed), FaultProfile::None);
    let res = Resilience::with_plan(&plan);
    let cfg = FusedConfig::new(HINT_COVERAGE, HINT_TRUTHFULNESS);
    build_dataset_fused(
        &su.world,
        &su.net,
        &res,
        &su.mesh,
        &su.prefixes,
        NONCE,
        &cfg,
    )
}

/// The entries `ipgeo publish --paper --methods fused` publishes for a
/// seed, untimed: the serve workloads' snapshot is made from them.
pub fn published(seed: u64) -> Vec<DatasetEntry> {
    fused(&setup(seed, None), seed).0
}

/// The fused build as the CLI runs it, then save and reopen.
fn build(
    su: &Setup,
    seed: u64,
    path: &Path,
) -> (Vec<DatasetEntry>, FusedReport, format::Header, DatasetStore) {
    let (entries, report) = fused(su, seed);
    let header = format::save(path, &entries, seed, NONCE).expect("snapshot written");
    let store = DatasetStore::open(path).expect("snapshot reopens");
    (entries, report, header, store)
}

/// Checks one entry per prefix and the save/open round trip; returns the
/// prefixes left without an entry.
fn check_build(
    su: &Setup,
    entries: &[DatasetEntry],
    store: &DatasetStore,
    out: &mut Outcome,
) -> u64 {
    let mut have: Vec<Prefix24> = entries.iter().map(|e| e.prefix).collect();
    have.sort_unstable();
    have.dedup();
    let missing = su
        .prefixes
        .iter()
        .filter(|p| have.binary_search(p).is_err())
        .count() as u64;
    out.check(missing == 0, || {
        format!("{missing} prefixes published without an entry")
    });
    out.check(entries.len() == su.prefixes.len(), || {
        format!(
            "{} entries for {} prefixes",
            entries.len(),
            su.prefixes.len()
        )
    });
    let mut sorted = entries.to_vec();
    sorted.sort_by_key(|e| e.prefix);
    out.check(store.entries() == sorted.as_slice(), || {
        "format::save then DatasetStore::open does not give back the built entries".into()
    });
    missing
}

/// Share of published prefixes within 40 km of the true location of the
/// anchor or probe the prefix came from.
fn city_frac(su: &Setup, store: &DatasetStore) -> f64 {
    let within = su
        .prefixes
        .iter()
        .zip(&su.truth)
        .filter(|(p, h)| {
            store.get(**p).is_some_and(|e| {
                e.location.distance(&su.world.host(**h).location).value() <= CITY_KM
            })
        })
        .count();
    within as f64 / su.prefixes.len().max(1) as f64
}

pub fn run(s: &Settings) -> Outcome {
    if s.trace {
        return run_traced(s);
    }
    let mut out = Outcome::new();
    let path = out_path(&format!("publish-seed{}.igds", s.seed));
    let started = Instant::now();
    let (mut setups, mut builds, mut clocks) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<u64> = None;
    let (mut prefixes, mut frac) = (0usize, 0.0);
    // Each build gets a fresh world and network, as a new CLI process
    // would: a reused network would start with a warm base-delay cache.
    loop {
        let t = Instant::now();
        let su = setup(s.seed, None);
        setups.push(secs(t));
        let (t, c) = (Instant::now(), Clocks::now());
        let (entries, _, header, store) = build(&su, s.seed, &path);
        builds.push(secs(t));
        clocks.push(c.since());
        out.attempted += su.prefixes.len() as u64;
        out.failed += check_build(&su, &entries, &store, &mut out);
        match first {
            None => {
                first = Some(header.checksum);
                prefixes = su.prefixes.len();
                frac = city_frac(&su, &store);
            }
            Some(sum) => out.check(sum == header.checksum, || {
                "a rebuild wrote a different snapshot".into()
            }),
        }
        let last = setups.last().copied().unwrap_or(0.0) + builds.last().copied().unwrap_or(0.0);
        if secs(started) + last > s.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(setup(s.seed, None));
        setups.push(secs(t));
    }
    let build_s = median(&builds);
    out.set("setup_s", median(&setups));
    out.set("build_s", build_s);
    out.set("p50_us", build_s * 1e6);
    out.set("qps", prefixes as f64 / build_s);
    out.set("city_frac", frac);
    out.set("rss_mb", peak_rss_mb());
    out.note(format!("setup_s samples={} {:?}", setups.len(), setups));
    out.note(format!("build_s samples={} {:?}", builds.len(), builds));
    out.note(clocks_note("builds", &clocks));
    out.note(memory_note());
    out.note(format!(
        "qps counts {prefixes} published prefixes per build"
    ));
    out
}

/// Counters the traced replica keeps beside the campaign books.
#[derive(Default)]
struct Counts {
    cbg_solves: AtomicU64,
    verified: AtomicU64,
}

/// `geo_hints::pipeline::locate_fused`, call for call, under spans.
#[allow(clippy::too_many_arguments)]
fn locate_traced(
    tr: &Tracer,
    item: SpanId,
    su: &Setup,
    res: &Resilience,
    table: &CodeTable,
    db: &GeoDatabase,
    cfg: &FusedConfig,
    counts: &Counts,
    prefix: Prefix24,
    base_log: &mut TargetLog,
    hint_log: &mut TargetLog,
) -> Option<DatasetEntry> {
    let world = &su.world;
    let (asn, _city) = world.plan.owner(prefix)?;
    if let Some(city) = world.metadata.geofeed_city(prefix) {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::Geofeed,
        });
    }
    if let Some(ip) = prefix
        .addresses()
        .find(|&ip| world.host_by_ip(ip).is_some())
    {
        let batch = tr.span("core.resilient", item, |_| {
            resilient::ping_batch(
                world,
                &su.net,
                res,
                &su.mesh,
                ip,
                3,
                NONCE ^ prefix.0 as u64,
                base_log,
            )
        });
        let ms: Vec<VpMeasurement> = batch
            .iter()
            .filter_map(|(vp, outcome)| {
                outcome.rtt().map(|rtt| VpMeasurement {
                    vp: *vp,
                    location: world.host(*vp).registered_location,
                    rtt,
                })
            })
            .collect();
        counts.cbg_solves.fetch_add(1, Ordering::Relaxed);
        let solved = tr.span("core.cbg", item, |_| cbg(&ms, SpeedOfInternet::CBG));
        if let Some(result) = solved {
            let hint = tr.span("geo-hints", item, |h| {
                mine_and_verify(tr, h, su, res, table, cfg, prefix, &result, hint_log)
            });
            if hint.is_some() {
                counts.verified.fetch_add(1, Ordering::Relaxed);
            }
            let prior = tr.span("core.dbsim", item, |_| db.lookup(ip));
            let fused = tr.span("geo-hints", item, |_| {
                fuse_sources(&FusionInput {
                    cbg: &result,
                    hint: hint.as_ref(),
                    street: None,
                    db: prior,
                })
            });
            let best = ms
                .iter()
                .min_by(|a, b| a.rtt.total_cmp(&b.rtt))
                .expect("cbg implies measurements");
            return Some(DatasetEntry {
                prefix,
                location: fused.location,
                evidence: Evidence::Fused {
                    confidence: fused.confidence,
                    sources: fused.sources,
                    vps: ms.len(),
                    best_rtt: best.rtt,
                    best_vp: best.vp,
                    hostname: hint.map(|h| h.hostname),
                },
            });
        }
    }
    let legacy = prefix.addresses().find_map(|ip| {
        let host = world.host_by_ip(ip)?;
        let city = world.metadata.dns_hint(host.id)?;
        let name = world.metadata.dns.get(&host.id)?.name.clone();
        Some((city, name))
    });
    if let Some((city, hostname)) = legacy {
        return Some(DatasetEntry {
            prefix,
            location: world.city(city).center,
            evidence: Evidence::DnsHint { hostname },
        });
    }
    Some(DatasetEntry {
        prefix,
        location: world.city(world.asn(asn).whois_city).center,
        evidence: Evidence::Whois,
    })
}

/// `geo_hints::pipeline::mine_and_verify`, call for call.
#[allow(clippy::too_many_arguments)]
fn mine_and_verify(
    tr: &Tracer,
    span: SpanId,
    su: &Setup,
    res: &Resilience,
    table: &CodeTable,
    cfg: &FusedConfig,
    prefix: Prefix24,
    result: &ipgeo::CbgResult,
    hint_log: &mut TargetLog,
) -> Option<VerifiedHint> {
    let world = &su.world;
    let (ip, name) = prefix.addresses().find_map(|ip| {
        let host = world.host_by_ip(ip)?;
        let name = world_sim::rdns::hostname(world, &cfg.hints, host.id)?;
        Some((ip, name))
    })?;
    let candidates = table.extract(&name.name);
    let hint = verify_against_region(world, result, &name.name, &candidates)?;
    if cfg.verify_vps == 0 {
        return Some(hint);
    }
    let mut closest: Vec<HostId> = su.mesh.clone();
    closest.sort_by(|a, b| {
        let da = world
            .host(*a)
            .registered_location
            .distance(&result.estimate)
            .value();
        let db = world
            .host(*b)
            .registered_location
            .distance(&result.estimate)
            .value();
        da.total_cmp(&db).then(a.0.cmp(&b.0))
    });
    closest.truncate(cfg.verify_vps);
    let batch = tr.span("core.resilient", span, |_| {
        resilient::ping_batch(
            world,
            &su.net,
            res,
            &closest,
            ip,
            cfg.verify_packets,
            NONCE ^ prefix.0 as u64 ^ geo_hints::pipeline::HINT_NONCE_SALT,
            hint_log,
        )
    });
    let checks: Vec<VpMeasurement> = batch
        .iter()
        .filter_map(|(vp, outcome)| {
            outcome.rtt().map(|rtt| VpMeasurement {
                vp: *vp,
                location: world.host(*vp).registered_location,
                rtt,
            })
        })
        .collect();
    probe_consistent(&hint.center, &checks).then_some(hint)
}

/// `build_dataset_fused` (coverage above 0), then save and open, under
/// spans.
fn traced_build(
    tr: &Tracer,
    root: SpanId,
    su: &Setup,
    seed: u64,
    path: &Path,
    counts: &Counts,
) -> (Vec<DatasetEntry>, FusedReport, DatasetStore) {
    let plan = FaultPlan::new(Seed(seed), FaultProfile::None);
    let res = Resilience::with_plan(&plan);
    let cfg = FusedConfig::new(HINT_COVERAGE, HINT_TRUTHFULNESS);
    let world = &su.world;
    let table = tr.span("geo-hints", root, |_| CodeTable::build(world));
    let db = tr.span("core.dbsim", root, |_| {
        GeoDatabase::maxmind_like(world, &su.prefixes, world.config.seed.derive("fused-db"))
    });
    let per: Vec<(Option<DatasetEntry>, TargetLog, TargetLog)> =
        tr.span("geo-hints", root, |par| {
            geo_model::runtime::par_map_indexed(su.prefixes.len(), |i| {
                tr.span("geo-hints", par, |item| {
                    let mut base_log = TargetLog::default();
                    let mut hint_log = TargetLog::default();
                    let entry = locate_traced(
                        tr,
                        item,
                        su,
                        &res,
                        &table,
                        &db,
                        &cfg,
                        counts,
                        su.prefixes[i],
                        &mut base_log,
                        &mut hint_log,
                    );
                    (entry, base_log, hint_log)
                })
            })
        });
    let mut report = FusedReport::default();
    let entries: Vec<DatasetEntry> = per
        .into_iter()
        .filter_map(|(entry, base_log, hint_log)| {
            report.base.absorb(&base_log);
            report.hints.absorb(&hint_log);
            entry
        })
        .collect();
    tr.span("geo-serve.format.encode", root, |_| {
        format::save(path, &entries, seed, NONCE).expect("snapshot written")
    });
    let store = tr.span("geo-serve.format.open", root, |_| {
        DatasetStore::open(path).expect("snapshot reopens")
    });
    (entries, report, store)
}

/// The build layers this workload reports, by span name and metric name.
const LAYERS: [(&str, &str); 6] = [
    ("core.resilient", "core.resilient.s"),
    ("core.cbg", "core.cbg.s"),
    ("core.dbsim", "core.dbsim.s"),
    ("geo-hints", "geo-hints.s"),
    ("geo-serve.format.encode", "geo-serve.format.encode_s"),
    ("geo-serve.format.open", "geo-serve.format.open_s"),
];

fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::new();
    let path = out_path(&format!("publish-seed{}.igds", s.seed));
    let tr = Tracer::new(s.seed);

    // The reference build, which the replica must match, also warms the
    // process; the overhead then compares the traced build with the mean
    // of one untraced build just before it and one just after.
    let su = setup(s.seed, None);
    let (want_entries, want_report, _, _) = build(&su, s.seed, &path);
    let mut untraced_cache = vec![su.net.cache_stats()];
    drop(su);
    let untraced = |caches: &mut Vec<_>| {
        let su = setup(s.seed, None);
        let t = Instant::now();
        build(&su, s.seed, &path);
        let elapsed = secs(t);
        caches.push(su.net.cache_stats());
        elapsed
    };
    let before = untraced(&mut untraced_cache);

    let (setup_root, su) = tr.span("setup", SpanId::ROOT, |root| {
        (root, setup(s.seed, Some((&tr, root))))
    });
    let counts = Counts::default();
    let (root, (entries, report, store)) = tr.span("build", SpanId::ROOT, |root| {
        (root, traced_build(&tr, root, &su, s.seed, &path, &counts))
    });
    out.attempted += su.prefixes.len() as u64;
    out.failed += check_build(&su, &entries, &store, &mut out);
    out.check(entries == want_entries, || {
        "traced replica of build_dataset_fused published different entries".into()
    });
    out.check(report == want_report, || {
        "traced replica of build_dataset_fused kept different campaign books".into()
    });
    let untraced_s = (before + untraced(&mut untraced_cache)) / 2.0;

    let setup_times = tr.self_times(setup_root);
    out.set(
        "world-sim.generate_s",
        setup_times
            .get("world-sim.generate")
            .copied()
            .unwrap_or(0.0),
    );
    out.set(
        "core.two_step.select_s",
        setup_times.get("core.two_step").copied().unwrap_or(0.0),
    );
    let times = tr.self_times(root);
    let root_s = tr.duration_s(root);
    let mut covered = 0.0;
    for (span, metric) in LAYERS {
        let v = times.get(span).copied().unwrap_or(0.0);
        covered += v;
        out.set(metric, v);
    }
    let cache = su.net.cache_stats();
    out.set("core.resilient.attempts", report.base.attempts as f64);
    out.set("core.resilient.retries", report.base.retries as f64);
    out.set("core.resilient.credits", report.base.credits.net() as f64);
    out.set("net-sim.cache.hit_rate", cache.hit_rate());
    out.set("net-sim.cache.entries", cache.entries as f64);
    out.set(
        "core.cbg.solves",
        counts.cbg_solves.load(Ordering::Relaxed) as f64,
    );
    out.set("geo-hints.probe_attempts", report.hints.attempts as f64);
    out.set(
        "geo-hints.verified_ratio",
        counts.verified.load(Ordering::Relaxed) as f64 / report.hints.attempts.max(1) as f64,
    );
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.check(bytes > 0, || format!("{} is empty", path.display()));
    out.set("geo-serve.format.bytes", bytes as f64);
    out.set("trace.residual", 1.0 - covered / root_s);
    out.set("trace.overhead", root_s / untraced_s - 1.0);
    out.note(format!(
        "untraced build {untraced_s:.4} s (mean of 2), traced build {root_s:.4} s, {} spans; \
         layers cover {covered:.4} s of it",
        tr.len()
    ));
    let hit_rates: Vec<String> = std::iter::once(cache)
        .chain(untraced_cache)
        .map(|c| {
            format!(
                "{} hits / {} misses ({:.6})",
                c.hits,
                c.misses,
                c.hit_rate()
            )
        })
        .collect();
    out.note(format!(
        "net-sim.cache hit counts may depend on thread interleaving; over 4 builds: {}",
        hit_rates.join(", ")
    ));
    for (name, v) in &times {
        out.note(format!("self time {name} = {v:.4} s"));
    }
    let trace_path = out_path(&format!("trace-publish-seed{}.jsonl", s.seed));
    if let Err(e) = tr.write_jsonl(&trace_path) {
        out.check(false, || format!("writing {}: {e}", trace_path.display()));
    }
    out
}
