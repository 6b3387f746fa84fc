//! The `campaign` workload: `eval::dataset::Dataset::load` at quick scale,
//! the paper world (723 anchors, 10k probes), its anchor mesh, the
//! probe×anchor campaign and §4.3 sanitisation. Every figure binary pays
//! this build first.
//!
//! The traced pass replays `Dataset::load` call for call from this file,
//! with a span around each call into a layer, and checks that the replica
//! produces bit-identical matrices and sanitisation results.

use crate::trace::{SpanId, Tracer};
use crate::{
    clocks_note, median, memory_note, out_path, peak_rss_mb, secs, Clocks, Outcome, Settings,
    CITY_KM,
};
use eval::dataset::{Dataset, DelayMatrix, EvalScale, RttMatrix};
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use ipgeo::{sanitize_anchors, sanitize_probes};
use net_sim::{Network, RowScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::hitlist::HitlistEntry;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The campaign's outputs that must repeat exactly: the kept and removed
/// populations and every matrix cell's bits.
#[derive(Debug, PartialEq)]
struct Digest {
    targets: Vec<HostId>,
    anchors: Vec<HostId>,
    vps: Vec<HostId>,
    removed_anchors: Vec<HostId>,
    removed_probes: Vec<HostId>,
    rtt: u64,
    anchor_rtt: u64,
    reps: usize,
}

fn matrix_digest(m: &RttMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..m.rows() {
        for &c in m.row(r) {
            h = (h ^ u64::from(c.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn dataset_digest(d: &Dataset) -> Digest {
    Digest {
        targets: d.targets.clone(),
        anchors: d.anchors.clone(),
        vps: d.vps.clone(),
        removed_anchors: d.removed_anchors.clone(),
        removed_probes: d.removed_probes.clone(),
        rtt: matrix_digest(&d.rtt),
        anchor_rtt: matrix_digest(&d.anchor_rtt),
        reps: d.reps.len(),
    }
}

/// Probe×anchor and anchor×anchor cells the campaign measures.
fn pings(world: &World, kept_anchors: usize) -> u64 {
    let a = world.anchors.len() as u64;
    a * (a - 1) + world.probes.len() as u64 * kept_anchors as u64
}

/// Checks shapes and sanitisation accounting; returns the hosts that are
/// neither kept nor removed, or both (each one a failed operation).
fn check_dataset(d: &Dataset, out: &mut Outcome) -> u64 {
    let w = &d.world;
    out.check(
        !d.anchors.is_empty() && !d.vps.is_empty() && !d.targets.is_empty(),
        || "campaign kept no anchors, probes or targets".into(),
    );
    out.check(
        d.rtt.rows() == d.vps.len() && d.rtt.cols() == d.targets.len(),
        || {
            format!(
                "rtt matrix is {}x{}, want {}x{}",
                d.rtt.rows(),
                d.rtt.cols(),
                d.vps.len(),
                d.targets.len()
            )
        },
    );
    out.check(
        d.anchor_rtt.rows() == d.anchors.len() && d.anchor_rtt.cols() == d.anchors.len(),
        || "anchor mesh is not square over the kept anchors".into(),
    );
    out.check(d.reps.len() == d.targets.len(), || {
        "one representative list per target".into()
    });
    let mut populated = 0usize;
    for r in 0..d.rtt.rows() {
        populated += d.rtt.row(r).iter().filter(|c| c.is_finite()).count();
    }
    let cells = d.rtt.rows() * d.rtt.cols();
    out.check(populated * 10 > cells * 9, || {
        format!("only {populated} of {cells} rtt cells measured")
    });
    let unaccounted = |all: &[HostId], kept: &[HostId], removed: &[HostId]| -> u64 {
        let mut k = kept.to_vec();
        let mut r = removed.to_vec();
        k.sort_unstable();
        r.sort_unstable();
        all.iter()
            .filter(|h| k.binary_search(h).is_ok() == r.binary_search(h).is_ok())
            .count() as u64
    };
    let bad = unaccounted(&w.anchors, &d.anchors, &d.removed_anchors)
        + unaccounted(&w.probes, &d.vps, &d.removed_probes);
    out.check(bad == 0, || {
        format!("{bad} hosts neither kept nor removed, or both")
    });
    bad
}

/// Shortest ping on the built matrix: the share of targets whose
/// lowest-RTT vantage point is registered within 40 km of the target.
fn shortest_ping_city_frac(d: &Dataset) -> f64 {
    let mut within = 0usize;
    for t in 0..d.targets.len() {
        let best = (0..d.vps.len())
            .filter_map(|v| d.rtt.get(v, t).map(|rtt| (rtt.value(), v)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some((_, v)) = best {
            let estimate = d.world.host(d.vps[v]).registered_location;
            if d.error_km(t, &estimate) <= CITY_KM {
                within += 1;
            }
        }
    }
    within as f64 / d.targets.len().max(1) as f64
}

fn setup_once(seed: u64) -> f64 {
    let t = Instant::now();
    let mut world = World::generate(WorldConfig::paper(Seed(seed))).expect("valid preset config");
    let eco = WebEcosystem::generate(&mut world, &WebConfig::default()).expect("valid web config");
    let elapsed = secs(t);
    drop((world, eco));
    elapsed
}

pub fn run(s: &Settings) -> Outcome {
    if s.trace {
        return run_traced(s);
    }
    let mut out = Outcome::new();
    let setups: Vec<f64> = (0..SETUP_REPEATS).map(|_| setup_once(s.seed)).collect();

    // Whole builds until the next one would overrun the measuring time.
    let started = Instant::now();
    let (mut builds, mut clocks) = (Vec::new(), Vec::new());
    let mut first: Option<Digest> = None;
    let (mut cells, mut city_frac) = (0u64, 0.0);
    loop {
        let (t, c) = (Instant::now(), Clocks::now());
        let d = Dataset::load(EvalScale::quick(Seed(s.seed)));
        builds.push(secs(t));
        clocks.push(c.since());
        out.attempted += (d.world.anchors.len() + d.world.probes.len()) as u64;
        out.failed += check_dataset(&d, &mut out);
        let dg = dataset_digest(&d);
        match &first {
            None => {
                cells = pings(&d.world, d.anchors.len());
                city_frac = shortest_ping_city_frac(&d);
                first = Some(dg);
            }
            Some(f) => out.check(*f == dg, || "a rebuild differs from the first build".into()),
        }
        drop(d);
        let last = *builds.last().expect("one build ran");
        if secs(started) + last > s.seconds {
            break;
        }
    }
    let build_s = median(&builds);
    out.set("setup_s", median(&setups));
    out.set("build_s", build_s);
    out.set("p50_us", build_s * 1e6);
    out.set("qps", cells as f64 / build_s);
    out.set("city_frac", city_frac);
    out.set("rss_mb", peak_rss_mb());
    out.note(format!("setup_s samples={} {:?}", setups.len(), setups));
    out.note(format!("build_s samples={} {:?}", builds.len(), builds));
    out.note(clocks_note("builds", &clocks));
    out.note(memory_note());
    out.note(format!("qps counts {cells} measured cells per build"));
    out
}

/// `positions_of` from `eval::dataset`: positions of an in-order subset.
fn positions_of(subset: &[HostId], all: &[HostId]) -> Vec<usize> {
    let mut out = Vec::with_capacity(subset.len());
    let mut i = 0;
    for &want in subset {
        while all[i] != want {
            i += 1;
        }
        out.push(i);
        i += 1;
    }
    out
}

/// What the traced replica of `Dataset::load` hands back for checking.
struct Replica {
    digest: Digest,
    pings: u64,
    removed: u64,
    cache_lookups: u64,
    cache_entries: usize,
}

/// `Dataset::load(EvalScale::quick(seed))`, call for call, under spans.
fn traced_load(tr: &Tracer, root: SpanId, seed: u64) -> Replica {
    let scale = EvalScale::quick(Seed(seed));
    let mut world = tr.span("world-sim.generate", root, |_| {
        World::generate(WorldConfig::paper(scale.seed)).expect("valid preset config")
    });
    let eco = tr.span("web-sim.generate", root, |_| {
        WebEcosystem::generate(&mut world, &WebConfig::default()).expect("valid web config")
    });
    let net = tr.span("net-sim.hotpath", root, |_| {
        Network::new(scale.seed.derive("network"))
    });
    let soi = SpeedOfInternet::CBG;
    let pings = AtomicU64::new(0);

    let raw_anchors = world.anchors.clone();
    let n_anchors = raw_anchors.len();
    let anchor_lane = tr.span("net-sim.hotpath", root, |_| {
        net.target_lane(&world, &raw_anchors)
    });
    let mesh = tr.span("geo-model.matrix", root, |m| {
        DelayMatrix::par_build_with(n_anchors, n_anchors, RowScratch::new, |scratch, i, row| {
            tr.span("net-sim.hotpath", m, |_| {
                let mut n = 0;
                net.campaign_row(
                    &world,
                    &anchor_lane,
                    scratch,
                    raw_anchors[i],
                    3,
                    |j| 0x4E5A ^ ((i as u64) << 24 | j as u64),
                    Some(i),
                    |j, o| {
                        row[j] = DelayMatrix::cell(o.rtt());
                        n += 1;
                    },
                );
                pings.fetch_add(n, Ordering::Relaxed);
            });
        })
    });
    let anchor_report = tr.span("core.sanitize", root, |_| {
        sanitize_anchors(&world, &raw_anchors, &mesh, soi)
    });
    let anchors = anchor_report.kept.clone();

    let raw_probes = world.probes.clone();
    let probe_lane = tr.span("net-sim.hotpath", root, |_| {
        net.target_lane(&world, &anchors)
    });
    let mut order: Vec<u32> = (0..raw_probes.len() as u32).collect();
    tr.span("net-sim.hotpath", root, |_| {
        order.sort_by_key(|&p| (net.attach_group(&world, raw_probes[p as usize]), p));
    });
    let grouped = tr.span("geo-model.matrix", root, |m| {
        DelayMatrix::par_build_with(
            raw_probes.len(),
            anchors.len(),
            RowScratch::new,
            |scratch, k, row| {
                tr.span("net-sim.hotpath", m, |_| {
                    let p = order[k] as usize;
                    let mut n = 0;
                    net.campaign_row(
                        &world,
                        &probe_lane,
                        scratch,
                        raw_probes[p],
                        3,
                        |_| 0x9A11 ^ (p as u64) << 20,
                        None,
                        |a, o| {
                            row[a] = DelayMatrix::cell(o.rtt());
                            n += 1;
                        },
                    );
                    pings.fetch_add(n, Ordering::Relaxed);
                });
            },
        )
    });
    let mut pos = vec![0u32; order.len()];
    for (k, &p) in order.iter().enumerate() {
        pos[p as usize] = k as u32;
    }
    let probe_rtts = tr.span("geo-model.matrix", root, |_| {
        DelayMatrix::par_build(raw_probes.len(), anchors.len(), |p, row| {
            row.copy_from_slice(grouped.row(pos[p] as usize));
        })
    });
    let probe_report = tr.span("core.sanitize", root, |_| {
        sanitize_probes(&world, &raw_probes, &anchors, &probe_rtts, soi)
    });
    let vps = probe_report.kept.clone();

    let target_cols: Vec<usize> = match scale.target_sample {
        Some(n) if n < anchors.len() => {
            let stride = anchors.len() as f64 / n as f64;
            (0..n).map(|i| (i as f64 * stride) as usize).collect()
        }
        _ => (0..anchors.len()).collect(),
    };
    let targets: Vec<HostId> = target_cols.iter().map(|&c| anchors[c]).collect();
    let vp_rows = positions_of(&vps, &raw_probes);
    let (rtt, anchor_rtt) = tr.span("geo-model.matrix", root, |_| {
        let rtt = RttMatrix::par_build(vps.len(), targets.len(), |vi, out| {
            let row = probe_rtts.row(vp_rows[vi]);
            for (slot, &col) in out.iter_mut().zip(&target_cols) {
                *slot = row[col] as f32;
            }
        });
        let anchor_rows = positions_of(&anchors, &raw_anchors);
        let anchor_rtt = RttMatrix::par_build(anchors.len(), anchors.len(), |i, out| {
            let row = mesh.row(anchor_rows[i]);
            for (slot, &col) in out.iter_mut().zip(&anchor_rows) {
                *slot = row[col] as f32;
            }
        });
        (rtt, anchor_rtt)
    });
    let reps: Vec<Vec<HitlistEntry>> = tr.span("world-sim.hitlist", root, |_| {
        targets
            .iter()
            .map(|&t| {
                let prefix = world.host(t).ip.prefix24();
                world
                    .hitlist
                    .representatives(prefix, ipgeo::million::REPRESENTATIVES)
            })
            .collect()
    });
    let stats = net.cache_stats();
    let removed = (anchor_report.removed.len() + probe_report.removed.len()) as u64;
    let digest = Digest {
        targets,
        anchors,
        vps,
        removed_anchors: anchor_report.removed,
        removed_probes: probe_report.removed,
        rtt: matrix_digest(&rtt),
        anchor_rtt: matrix_digest(&anchor_rtt),
        reps: reps.len(),
    };
    drop((world, eco));
    Replica {
        digest,
        pings: pings.into_inner(),
        removed,
        cache_lookups: stats.hits + stats.misses,
        cache_entries: stats.entries,
    }
}

/// The layers this workload reports, by span name and metric name.
const LAYERS: [(&str, &str); 5] = [
    ("world-sim.generate", "world-sim.generate_s"),
    ("web-sim.generate", "web-sim.generate_s"),
    ("net-sim.hotpath", "net-sim.hotpath.rows_s"),
    ("core.sanitize", "core.sanitize.s"),
    ("geo-model.matrix", "geo-model.matrix.s"),
];

fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::new();
    // The reference build, which the replica must match, also warms the
    // process; the overhead then compares the traced build with the mean
    // of one untraced build just before it and one just after.
    let reference = Dataset::load(EvalScale::quick(Seed(s.seed)));
    out.attempted += (reference.world.anchors.len() + reference.world.probes.len()) as u64;
    out.failed += check_dataset(&reference, &mut out);
    let want = dataset_digest(&reference);
    let want_pings = pings(&reference.world, reference.anchors.len());
    let stats = reference.net.cache_stats();
    drop(reference);
    let untraced = || {
        let t = Instant::now();
        drop(Dataset::load(EvalScale::quick(Seed(s.seed))));
        secs(t)
    };
    let before = untraced();

    let tr = Tracer::new(s.seed);
    let (root, replica) = tr.span("build", SpanId::ROOT, |root| {
        (root, traced_load(&tr, root, s.seed))
    });
    out.check(replica.digest == want, || {
        "traced replica of Dataset::load differs from Dataset::load".into()
    });
    out.check(replica.pings == want_pings, || {
        format!(
            "the replica measured {} cells, want {want_pings}",
            replica.pings
        )
    });
    let untraced_s = (before + untraced()) / 2.0;
    let root_s = tr.duration_s(root);
    let times = tr.self_times(root);
    let mut covered = 0.0;
    for (span, metric) in LAYERS {
        let v = times.get(span).copied().unwrap_or(0.0);
        covered += v;
        out.set(metric, v);
    }
    out.set("net-sim.hotpath.pings", replica.pings as f64);
    out.set("core.sanitize.removed", replica.removed as f64);
    out.set("net-sim.cache.hit_rate", stats.hit_rate());
    out.set("net-sim.cache.entries", replica.cache_entries as f64);
    out.set("trace.residual", 1.0 - covered / root_s);
    out.set("trace.overhead", root_s / untraced_s - 1.0);
    out.check(replica.cache_lookups == 0, || {
        "the campaign went through the base-delay cache".into()
    });
    out.note(format!(
        "untraced build {untraced_s:.4} s (mean of 2), traced build {root_s:.4} s, {} spans; \
         layers cover {covered:.4} s of it",
        tr.len()
    ));
    for (name, v) in &times {
        out.note(format!("self time {name} = {v:.4} s"));
    }
    let path = out_path(&format!("trace-campaign-seed{}.jsonl", s.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
    out
}
