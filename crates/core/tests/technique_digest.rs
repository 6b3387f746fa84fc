//! Digest pins for every measurement technique in `ipgeo`.
//!
//! Each test hashes one technique's full output at f64-bit precision,
//! together with the executor accounting (`TargetLog` or
//! `CampaignReport`) it produced, under the `none`, `flaky` and `hostile`
//! fault profiles (`none` is `Resilience::none()`). The constants were
//! recorded while each technique still had two entry points, a fault-free
//! one beside one taking a `Resilience`, and before two-step ran on the
//! multi-round engine, so any drift in nonces, draw order, retries or
//! credit accounting fails here. Campaigns that fan out over
//! `geo_model::runtime::par_map_indexed` run at `IPGEO_THREADS` 1 and 8
//! and must match the same constant.

use atlas_sim::{FaultPlan, FaultProfile};
use geo_model::ip::{Ipv4, Prefix24};
use geo_model::rng::{splitmix64, Seed};
use geo_model::units::Ms;
use ipgeo::cbg::CbgResult;
use ipgeo::resilient::{self, TargetLog};
use ipgeo::street::StreetConfig;
use ipgeo::two_step::greedy_coverage;
use ipgeo::Resilience;
use net_sim::{Network, PingOutcome, Traceroute};
use std::sync::{Mutex, PoisonError};
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// `IPGEO_THREADS` is process-global; tests that flip it must not
/// interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const PROFILES: [FaultProfile; 3] = [
    FaultProfile::None,
    FaultProfile::Flaky,
    FaultProfile::Hostile,
];

/// FNV-1a, fed one little-endian `u64` at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn ms(&mut self, v: Option<Ms>) {
        match v {
            Some(ms) => self.f64(ms.value()),
            None => self.u64(u64::MAX),
        }
    }
    fn vp(&mut self, v: Option<HostId>) {
        self.u64(v.map_or(u64::MAX, |h| h.0 as u64));
    }
    fn cbg(&mut self, r: Option<&CbgResult>) {
        match r {
            Some(r) => {
                self.f64(r.estimate.lat());
                self.f64(r.estimate.lon());
                self.u64(r.used_fallback_soi as u64);
            }
            None => self.u64(u64::MAX),
        }
    }
    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }
    /// `Debug` prints every counter and the shortest round-trip form of
    /// `backoff_secs`, so equal text means an equal log.
    fn log(&mut self, log: &TargetLog) {
        self.text(&format!("{log:?}"));
    }
    fn pings(&mut self, batch: &[(HostId, PingOutcome)]) {
        self.u64(batch.len() as u64);
        for (vp, o) in batch {
            self.u64(vp.0 as u64);
            self.ms(o.rtt());
        }
    }
    fn traces(&mut self, batch: &[(HostId, Traceroute)]) {
        self.u64(batch.len() as u64);
        for (vp, tr) in batch {
            self.u64(vp.0 as u64);
            for hop in &tr.hops {
                self.u64((hop.waypoint.asn.0 as u64) << 32 | hop.waypoint.city.0 as u64);
                self.ms(hop.rtt);
            }
            self.ms(tr.dst_rtt);
        }
    }
}

fn setup() -> (World, Network, Vec<HostId>) {
    let w = World::generate(WorldConfig::small(Seed(351))).unwrap();
    let net = Network::new(Seed(351));
    let vps: Vec<HostId> = w
        .probes
        .iter()
        .copied()
        .filter(|&p| !w.host(p).is_mis_geolocated())
        .collect();
    (w, net, vps)
}

/// Runs `f` under `profile`: `None` is the executor with no plan at all.
fn under<R>(profile: FaultProfile, f: impl FnOnce(&Resilience) -> R) -> R {
    match profile {
        FaultProfile::None => f(&Resilience::none()),
        p => {
            let plan = FaultPlan::new(Seed(351), p);
            f(&Resilience::with_plan(&plan))
        }
    }
}

fn anchor_ips(w: &World, n: usize) -> Vec<Ipv4> {
    w.anchors.iter().take(n).map(|&a| w.host(a).ip).collect()
}

/// Runs `f` at `IPGEO_THREADS` 1 and 8 and requires the same digest.
fn at_one_and_eight(f: impl Fn() -> u64) -> u64 {
    std::env::set_var("IPGEO_THREADS", "1");
    let serial = f();
    std::env::set_var("IPGEO_THREADS", "8");
    let parallel = f();
    std::env::remove_var("IPGEO_THREADS");
    assert_eq!(serial, parallel, "digest differs between 1 and 8 threads");
    serial
}

fn check(name: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "{name} under {PROFILES:?}: {got:#018x?} != pinned {want:#018x?}"
    );
}

// Pinned digests, in `PROFILES` order (none, flaky, hostile).
const PING_BATCH: [u64; 3] = [
    0xffb9_e932_48f3_1c4e,
    0x6697_066f_f86a_07bf,
    0xd1a3_38db_efc1_59f3,
];
const PING_BATCH_KEYED: [u64; 3] = [
    0xc397_449a_b609_d4df,
    0xf934_5e6b_b596_6d1c,
    0x4dec_cd22_b2a9_78f4,
];
const TRACEROUTE_BATCH: [u64; 3] = [
    0x1088_61d6_e3bc_e079,
    0x5527_3890_d59a_de10,
    0xa022_0a06_d230_7e29,
];
const MILLION_CAMPAIGN: [u64; 3] = [
    0x5c0f_4a74_6df2_c5e1,
    0x5d04_b9b5_6389_166d,
    0x156c_70bd_728b_b076,
];
const TWO_STEP: [u64; 3] = [
    0xaff7_cf8d_1204_f569,
    0xb4af_16ca_ff08_2349,
    0xfbec_55ff_e170_1579,
];
const STREET: [u64; 3] = [
    0x8374_e414_a729_9982,
    0x63e9_52db_5398_5b8b,
    0x2288_d1c1_85cd_c4c9,
];
const PUBLISHED_DATASET: [u64; 3] = [
    0x81ec_5bb9_7e93_cfbe,
    0x67b8_2a7b_6039_e0f8,
    0x9ef1_3088_69f0_2015,
];

/// The executor's raw streams: every delivered reply and hop, in order,
/// with the accounting each batch leaves behind.
#[test]
fn raw_batches_match_their_pins() {
    let (w, net, vps) = setup();
    let vps = &vps[..24];
    let targets = anchor_ips(&w, 12);
    let tracers: Vec<HostId> = w.anchors.iter().copied().skip(12).take(8).collect();
    let mut got = [[0u64; 3]; 3];
    for (p, &profile) in PROFILES.iter().enumerate() {
        under(profile, |res| {
            let (mut plain, mut keyed, mut traced) = (Digest::new(), Digest::new(), Digest::new());
            let mut buf = Vec::new();
            for (k, &t) in targets.iter().enumerate() {
                let key = 0xD16E_5700 ^ k as u64;
                let mut log = TargetLog::default();
                let batch = resilient::ping_batch(&w, &net, res, vps, t, 3, key, &mut log);
                plain.pings(&batch);
                plain.log(&log);

                let mut log = TargetLog::default();
                let vp_nonce =
                    |i: usize, vp: HostId| splitmix64(key ^ (i as u64) << 32 ^ vp.0 as u64);
                resilient::ping_batch_keyed_into(
                    &w, &net, res, vps, t, 2, key, vp_nonce, &mut log, &mut buf,
                );
                keyed.pings(&buf);
                keyed.log(&log);

                let mut log = TargetLog::default();
                let batch = resilient::traceroute_batch_keyed(
                    &w, &net, res, &tracers, t, key, vp_nonce, &mut log,
                );
                traced.traces(&batch);
                traced.log(&log);
            }
            got[0][p] = plain.0;
            got[1][p] = keyed.0;
            got[2][p] = traced.0;
        });
    }
    check("ping_batch", got[0], PING_BATCH);
    check("ping_batch_keyed_into", got[1], PING_BATCH_KEYED);
    check("traceroute_batch_keyed", got[2], TRACEROUTE_BATCH);
}

/// Million-scale selection (§5.1): representative probes, the `k` best
/// VPs' target pings, CBG, and the merged report.
#[test]
fn million_campaign_matches_its_pin() {
    let _env = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (w, net, vps) = setup();
    let targets = anchor_ips(&w, 12);
    let got = PROFILES.map(|profile| {
        at_one_and_eight(|| {
            under(profile, |res| {
                let (outs, report) = ipgeo::million::campaign(&w, &net, res, &vps, &targets, 3, 21);
                let mut d = Digest::new();
                for o in &outs {
                    d.u64(o.selected_vps.len() as u64);
                    for &vp in &o.selected_vps {
                        d.vp(Some(vp));
                    }
                    d.cbg(o.cbg.as_ref());
                    d.u64(o.measurements);
                }
                d.text(&format!("{report:?}"));
                d.text(&report.to_string());
                d.0
            })
        })
    });
    check("million::campaign", got, MILLION_CAMPAIGN);
}

/// The two-step extension (§5.1.4), one target at a time.
#[test]
fn two_step_matches_its_pin() {
    let (w, net, vps) = setup();
    let coverage = greedy_coverage(&w, &vps, 20);
    let targets = anchor_ips(&w, 16);
    let got = PROFILES.map(|profile| {
        under(profile, |res| {
            let mut d = Digest::new();
            for (i, &t) in targets.iter().enumerate() {
                let mut log = TargetLog::default();
                let out = ipgeo::two_step::geolocate(
                    &w, &net, res, &coverage, &vps, t, i as u64, &mut log,
                );
                d.cbg(out.step1_cbg.as_ref());
                d.cbg(out.cbg.as_ref());
                d.vp(out.chosen_vp);
                d.u64(out.step2_candidates as u64);
                d.u64(out.measurements);
                d.log(&log);
            }
            d.0
        })
    });
    check("two_step::geolocate", got, TWO_STEP);
}

/// The street-level three tiers (§5.2) for a few anchors.
#[test]
fn street_matches_its_pin() {
    let mut w = World::generate(WorldConfig::small(Seed(351))).unwrap();
    let eco = WebEcosystem::generate(&mut w, &WebConfig::default()).unwrap();
    let net = Network::new(Seed(351));
    let cfg = StreetConfig::default();
    let got = PROFILES.map(|profile| {
        under(profile, |res| {
            let mut d = Digest::new();
            for (i, &target) in w.anchors.iter().enumerate().take(3) {
                let vps: Vec<HostId> = w
                    .anchors
                    .iter()
                    .copied()
                    .filter(|&a| a != target && !w.host(a).is_mis_geolocated())
                    .collect();
                let mut log = TargetLog::default();
                let out = ipgeo::street::geolocate(
                    &w,
                    &net,
                    &eco,
                    res,
                    &vps,
                    target,
                    &cfg,
                    40 + i as u64,
                    &mut log,
                );
                d.cbg(out.tier1.as_ref());
                match out.estimate {
                    Some(p) => {
                        d.f64(p.lat());
                        d.f64(p.lon());
                    }
                    None => d.u64(u64::MAX),
                }
                d.u64(out.chosen_landmark.map_or(u64::MAX, |e| e.0 as u64));
                d.u64(out.landmarks.len() as u64);
                d.u64(out.traceroutes);
                d.u64(out.mapping_queries);
                d.u64(out.locality_tests);
                d.f64(out.virtual_secs);
                d.log(&log);
            }
            d.0
        })
    });
    check("street::geolocate", got, STREET);
}

/// The published dataset: every entry's bits and evidence, and the report.
#[test]
fn published_dataset_matches_its_pin() {
    let _env = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (w, net, vps) = setup();
    let mesh = greedy_coverage(&w, &vps, 40);
    let mut prefixes: Vec<Prefix24> = w.anchors.iter().map(|&a| w.host(a).ip.prefix24()).collect();
    prefixes.extend(w.probes.iter().take(40).map(|&p| w.host(p).ip.prefix24()));
    prefixes.sort();
    prefixes.dedup();
    let got = PROFILES.map(|profile| {
        at_one_and_eight(|| {
            under(profile, |res| {
                let (entries, report) =
                    ipgeo::publish::build_dataset(&w, &net, res, &mesh, &prefixes, 11);
                let mut d = Digest::new();
                for e in &entries {
                    d.u64(e.prefix.0 as u64);
                    d.f64(e.location.lat());
                    d.f64(e.location.lon());
                    d.text(e.evidence.method());
                    d.text(&e.evidence.detail());
                }
                d.text(&format!("{report:?}"));
                d.text(&report.to_string());
                d.0
            })
        })
    });
    check("publish::build_dataset", got, PUBLISHED_DATASET);
}
