//! The fault-injection determinism contract: a faulty campaign is still a
//! pure function of (seed, fault profile, nonce). The thread count must
//! never leak into the delivered dataset, the CSV, or the
//! [`CampaignReport`] accounting — and with the `none` profile the
//! resilient executor must be byte-identical to the pre-executor path.

use atlas_sim::{FaultPlan, FaultProfile};
use geo_model::ip::Prefix24;
use geo_model::rng::Seed;
use ipgeo::publish::DatasetEntry;
use ipgeo::resilient::CampaignReport;
use ipgeo::Resilience;
use net_sim::Network;
use std::sync::Mutex;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// `IPGEO_THREADS` is process-global; tests that flip it must not
/// interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (World, Network, Vec<HostId>, Vec<Prefix24>) {
    let world = World::generate(WorldConfig::small(Seed(351))).unwrap();
    let net = Network::new(Seed(351));
    let vps: Vec<HostId> = world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect();
    // Probe prefixes rarely carry geofeed/DNS evidence, so the latency
    // step — the fault-exposed path — actually runs.
    let mut prefixes: Vec<Prefix24> = world
        .probes
        .iter()
        .take(40)
        .map(|&p| world.host(p).ip.prefix24())
        .collect();
    prefixes.sort();
    prefixes.dedup();
    (world, net, vps, prefixes)
}

fn build(profile: FaultProfile) -> (Vec<DatasetEntry>, CampaignReport, String) {
    let (world, net, vps, prefixes) = setup();
    let plan = FaultPlan::new(Seed(351), profile);
    let res = Resilience::with_plan(&plan);
    let (entries, report) = ipgeo::publish::build_dataset(&world, &net, &res, &vps, &prefixes, 7);
    let csv = ipgeo::publish::to_csv(&entries);
    (entries, report, csv)
}

fn entry_bits(entries: &[DatasetEntry]) -> Vec<(u32, u64, u64, String)> {
    entries
        .iter()
        .map(|e| {
            (
                e.prefix.0,
                e.location.lat().to_bits(),
                e.location.lon().to_bits(),
                format!("{:?}", e.evidence),
            )
        })
        .collect()
}

/// Acceptance: same seed + same profile ⇒ bit-identical dataset, CSV, and
/// campaign report, at any `IPGEO_THREADS`. This is the test the CI
/// `chaos` job runs at 1 and 8 threads.
#[test]
fn faulty_campaign_is_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    for profile in [FaultProfile::Flaky, FaultProfile::Hostile] {
        std::env::set_var("IPGEO_THREADS", "1");
        assert_eq!(geo_model::runtime::threads(), 1);
        let serial = build(profile);
        std::env::set_var("IPGEO_THREADS", "8");
        assert_eq!(geo_model::runtime::threads(), 8);
        let parallel = build(profile);
        std::env::remove_var("IPGEO_THREADS");

        assert_eq!(
            entry_bits(&serial.0),
            entry_bits(&parallel.0),
            "{profile}: entries differ across thread counts"
        );
        assert_eq!(serial.2, parallel.2, "{profile}: CSV differs");
        assert_eq!(serial.1, parallel.1, "{profile}: campaign report differs");
        assert_eq!(
            serial.1.to_string(),
            parallel.1.to_string(),
            "{profile}: rendered report differs"
        );
        assert!(
            serial.1.faults.total() > 0,
            "{profile}: no faults fired — the equivalence is vacuous"
        );
    }
}

/// Acceptance: a `none`-profile plan goes through the executor yet yields
/// the exact entries, CSV and report of `Resilience::none()` (no plan at
/// all), with empty fault/retry accounting.
#[test]
fn none_profile_matches_the_pre_executor_path() {
    let _env = ENV_LOCK.lock().unwrap();
    let (world, net, vps, prefixes) = setup();
    let (plain, plain_report) =
        ipgeo::publish::build_dataset(&world, &net, &Resilience::none(), &vps, &prefixes, 7);
    let (entries, report, csv) = build(FaultProfile::None);
    assert_eq!(entry_bits(&plain), entry_bits(&entries));
    assert_eq!(ipgeo::publish::to_csv(&plain), csv);
    assert_eq!(plain_report, report);
    assert_eq!(report.faults.total(), 0);
    assert_eq!(report.retries, 0);
    assert_eq!(report.credits.charged, report.credits.baseline);
    assert_eq!(report.credits.refunded, 0);
}

/// The million-scale campaign carries the same contract: identical
/// outcomes and report across thread counts under hostile faults.
#[test]
fn million_scale_campaign_is_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    let run = || {
        let (world, net, vps, _) = setup();
        let targets: Vec<_> = world
            .anchors
            .iter()
            .take(8)
            .map(|&a| world.host(a).ip)
            .collect();
        let plan = FaultPlan::new(Seed(351), FaultProfile::Hostile);
        let res = Resilience::with_plan(&plan);
        let (outcomes, report) = ipgeo::million::campaign(&world, &net, &res, &vps, &targets, 5, 9);
        let shape: Vec<_> = outcomes
            .iter()
            .map(|o| {
                (
                    o.measurements,
                    o.selected_vps.clone(),
                    o.cbg
                        .as_ref()
                        .map(|r| (r.estimate.lat().to_bits(), r.estimate.lon().to_bits())),
                )
            })
            .collect();
        (shape, report)
    };
    std::env::set_var("IPGEO_THREADS", "1");
    let serial = run();
    std::env::set_var("IPGEO_THREADS", "8");
    let parallel = run();
    std::env::remove_var("IPGEO_THREADS");
    assert_eq!(serial.0, parallel.0, "outcomes differ across thread counts");
    assert_eq!(serial.1, parallel.1, "campaign report differs");
    assert!(serial.1.faults.total() > 0, "hostile plan never fired");
}
