//! The measurement platform API.
//!
//! [`Platform`] is what geolocation pipelines talk to: "ping this target
//! from these vantage points", "run traceroutes to this landmark". Each
//! call charges credits, advances the virtual clock by the scheduling time
//! (slowest vantage point) plus the API round trip — the paper's §5.2.5
//! observation that fetching results "generally takes a few minutes" — and
//! returns deterministic results from `net-sim`.

use crate::clock::{VirtualClock, VirtualDuration};
use crate::credits::{CreditAccount, InsufficientCredits};
use crate::faults::{ApiFault, FaultPlan};
use crate::traffic::ProbeRate;
use geo_model::distr::{LogNormal, Sample};
use geo_model::ip::Ipv4;
use geo_model::rng::KeyRng;
use net_sim::{Network, PingOutcome, Traceroute};
use std::fmt;
use world_sim::ids::HostId;
use world_sim::World;

/// Platform behaviour knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Packets per ping measurement (RIPE Atlas default: 3).
    pub packets_per_ping: usize,
    /// Median API round trip (create measurement + poll results), seconds.
    pub api_median_secs: f64,
    /// Log-scale sigma of the API round trip.
    pub api_sigma: f64,
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig {
            packets_per_ping: 3,
            // "it generally takes a few minutes to get the results of a
            // measurement" (§5.2.5).
            api_median_secs: 150.0,
            api_sigma: 0.4,
        }
    }
}

/// Platform call failures, split into fatal conditions (credits, bad
/// request) and transient API faults a caller may retry.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// Out of credits. Fatal: retrying cannot help.
    Credits(InsufficientCredits),
    /// The request named no vantage points. Fatal: a caller bug.
    NoVantagePoints,
    /// The API shed load (HTTP 429). Transient: retry after the hint.
    RateLimited {
        /// Suggested wait before retrying, virtual seconds.
        retry_after_secs: f64,
    },
    /// The measurement API answered 5xx; the measurement never ran.
    /// Transient.
    ServerError,
    /// The result fetch never completed. Transient; the wait is already
    /// charged to the virtual clock.
    ApiTimeout {
        /// Virtual seconds wasted waiting before giving up.
        waited_secs: f64,
    },
}

impl PlatformError {
    /// True for transient faults where a bounded retry is the right
    /// response; false for conditions retrying cannot fix.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PlatformError::RateLimited { .. }
                | PlatformError::ServerError
                | PlatformError::ApiTimeout { .. }
        )
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Credits(e) => write!(f, "{e}"),
            PlatformError::NoVantagePoints => write!(f, "no vantage points given"),
            PlatformError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited (retry after {retry_after_secs:.0}s)")
            }
            PlatformError::ServerError => write!(f, "measurement API server error"),
            PlatformError::ApiTimeout { waited_secs } => {
                write!(f, "result fetch timed out after {waited_secs:.0}s")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<InsufficientCredits> for PlatformError {
    fn from(e: InsufficientCredits) -> PlatformError {
        PlatformError::Credits(e)
    }
}

/// Results of one measurement batch, with its virtual-time span.
#[derive(Debug, Clone)]
pub struct MeasurementBatch<T> {
    /// Per-vantage-point results in request order.
    pub results: Vec<(HostId, T)>,
    /// Virtual time when the batch was requested.
    pub started_secs: f64,
    /// Virtual time when results were available.
    pub completed_secs: f64,
}

impl<T> MeasurementBatch<T> {
    /// How long the batch took in virtual time.
    pub fn duration(&self) -> VirtualDuration {
        VirtualDuration::from_secs(self.completed_secs - self.started_secs)
    }
}

/// The measurement platform.
#[derive(Debug, Clone)]
pub struct Platform {
    config: PlatformConfig,
    clock: VirtualClock,
    credits: CreditAccount,
    nonce: u64,
    faults: Option<FaultPlan>,
}

impl Platform {
    /// A platform with the given credit account.
    pub fn new(credits: CreditAccount) -> Platform {
        Platform::with_config(credits, PlatformConfig::default())
    }

    /// A platform with explicit configuration.
    pub fn with_config(credits: CreditAccount, config: PlatformConfig) -> Platform {
        Platform {
            config,
            clock: VirtualClock::new(),
            credits,
            nonce: 0,
            faults: None,
        }
    }

    /// A platform whose calls are subjected to a seeded fault plan. A plan
    /// with all rates at zero behaves exactly like a fault-free platform.
    pub fn with_faults(
        credits: CreditAccount,
        config: PlatformConfig,
        plan: FaultPlan,
    ) -> Platform {
        let mut p = Platform::with_config(credits, config);
        if !plan.is_zero() {
            p.faults = Some(plan);
        }
        p
    }

    /// The active fault plan, if any injects faults.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The credit account.
    pub fn credits(&self) -> &CreditAccount {
        &self.credits
    }

    /// Advances virtual time for activity outside the platform (e.g. the
    /// street-level pipeline's mapping-service queries).
    pub fn spend_time(&mut self, d: VirtualDuration) {
        self.clock.advance(d);
    }

    fn next_nonce(&mut self) -> u64 {
        self.nonce += 1;
        self.nonce
    }

    /// The API round-trip latency for one batch (deterministic per nonce).
    fn api_latency(&self, net: &Network, nonce: u64) -> f64 {
        let mut rng = KeyRng::new(net.seed().derive_index("api-latency", nonce).0);
        LogNormal::with_median(self.config.api_median_secs, self.config.api_sigma).sample(&mut rng)
    }

    /// Consults the fault plan for call `nonce`. On a scheduled API fault,
    /// burns the virtual time the failed call cost and returns the typed
    /// retryable error; the caller must refund the charge first.
    fn api_fault_for(&mut self, net: &Network, nonce: u64) -> Option<PlatformError> {
        let fault = self.faults.as_ref()?.api_fault(nonce)?;
        Some(match fault {
            ApiFault::RateLimited => {
                // Rejected at submission: near-instant, with a polite hint.
                self.clock.advance(VirtualDuration::from_secs(1.0));
                PlatformError::RateLimited {
                    retry_after_secs: 30.0,
                }
            }
            ApiFault::ServerError => {
                self.clock.advance(VirtualDuration::from_secs(5.0));
                PlatformError::ServerError
            }
            ApiFault::Timeout => {
                // The caller polled well past the normal fetch time.
                let waited = 4.0 * self.api_latency(net, nonce);
                self.clock.advance(VirtualDuration::from_secs(waited));
                PlatformError::ApiTimeout {
                    waited_secs: waited,
                }
            }
        })
    }

    /// The churn window the virtual clock currently sits in.
    fn churn_window(&self) -> u64 {
        let secs = match &self.faults {
            Some(plan) => plan.config().churn_window_secs.max(1.0),
            None => return 0,
        };
        (self.clock.now_secs() / secs) as u64
    }

    /// Pings `target` from every vantage point (each sends
    /// `packets_per_ping` packets; the minimum RTT is reported).
    ///
    /// Advances the clock by the scheduling time of the slowest VP plus one
    /// API round trip, and charges one credit per packet.
    pub fn ping_from(
        &mut self,
        world: &World,
        net: &Network,
        vps: &[HostId],
        target: Ipv4,
    ) -> Result<MeasurementBatch<PingOutcome>, PlatformError> {
        if vps.is_empty() {
            return Err(PlatformError::NoVantagePoints);
        }
        let packets = self.config.packets_per_ping;
        self.credits.charge_pings((vps.len() * packets) as u64)?;
        let nonce = self.next_nonce();
        let started = self.clock.now_secs();

        if let Some(err) = self.api_fault_for(net, nonce) {
            // The measurement never produced results; Atlas refunds.
            self.credits.refund_pings((vps.len() * packets) as u64);
            return Err(err);
        }

        let window = self.churn_window();
        let mut results: Vec<(HostId, PingOutcome)> = Vec::with_capacity(vps.len());
        let mut disconnected = 0u64;
        for &vp in vps {
            if let Some(plan) = &self.faults {
                if plan.vp_disconnected(vp, window) {
                    // Probe offline for this window: no packets sent.
                    disconnected += 1;
                    continue;
                }
                if plan.reply_lost(vp, nonce) {
                    results.push((vp, PingOutcome::Timeout));
                    continue;
                }
                if let Some(bad) = plan.garbled_rtt(vp, nonce) {
                    results.push((vp, PingOutcome::Reply(bad)));
                    continue;
                }
            }
            results.push((vp, net.ping_min(world, vp, target, packets, nonce)));
        }
        if disconnected > 0 {
            self.credits.refund_pings(disconnected * packets as u64);
        }
        if let Some(plan) = &self.faults {
            // Truncation loses delivered results after the charge: the
            // measurements ran, the fetch dropped the tail.
            results.truncate(plan.delivered_len(results.len(), nonce));
        }

        let sched = vps
            .iter()
            .map(|&vp| ProbeRate::of(world, vp).time_for(packets as u64))
            .fold(0.0, f64::max);
        self.clock.advance(VirtualDuration::from_secs(
            sched + self.api_latency(net, nonce),
        ));

        Ok(MeasurementBatch {
            results,
            started_secs: started,
            completed_secs: self.clock.now_secs(),
        })
    }

    /// Runs one traceroute from each vantage point to `target`.
    pub fn traceroute_from(
        &mut self,
        world: &World,
        net: &Network,
        vps: &[HostId],
        target: Ipv4,
    ) -> Result<MeasurementBatch<Traceroute>, PlatformError> {
        if vps.is_empty() {
            return Err(PlatformError::NoVantagePoints);
        }
        self.credits.charge_traceroutes(vps.len() as u64)?;
        let nonce = self.next_nonce();
        let started = self.clock.now_secs();

        if let Some(err) = self.api_fault_for(net, nonce) {
            self.credits.refund_traceroutes(vps.len() as u64);
            return Err(err);
        }

        let window = self.churn_window();
        let mut results: Vec<(HostId, Traceroute)> = Vec::with_capacity(vps.len());
        let mut disconnected = 0u64;
        for &vp in vps {
            if let Some(plan) = &self.faults {
                if plan.vp_disconnected(vp, window) {
                    disconnected += 1;
                    continue;
                }
            }
            results.push((vp, net.traceroute(world, vp, target, nonce)));
        }
        if disconnected > 0 {
            self.credits.refund_traceroutes(disconnected);
        }
        if let Some(plan) = &self.faults {
            results.truncate(plan.delivered_len(results.len(), nonce));
        }

        // A traceroute sends ~16 packets (TTL sweep with retries).
        let sched = vps
            .iter()
            .map(|&vp| ProbeRate::of(world, vp).time_for(16))
            .fold(0.0, f64::max);
        self.clock.advance(VirtualDuration::from_secs(
            sched + self.api_latency(net, nonce),
        ));

        Ok(MeasurementBatch {
            results,
            started_secs: started,
            completed_secs: self.clock.now_secs(),
        })
    }

    /// The meshed anchor-to-anchor RTT measurements that RIPE Atlas
    /// publishes and §4.3's sanitizer consumes. Cell `(i, j)` is the
    /// min-RTT from `anchors[i]` to `anchors[j]` (NaN on the diagonal or
    /// timeout or lost reply), in the `f64` staging format the sanitizer
    /// reads directly, measured by `Network::campaign` on the worker pool.
    /// Charged like any other ping campaign.
    pub fn anchor_mesh(
        &mut self,
        world: &World,
        net: &Network,
        anchors: &[HostId],
    ) -> Result<geo_model::matrix::DelayMatrix, PlatformError> {
        use geo_model::matrix::DelayMatrix;
        let n = anchors.len();
        let packets = self.config.packets_per_ping;
        self.credits
            .charge_pings((n * n.saturating_sub(1) * packets) as u64)?;
        let nonce = self.next_nonce();
        if let Some(err) = self.api_fault_for(net, nonce) {
            // Modelled as a failed dump download: nothing was delivered.
            self.credits
                .refund_pings((n * n.saturating_sub(1) * packets) as u64);
            return Err(err);
        }
        let pair = |i: usize, j: usize| nonce ^ ((i as u64) << 32 | j as u64);
        let faults = self.faults.as_ref();
        let mesh: DelayMatrix = net.campaign(
            world,
            anchors,
            anchors,
            n,
            packets,
            pair,
            Some, // the diagonal stays NaN
            |row, i, j, out| {
                if !faults.is_some_and(|plan| plan.reply_lost(anchors[i], pair(i, j))) {
                    row[j] = DelayMatrix::cell(out.rtt());
                }
            },
        );
        // The mesh runs continuously in the background on real Atlas; the
        // charge models downloading a day's dump, not waiting for it.
        self.clock
            .advance(VirtualDuration::from_secs(self.api_latency(net, nonce)));
        Ok(mesh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network, Platform) {
        let w = World::generate(WorldConfig::small(Seed(121))).unwrap();
        let net = Network::new(Seed(121));
        let platform = Platform::new(CreditAccount::upgraded());
        (w, net, platform)
    }

    #[test]
    fn ping_batch_returns_all_vps_and_advances_clock() {
        let (w, net, mut p) = setup();
        let vps: Vec<_> = w.probes.iter().copied().take(20).collect();
        let target = w.host(w.anchors[0]).ip;
        let batch = p.ping_from(&w, &net, &vps, target).unwrap();
        assert_eq!(batch.results.len(), 20);
        assert!(batch.duration().as_secs() > 60.0, "API latency missing");
        assert!(p.clock().now_secs() > 0.0);
        let replies = batch
            .results
            .iter()
            .filter(|(_, o)| matches!(o, PingOutcome::Reply(_)))
            .count();
        // A VP goes unanswered only if all its packets are lost; bound the
        // expected count from the configured packets-per-ping and loss rate
        // (generous 10x margin plus one) so config changes keep the test
        // honest instead of silently invalidating a hard-coded 18/20.
        let n = vps.len();
        let p_unanswered = net
            .params()
            .loss_rate
            .powi(PlatformConfig::default().packets_per_ping as i32);
        let allowed = (10.0 * n as f64 * p_unanswered).ceil() as usize + 1;
        assert!(
            replies >= n - allowed,
            "too many losses: {replies}/{n} (allowed {allowed})"
        );
    }

    #[test]
    fn charges_credits() {
        let (w, net, _) = setup();
        let mut p = Platform::new(CreditAccount::new(100));
        let vps: Vec<_> = w.probes.iter().copied().take(20).collect();
        let target = w.host(w.anchors[0]).ip;
        // 20 VPs * 3 packets = 60 credits.
        p.ping_from(&w, &net, &vps, target).unwrap();
        assert_eq!(p.credits().balance(), 40);
        // Second batch cannot be paid.
        let err = p.ping_from(&w, &net, &vps, target).unwrap_err();
        assert!(matches!(err, PlatformError::Credits(_)));
    }

    #[test]
    fn rejects_empty_vp_list() {
        let (w, net, mut p) = setup();
        let target = w.host(w.anchors[0]).ip;
        assert_eq!(
            p.ping_from(&w, &net, &[], target).unwrap_err(),
            PlatformError::NoVantagePoints
        );
    }

    #[test]
    fn traceroute_batch_works() {
        let (w, net, mut p) = setup();
        let vps: Vec<_> = w.anchors.iter().copied().take(5).collect();
        let target = w.host(w.anchors[9]).ip;
        let batch = p.traceroute_from(&w, &net, &vps, target).unwrap();
        assert_eq!(batch.results.len(), 5);
        for (_, tr) in &batch.results {
            assert!(!tr.hops.is_empty());
        }
    }

    #[test]
    fn mesh_has_expected_shape() {
        let (w, net, mut p) = setup();
        let anchors: Vec<_> = w.anchors.iter().copied().take(8).collect();
        let mesh = p.anchor_mesh(&w, &net, &anchors).unwrap();
        assert_eq!(mesh.rows(), 8);
        assert_eq!(mesh.cols(), 8);
        let mut measured = 0;
        for i in 0..8 {
            assert!(mesh.get(i, i).is_none(), "diagonal must be empty");
            measured += (0..8).filter(|&j| mesh.get(i, j).is_some()).count();
        }
        assert!(measured > 40, "mesh mostly failed: {measured}");
    }

    /// The mesh cell by cell against one `ping_min` per ordered pair,
    /// keyed `nonce ^ (i << 32 | j)`, under a plan that loses replies: a
    /// lost reply leaves its cell NaN like the diagonal.
    #[test]
    fn mesh_matches_per_pair_pings_and_loses_replies() {
        let (w, net, _) = setup();
        let config = crate::faults::FaultConfig {
            reply_loss_rate: 0.3,
            ..crate::faults::FaultConfig::none()
        };
        let plan = FaultPlan::with_config(Seed(17), config);
        let mut p =
            Platform::with_faults(CreditAccount::upgraded(), PlatformConfig::default(), plan);
        let anchors: Vec<_> = w.anchors.iter().copied().take(12).collect();
        let mesh = p.anchor_mesh(&w, &net, &anchors).unwrap();
        let plan = p.faults.as_ref().unwrap();
        let mut lost = 0;
        for (i, &src) in anchors.iter().enumerate() {
            for (j, &dst) in anchors.iter().enumerate() {
                let pair = p.nonce ^ ((i as u64) << 32 | j as u64);
                let want = if i == j {
                    None
                } else if plan.reply_lost(src, pair) {
                    lost += 1;
                    None
                } else {
                    let ip = w.host(dst).ip;
                    net.ping_min(&w, src, ip, p.config.packets_per_ping, pair)
                        .rtt()
                };
                let bits = |v: Option<geo_model::units::Ms>| v.map(|m| m.value().to_bits());
                assert_eq!(bits(mesh.get(i, j)), bits(want), "cell ({i}, {j})");
            }
        }
        assert!(lost > 0, "the plan lost no reply");
    }

    #[test]
    fn zero_rate_plan_is_identical_to_no_plan() {
        let (w, net, _) = setup();
        let vps: Vec<_> = w.probes.iter().copied().take(15).collect();
        let t = w.host(w.anchors[0]).ip;
        let run = |mut p: Platform| {
            let b = p.ping_from(&w, &net, &vps, t).unwrap();
            let rtts: Vec<_> = b.results.iter().map(|(v, o)| (*v, o.rtt())).collect();
            (rtts, p.clock().now_secs(), p.credits().balance())
        };
        let plain = run(Platform::new(CreditAccount::new(10_000)));
        let planned = run(Platform::with_faults(
            CreditAccount::new(10_000),
            PlatformConfig::default(),
            FaultPlan::with_config(Seed(9), crate::faults::FaultConfig::none()),
        ));
        assert_eq!(plain, planned);
    }

    #[test]
    fn faulty_platform_injects_typed_retryable_errors() {
        use crate::faults::FaultProfile;
        let (w, net, _) = setup();
        let plan = FaultPlan::new(Seed(121), FaultProfile::Hostile);
        let mut p =
            Platform::with_faults(CreditAccount::upgraded(), PlatformConfig::default(), plan);
        let vps: Vec<_> = w.probes.iter().copied().take(10).collect();
        let t = w.host(w.anchors[0]).ip;
        let mut failures = 0;
        let mut short_batches = 0;
        for _ in 0..60 {
            match p.ping_from(&w, &net, &vps, t) {
                Ok(b) => {
                    if b.results.len() < vps.len() {
                        short_batches += 1;
                    }
                }
                Err(e) => {
                    assert!(e.is_retryable(), "unexpected fatal error: {e}");
                    failures += 1;
                }
            }
        }
        assert!(failures > 0, "hostile plan never failed an API call");
        assert!(short_batches > 0, "hostile plan never shed a result");
    }

    #[test]
    fn refunds_keep_the_accounting_identity_under_faults() {
        use crate::faults::FaultProfile;
        let (w, net, _) = setup();
        let initial = 1_000_000;
        let plan = FaultPlan::new(Seed(5), FaultProfile::Hostile);
        let mut p =
            Platform::with_faults(CreditAccount::new(initial), PlatformConfig::default(), plan);
        let vps: Vec<_> = w.probes.iter().copied().take(12).collect();
        let t = w.host(w.anchors[0]).ip;
        for _ in 0..40 {
            let _ = p.ping_from(&w, &net, &vps, t);
            let _ = p.traceroute_from(&w, &net, &vps, t);
        }
        assert!(p.credits().refunded() > 0, "hostile run refunded nothing");
        assert_eq!(p.credits().balance() + p.credits().spent(), initial);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use crate::faults::FaultProfile;
        let (w, net, _) = setup();
        let run = || {
            let plan = FaultPlan::new(Seed(121), FaultProfile::Flaky);
            let mut p =
                Platform::with_faults(CreditAccount::upgraded(), PlatformConfig::default(), plan);
            let vps: Vec<_> = w.probes.iter().copied().take(10).collect();
            let t = w.host(w.anchors[0]).ip;
            let mut trace = String::new();
            for _ in 0..30 {
                match p.ping_from(&w, &net, &vps, t) {
                    Ok(b) => trace.push_str(&format!("ok:{};", b.results.len())),
                    Err(e) => trace.push_str(&format!("err:{e};")),
                }
            }
            (trace, p.clock().now_secs(), p.credits().spent())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batches_are_deterministic_in_sequence() {
        let (w, net, _) = setup();
        let run = || {
            let mut p = Platform::new(CreditAccount::upgraded());
            let vps: Vec<_> = w.probes.iter().copied().take(10).collect();
            let t = w.host(w.anchors[0]).ip;
            let b1 = p.ping_from(&w, &net, &vps, t).unwrap();
            let b2 = p.ping_from(&w, &net, &vps, t).unwrap();
            (
                b1.results
                    .iter()
                    .filter_map(|(_, o)| o.rtt().map(|m| m.value()))
                    .sum::<f64>(),
                b2.results
                    .iter()
                    .filter_map(|(_, o)| o.rtt().map(|m| m.value()))
                    .sum::<f64>(),
                p.clock().now_secs(),
            )
        };
        assert_eq!(run(), run());
    }
}
