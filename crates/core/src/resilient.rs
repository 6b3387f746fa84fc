//! The resilient campaign executor.
//!
//! Real Atlas campaigns run through rate limits, 5xxs, probe churn and
//! partial result fetches (see `atlas_sim::faults`). This module is the
//! defense layer every driver routes its measurements through:
//!
//! - **bounded retries** — a batch that fails transiently is retried at
//!   most [`RetryPolicy::max_attempts`] times (geo-lint R3 forbids
//!   unbounded retry loops), with deterministic exponential backoff
//!   accounted in *virtual* seconds;
//! - **partial-result tolerance** — a batch is accepted once at least
//!   `required(n)` of the `n` requested vantage points delivered, and the
//!   lost constraints are recorded rather than silently ignored;
//! - **validation** — malformed RTTs (negative, NaN, absurd) are counted
//!   and discarded instead of poisoning CBG;
//! - **structured accounting** — every decision lands in a [`TargetLog`],
//!   and logs merge (in deterministic index order) into a
//!   [`CampaignReport`] of attempts, retries, faults seen, and credits
//!   burned against the fault-free baseline.
//!
//! With no fault plan the executor takes a direct path that issues
//! *exactly* the same `net-sim` calls as the pre-existing drivers, so
//! fault-free outputs stay byte-identical. Every fault decision is a pure
//! function of `(plan seed, batch key, attempt, vp)`, so faulty runs are
//! bit-identical at any `IPGEO_THREADS` setting too.

use atlas_sim::credits::{CREDITS_PER_PING_PACKET, CREDITS_PER_TRACEROUTE};
use atlas_sim::faults::{ApiFault, FaultPlan};
use geo_model::ip::Ipv4;
use geo_model::rng::splitmix64;
use net_sim::{Network, PingOutcome, Traceroute};
use std::fmt;
use world_sim::ids::HostId;
use world_sim::World;

/// How hard the executor fights for a batch before degrading.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per batch, including the first (bounded by construction).
    pub max_attempts: u32,
    /// Backoff before the first retry, virtual seconds.
    pub backoff_base_secs: f64,
    /// Multiplier per further retry (exponential backoff).
    pub backoff_factor: f64,
    /// Fraction of requested vantage points that must answer for a batch
    /// to count as delivered.
    pub min_answered_fraction: f64,
    /// Absolute floor on answered vantage points (dominates the fraction
    /// for small batches).
    pub min_answered: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_secs: 30.0,
            backoff_factor: 2.0,
            min_answered_fraction: 0.5,
            min_answered: 1,
        }
    }
}

impl RetryPolicy {
    /// Results required before an `n`-VP batch is accepted: the configured
    /// fraction of `n`, at least `min_answered`, never more than `n`.
    pub fn required(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let frac = (n as f64 * self.min_answered_fraction).ceil() as usize;
        frac.max(self.min_answered).min(n)
    }

    /// Backoff before retry number `retry` (0-based), virtual seconds.
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        self.backoff_base_secs * self.backoff_factor.powi(retry as i32)
    }
}

/// The executor's configuration: an optional fault plan plus the policy.
#[derive(Debug, Clone)]
pub struct Resilience<'a> {
    plan: Option<&'a FaultPlan>,
    policy: RetryPolicy,
}

impl Resilience<'static> {
    /// No fault plan: batches take the direct path and are byte-identical
    /// to the pre-executor drivers.
    pub fn none() -> Resilience<'static> {
        Resilience {
            plan: None,
            policy: RetryPolicy::default(),
        }
    }
}

impl<'a> Resilience<'a> {
    /// An executor subjected to `plan`.
    pub fn with_plan(plan: &'a FaultPlan) -> Resilience<'a> {
        Resilience {
            plan: Some(plan),
            policy: RetryPolicy::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The plan, if it can actually fire.
    fn active(&self) -> Option<&'a FaultPlan> {
        self.plan.filter(|p| !p.is_zero())
    }
}

/// Faults observed (and survived) during a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// API calls rejected with a rate limit.
    pub rate_limited: u64,
    /// API calls failed with a server error.
    pub server_errors: u64,
    /// API result fetches that timed out.
    pub api_timeouts: u64,
    /// Vantage points skipped because their probe was disconnected.
    pub disconnects: u64,
    /// Replies lost beyond the last-mile loss model.
    pub replies_lost: u64,
    /// Replies discarded for carrying a malformed RTT.
    pub garbled: u64,
    /// Results dropped by batch truncation.
    pub truncated: u64,
}

impl FaultCounts {
    /// Every fault of any kind.
    pub fn total(&self) -> u64 {
        self.rate_limited
            + self.server_errors
            + self.api_timeouts
            + self.disconnects
            + self.replies_lost
            + self.garbled
            + self.truncated
    }

    fn merge(&mut self, other: &FaultCounts) {
        self.rate_limited += other.rate_limited;
        self.server_errors += other.server_errors;
        self.api_timeouts += other.api_timeouts;
        self.disconnects += other.disconnects;
        self.replies_lost += other.replies_lost;
        self.garbled += other.garbled;
        self.truncated += other.truncated;
    }
}

/// Credits burned, refunded, and the fault-free baseline for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CreditLog {
    /// Credits charged across all attempts.
    pub charged: u64,
    /// Credits refunded for undelivered measurements.
    pub refunded: u64,
    /// What one fault-free pass over the same batches would have cost.
    pub baseline: u64,
}

impl CreditLog {
    /// Credits actually consumed (charged minus refunded).
    pub fn net(&self) -> u64 {
        self.charged.saturating_sub(self.refunded)
    }

    fn merge(&mut self, other: &CreditLog) {
        self.charged += other.charged;
        self.refunded += other.refunded;
        self.baseline += other.baseline;
    }
}

/// Per-target executor accounting; merge into a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TargetLog {
    /// Batch attempts issued (first tries and retries).
    pub attempts: u64,
    /// Retries among the attempts.
    pub retries: u64,
    /// Vantage-point results requested across all batches.
    pub requested: u64,
    /// Results actually delivered and used.
    pub delivered: u64,
    /// Batches accepted with fewer results than requested.
    pub degraded_batches: u64,
    /// Batches that delivered nothing even after every retry.
    pub failed_batches: u64,
    /// Virtual seconds spent backing off before retries.
    pub backoff_secs: f64,
    /// Faults observed.
    pub faults: FaultCounts,
    /// Credit accounting.
    pub credits: CreditLog,
}

/// Aggregated accounting for a whole campaign. Built by absorbing
/// [`TargetLog`]s in deterministic (target index) order, so the report —
/// including its `Display` rendering — is bit-identical across thread
/// counts for the same seed and fault profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignReport {
    /// Targets processed.
    pub targets: u64,
    /// Batch attempts issued.
    pub attempts: u64,
    /// Retries among the attempts.
    pub retries: u64,
    /// Vantage-point results requested.
    pub requested: u64,
    /// Results delivered and used.
    pub delivered: u64,
    /// Batches accepted short of the full request.
    pub degraded_batches: u64,
    /// Batches that delivered nothing.
    pub failed_batches: u64,
    /// Virtual seconds spent in retry backoff.
    pub backoff_secs: f64,
    /// Faults observed.
    pub faults: FaultCounts,
    /// Credit accounting.
    pub credits: CreditLog,
}

impl CampaignReport {
    /// Folds one target's log into the report. Call in target index order.
    pub fn absorb(&mut self, log: &TargetLog) {
        self.targets += 1;
        self.attempts += log.attempts;
        self.retries += log.retries;
        self.requested += log.requested;
        self.delivered += log.delivered;
        self.degraded_batches += log.degraded_batches;
        self.failed_batches += log.failed_batches;
        self.backoff_secs += log.backoff_secs;
        self.faults.merge(&log.faults);
        self.credits.merge(&log.credits);
    }

    /// Merges another report (e.g. per-phase reports) into this one.
    pub fn merge(&mut self, other: &CampaignReport) {
        self.targets += other.targets;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.requested += other.requested;
        self.delivered += other.delivered;
        self.degraded_batches += other.degraded_batches;
        self.failed_batches += other.failed_batches;
        self.backoff_secs += other.backoff_secs;
        self.faults.merge(&other.faults);
        self.credits.merge(&other.credits);
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} targets, {} attempts ({} retries, backoff {:.0}s)",
            self.targets, self.attempts, self.retries, self.backoff_secs
        )?;
        writeln!(
            f,
            "results:  {}/{} delivered ({} degraded batches, {} failed)",
            self.delivered, self.requested, self.degraded_batches, self.failed_batches
        )?;
        writeln!(
            f,
            "faults:   rate-limited {}, server {}, timeout {}, disconnect {}, \
             lost {}, garbled {}, truncated {}",
            self.faults.rate_limited,
            self.faults.server_errors,
            self.faults.api_timeouts,
            self.faults.disconnects,
            self.faults.replies_lost,
            self.faults.garbled,
            self.faults.truncated
        )?;
        let overhead = if self.credits.baseline > 0 {
            (self.credits.net() as f64 / self.credits.baseline as f64 - 1.0) * 100.0
        } else {
            0.0
        };
        write!(
            f,
            "credits:  net {} (charged {}, refunded {}; baseline {}, {overhead:+.1}% overhead)",
            self.credits.net(),
            self.credits.charged,
            self.credits.refunded,
            self.credits.baseline
        )
    }
}

/// A plausible RTT: finite, positive, below 1000 seconds. Anything else is
/// API garbage and must not reach a constraint solver.
pub fn valid_rtt_ms(ms: f64) -> bool {
    ms.is_finite() && ms > 0.0 && ms < 1.0e6
}

/// Pings `target` from every VP with a per-VP nonce chosen by `vp_nonce`
/// (index and id of the VP), retrying transient faults under `res`, into a
/// caller-owned buffer (cleared first): per-target campaign loops reuse one
/// buffer across batches, so the fault-free path performs no allocations.
///
/// The fault-free path issues exactly
/// `net.ping_min(world, vp, target, packets, vp_nonce(i, vp))` per VP —
/// byte-identical to direct calls. Results are always an ordered
/// subsequence of `vps` — delivered in request order, with churned VPs
/// skipped and truncation dropping a suffix. A lost or garbled reply is
/// delivered as [`PingOutcome::Timeout`].
#[allow(clippy::too_many_arguments)]
pub fn ping_batch_keyed_into(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    target: Ipv4,
    packets: usize,
    batch_key: u64,
    vp_nonce: impl Fn(usize, HostId) -> u64,
    log: &mut TargetLog,
    out: &mut Vec<(HostId, PingOutcome)>,
) {
    run_batch(
        res,
        vps,
        batch_key,
        packets as u64 * CREDITS_PER_PING_PACKET,
        Some(PingOutcome::Timeout),
        vp_nonce,
        |vp, nonce| net.ping_min(world, vp, target, packets, nonce),
        log,
        out,
    );
}

/// [`ping_batch_keyed_into`] with a single nonce for every VP — the common
/// driver pattern `net.ping_min(world, vp, target, packets, nonce)`.
#[allow(clippy::too_many_arguments)]
pub fn ping_batch(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    target: Ipv4,
    packets: usize,
    nonce: u64,
    log: &mut TargetLog,
) -> Vec<(HostId, PingOutcome)> {
    let mut out = Vec::new();
    ping_batch_keyed_into(
        world,
        net,
        res,
        vps,
        target,
        packets,
        nonce,
        |_, _| nonce,
        log,
        &mut out,
    );
    out
}

/// Traceroutes `target` from every VP, retrying transient faults. Same
/// contract as [`ping_batch_keyed_into`]; traceroutes see API faults,
/// churn and truncation but no reply-level faults (hop validation lives
/// in `net-sim`).
#[allow(clippy::too_many_arguments)]
pub fn traceroute_batch_keyed(
    world: &World,
    net: &Network,
    res: &Resilience,
    vps: &[HostId],
    target: Ipv4,
    batch_key: u64,
    vp_nonce: impl Fn(usize, HostId) -> u64,
    log: &mut TargetLog,
) -> Vec<(HostId, Traceroute)> {
    let mut out = Vec::new();
    run_batch(
        res,
        vps,
        batch_key,
        CREDITS_PER_TRACEROUTE,
        None,
        vp_nonce,
        |vp, nonce| net.traceroute(world, vp, target, nonce),
        log,
        &mut out,
    );
    out
}

/// The attempt loop behind every batch: charge `per_vp_cost` per VP and
/// attempt, refund API faults and churned VPs, back off and retry until
/// `required(n)` results arrived or the attempts ran out, and deliver the
/// best attempt into `out` (cleared first). `reply_fault` is what a lost
/// or garbled reply delivers; `None` for kinds without reply-level faults.
#[allow(clippy::too_many_arguments)]
fn run_batch<R: Clone>(
    res: &Resilience,
    vps: &[HostId],
    batch_key: u64,
    per_vp_cost: u64,
    reply_fault: Option<R>,
    vp_nonce: impl Fn(usize, HostId) -> u64,
    measure: impl Fn(HostId, u64) -> R,
    log: &mut TargetLog,
    out: &mut Vec<(HostId, R)>,
) {
    out.clear();
    let n = vps.len();
    if n == 0 {
        return;
    }
    log.requested += n as u64;
    log.credits.baseline += n as u64 * per_vp_cost;

    let Some(plan) = res.active() else {
        log.attempts += 1;
        log.credits.charged += n as u64 * per_vp_cost;
        log.delivered += n as u64;
        out.extend(
            vps.iter()
                .enumerate()
                .map(|(i, &vp)| (vp, measure(vp, vp_nonce(i, vp)))),
        );
        return;
    };

    let required = res.policy.required(n);
    // One churn window per batch: backoff is short next to a churn window,
    // so a probe that is down stays down for the whole batch.
    let window = splitmix64(batch_key ^ 0xC0FF_EE11);
    let mut best: Vec<(HostId, R)> = Vec::new();

    for attempt in 0..res.policy.max_attempts {
        log.attempts += 1;
        if attempt > 0 {
            log.retries += 1;
            log.backoff_secs += res.policy.backoff_secs(attempt - 1);
        }
        log.credits.charged += n as u64 * per_vp_cost;
        let call = splitmix64(batch_key ^ splitmix64(0x0A11_C0DE ^ attempt as u64));

        if let Some(fault) = plan.api_fault(call) {
            match fault {
                ApiFault::RateLimited => log.faults.rate_limited += 1,
                ApiFault::ServerError => log.faults.server_errors += 1,
                ApiFault::Timeout => log.faults.api_timeouts += 1,
            }
            // The call never ran: full refund, then back off and retry.
            log.credits.refunded += n as u64 * per_vp_cost;
            continue;
        }

        let mut delivered: Vec<(HostId, R)> = Vec::with_capacity(n);
        for (i, &vp) in vps.iter().enumerate() {
            if plan.vp_disconnected(vp, window) {
                log.faults.disconnects += 1;
                log.credits.refunded += per_vp_cost;
                continue;
            }
            if let Some(fault) = &reply_fault {
                if plan.reply_lost(vp, call) {
                    log.faults.replies_lost += 1;
                    delivered.push((vp, fault.clone()));
                    continue;
                }
                if let Some(bad) = plan.garbled_rtt(vp, call) {
                    // Validate, count, and discard malformed RTTs instead
                    // of letting them poison the constraint solver.
                    debug_assert!(!valid_rtt_ms(bad.value()));
                    log.faults.garbled += 1;
                    delivered.push((vp, fault.clone()));
                    continue;
                }
            }
            let nonce = if attempt == 0 {
                vp_nonce(i, vp)
            } else {
                // Retries are genuinely new measurements.
                splitmix64(vp_nonce(i, vp) ^ splitmix64(0x5EED ^ attempt as u64))
            };
            delivered.push((vp, measure(vp, nonce)));
        }
        let kept = plan.delivered_len(delivered.len(), call);
        log.faults.truncated += (delivered.len() - kept) as u64;
        delivered.truncate(kept);

        if delivered.len() > best.len() {
            best = delivered;
        }
        if best.len() >= required {
            break;
        }
    }

    if best.is_empty() {
        log.failed_batches += 1;
    } else if best.len() < n {
        log.degraded_batches += 1;
    }
    log.delivered += best.len() as u64;
    *out = best;
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_sim::faults::{FaultConfig, FaultProfile};
    use geo_model::rng::Seed;
    use world_sim::WorldConfig;

    fn setup() -> (World, Network) {
        let w = World::generate(WorldConfig::small(Seed(231))).unwrap();
        let net = Network::new(Seed(231));
        (w, net)
    }

    fn vps(w: &World, n: usize) -> Vec<HostId> {
        w.probes.iter().copied().take(n).collect()
    }

    #[test]
    fn required_respects_fraction_and_floor() {
        let p = RetryPolicy::default();
        assert_eq!(p.required(0), 0);
        assert_eq!(p.required(1), 1);
        assert_eq!(p.required(2), 1);
        assert_eq!(p.required(10), 5);
        assert_eq!(p.required(11), 6);
        let strict = RetryPolicy {
            min_answered_fraction: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(strict.required(10), 10);
    }

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_secs(0), 30.0);
        assert_eq!(p.backoff_secs(1), 60.0);
        assert_eq!(p.backoff_secs(2), 120.0);
    }

    #[test]
    fn fault_free_path_matches_direct_calls() {
        let (w, net) = setup();
        let vps = vps(&w, 12);
        let target = w.host(w.anchors[0]).ip;
        let mut log = TargetLog::default();
        let batch = ping_batch(&w, &net, &Resilience::none(), &vps, target, 3, 42, &mut log);
        let direct: Vec<_> = vps
            .iter()
            .map(|&vp| (vp, net.ping_min(&w, vp, target, 3, 42)))
            .collect();
        assert_eq!(batch.len(), direct.len());
        for ((va, oa), (vb, ob)) in batch.iter().zip(&direct) {
            assert_eq!(va, vb);
            assert_eq!(oa.rtt(), ob.rtt());
        }
        assert_eq!(log.attempts, 1);
        assert_eq!(log.retries, 0);
        assert_eq!(log.requested, 12);
        assert_eq!(log.delivered, 12);
        assert_eq!(log.credits.charged, log.credits.baseline);
        assert_eq!(log.faults.total(), 0);
    }

    #[test]
    fn zero_rate_plan_takes_the_direct_path() {
        let (w, net) = setup();
        let vps = vps(&w, 8);
        let target = w.host(w.anchors[1]).ip;
        let plan = FaultPlan::with_config(Seed(3), FaultConfig::none());
        let mut log_a = TargetLog::default();
        let mut log_b = TargetLog::default();
        let a = ping_batch(
            &w,
            &net,
            &Resilience::none(),
            &vps,
            target,
            3,
            7,
            &mut log_a,
        );
        let b = ping_batch(
            &w,
            &net,
            &Resilience::with_plan(&plan),
            &vps,
            target,
            3,
            7,
            &mut log_b,
        );
        let key = |v: &[(HostId, PingOutcome)]| -> Vec<_> {
            v.iter().map(|(h, o)| (*h, o.rtt())).collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn retries_are_bounded_and_accounted() {
        let (w, net) = setup();
        let vps = vps(&w, 6);
        let target = w.host(w.anchors[2]).ip;
        // API faults only, at certainty: every attempt fails, the executor
        // must give up after max_attempts with everything refunded.
        let cfg = FaultConfig {
            api_fault_rate: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::with_config(Seed(8), cfg);
        let res = Resilience::with_plan(&plan);
        let mut log = TargetLog::default();
        let batch = ping_batch(&w, &net, &res, &vps, target, 3, 1, &mut log);
        assert!(batch.is_empty());
        assert_eq!(log.attempts, u64::from(res.policy().max_attempts));
        assert_eq!(log.retries, log.attempts - 1);
        assert_eq!(log.failed_batches, 1);
        assert_eq!(log.delivered, 0);
        assert_eq!(log.credits.charged, log.credits.refunded);
        assert!(log.backoff_secs > 0.0);
    }

    #[test]
    fn partial_results_are_tolerated_and_recorded() {
        let (w, net) = setup();
        let all = vps(&w, 30);
        let target = w.host(w.anchors[3]).ip;
        let cfg = FaultConfig {
            churn_rate: 0.3,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::with_config(Seed(4), cfg);
        let res = Resilience::with_plan(&plan);
        let mut log = TargetLog::default();
        let mut saw_degraded = false;
        for k in 0..20u64 {
            let batch = ping_batch(&w, &net, &res, &all, target, 3, k, &mut log);
            assert!(!batch.is_empty());
            if batch.len() < all.len() {
                saw_degraded = true;
            }
        }
        assert!(saw_degraded, "churn at 30% never shed a VP");
        assert!(log.degraded_batches > 0);
        assert!(log.faults.disconnects > 0);
        assert!(log.delivered < log.requested);
        // Refunds cover exactly the disconnected VPs' packets.
        assert_eq!(log.credits.refunded, log.faults.disconnects * 3);
    }

    #[test]
    fn faulty_batches_are_deterministic() {
        let (w, net) = setup();
        let all = vps(&w, 10);
        let target = w.host(w.anchors[4]).ip;
        let run = || {
            let plan = FaultPlan::new(Seed(99), FaultProfile::Hostile);
            let res = Resilience::with_plan(&plan);
            let mut log = TargetLog::default();
            let mut shape = Vec::new();
            for k in 0..15u64 {
                let batch = ping_batch(&w, &net, &res, &all, target, 3, k, &mut log);
                shape.push(batch.iter().map(|(h, o)| (*h, o.rtt())).collect::<Vec<_>>());
            }
            (shape, log)
        };
        let (shape_a, log_a) = run();
        let (shape_b, log_b) = run();
        assert_eq!(shape_a, shape_b);
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn traceroute_batches_survive_faults() {
        let (w, net) = setup();
        let all: Vec<HostId> = w.anchors.iter().copied().take(8).collect();
        let target = w.host(w.anchors[9]).ip;
        let plan = FaultPlan::new(Seed(7), FaultProfile::Hostile);
        let res = Resilience::with_plan(&plan);
        let mut log = TargetLog::default();
        let mut any = false;
        for k in 0..10u64 {
            let batch = traceroute_batch_keyed(&w, &net, &res, &all, target, k, |_, _| k, &mut log);
            any |= !batch.is_empty();
            for (_, tr) in &batch {
                assert!(!tr.hops.is_empty() || tr.dst_rtt.is_none());
            }
        }
        assert!(any, "every traceroute batch failed under hostile plan");
        assert!(log.faults.total() > 0);
    }

    #[test]
    fn report_absorbs_and_renders_stably() {
        let mut report = CampaignReport::default();
        let mut log = TargetLog {
            attempts: 3,
            retries: 2,
            requested: 10,
            delivered: 7,
            degraded_batches: 1,
            backoff_secs: 90.0,
            ..TargetLog::default()
        };
        log.faults.disconnects = 3;
        log.credits.charged = 90;
        log.credits.refunded = 9;
        log.credits.baseline = 30;
        report.absorb(&log);
        report.absorb(&log);
        assert_eq!(report.targets, 2);
        assert_eq!(report.attempts, 6);
        assert_eq!(report.delivered, 14);
        let text = report.to_string();
        assert!(text.contains("campaign: 2 targets"), "{text}");
        assert!(text.contains("14/20 delivered"), "{text}");
        assert!(text.contains("disconnect 6"), "{text}");
        assert!(text.contains("net 162"), "{text}");
        // Merging two reports equals absorbing all four logs.
        let mut doubled = report.clone();
        doubled.merge(&report);
        assert_eq!(doubled.targets, 4);
        assert_eq!(doubled.credits.charged, 360);
    }

    #[test]
    fn rtt_validation_rejects_garbage() {
        assert!(valid_rtt_ms(12.5));
        assert!(!valid_rtt_ms(-1.0));
        assert!(!valid_rtt_ms(f64::NAN));
        assert!(!valid_rtt_ms(f64::INFINITY));
        assert!(!valid_rtt_ms(86_400_000.0));
        assert!(!valid_rtt_ms(0.0));
    }
}
