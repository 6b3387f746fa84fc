//! Deterministic fault injection for the measurement platform.
//!
//! The real RIPE Atlas breaks constantly: probes disconnect mid-campaign,
//! the API rate-limits and times out, result fetches come back partial or
//! garbled. The perfect-world simulation hides all of that, which means
//! nothing upstream is ever forced to handle it. A [`FaultPlan`] makes the
//! platform *break on schedule*: every fault decision is a pure function
//! of `(seed, fault domain, call key)` through [`geo_model::rng`], so a
//! faulty run is exactly as reproducible as a clean one — bit-identical
//! per seed at any `IPGEO_THREADS` setting, with no shared mutable state.
//! The resilient executor (`ipgeo::resilient`) is the plan's one consumer:
//! it draws every decision below per batch, attempt and vantage point.
//!
//! The taxonomy (see DESIGN.md §9):
//!
//! - **API faults** — a whole measurement call fails transiently
//!   (rate-limit, server error, result-fetch timeout). Retryable.
//! - **Probe churn** — a vantage point is disconnected for a *window* of
//!   the campaign and contributes no result. Keyed on `(vp, window)` so
//!   probes reconnect in later windows.
//! - **Reply loss** — a measurement that did run loses its reply on the
//!   way back, beyond `net-sim`'s last-mile loss model.
//! - **Garbling** — a reply carries a malformed RTT (negative, NaN,
//!   absurd); consumers must validate, not trust.
//! - **Truncation** — the result fetch drops the tail of a batch.

use geo_model::rng::{splitmix64, KeyRng, Seed};
use geo_model::units::Ms;
use rand::RngCore;
use std::fmt;
use world_sim::ids::HostId;

/// Named fault presets, selectable as `--fault-profile` on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// No injected faults: the pre-existing perfect-world behaviour.
    None,
    /// Realistic bad day: occasional API failures, mild churn and loss.
    Flaky,
    /// Stress level: every mechanism fires often enough that unprotected
    /// pipelines visibly fall over.
    Hostile,
}

impl FaultProfile {
    /// Parses a CLI value.
    pub fn parse(s: &str) -> Result<FaultProfile, String> {
        match s {
            "none" => Ok(FaultProfile::None),
            "flaky" => Ok(FaultProfile::Flaky),
            "hostile" => Ok(FaultProfile::Hostile),
            other => Err(format!(
                "unknown fault profile `{other}` (expected none|flaky|hostile)"
            )),
        }
    }

    /// The rates this preset stands for.
    pub fn config(self) -> FaultConfig {
        match self {
            FaultProfile::None => FaultConfig::none(),
            FaultProfile::Flaky => FaultConfig::flaky(),
            FaultProfile::Hostile => FaultConfig::hostile(),
        }
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultProfile::None => "none",
            FaultProfile::Flaky => "flaky",
            FaultProfile::Hostile => "hostile",
        })
    }
}

/// Per-mechanism fault rates. All probabilities are per decision (an API
/// call, a `(vp, window)` pair, a single reply) in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one API call fails transiently.
    pub api_fault_rate: f64,
    /// Probability that a vantage point is disconnected for one churn
    /// window.
    pub churn_rate: f64,
    /// Probability that a reply is lost beyond the last-mile loss model.
    pub reply_loss_rate: f64,
    /// Probability that one reply carries a malformed RTT.
    pub garble_rate: f64,
    /// Probability that a batch result fetch is truncated.
    pub truncation_rate: f64,
    /// Largest fraction of a batch a truncation can drop.
    pub max_truncation_fraction: f64,
}

impl FaultConfig {
    /// All rates zero — behaviour identical to running with no plan.
    pub fn none() -> FaultConfig {
        FaultConfig {
            api_fault_rate: 0.0,
            churn_rate: 0.0,
            reply_loss_rate: 0.0,
            garble_rate: 0.0,
            truncation_rate: 0.0,
            max_truncation_fraction: 0.0,
        }
    }

    /// The `flaky` preset: the bad-but-survivable day the paper's
    /// campaigns actually ran through.
    pub fn flaky() -> FaultConfig {
        FaultConfig {
            api_fault_rate: 0.10,
            churn_rate: 0.05,
            reply_loss_rate: 0.02,
            garble_rate: 0.01,
            truncation_rate: 0.05,
            max_truncation_fraction: 0.25,
        }
    }

    /// The `hostile` preset: stress rates for resilience testing.
    pub fn hostile() -> FaultConfig {
        FaultConfig {
            api_fault_rate: 0.35,
            churn_rate: 0.20,
            reply_loss_rate: 0.10,
            garble_rate: 0.05,
            truncation_rate: 0.20,
            max_truncation_fraction: 0.50,
        }
    }

    /// True when every rate is zero (no decision can ever fire).
    pub fn is_zero(&self) -> bool {
        self.api_fault_rate <= 0.0
            && self.churn_rate <= 0.0
            && self.reply_loss_rate <= 0.0
            && self.garble_rate <= 0.0
            && self.truncation_rate <= 0.0
    }
}

/// The three transient ways an API call fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiFault {
    /// 429: the platform sheds load; retry after a backoff.
    RateLimited,
    /// 5xx: the measurement was never created.
    ServerError,
    /// The result fetch never completed.
    Timeout,
}

/// A seeded schedule of faults. Every decision method is a pure function
/// of the plan's seed and the caller-provided key, so the same plan gives
/// the same answers in any call order and from any thread.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: Seed,
    config: FaultConfig,
}

impl FaultPlan {
    /// A plan for one of the named profiles.
    pub fn new(seed: Seed, profile: FaultProfile) -> FaultPlan {
        FaultPlan::with_config(seed, profile.config())
    }

    /// A plan with explicit rates.
    pub fn with_config(seed: Seed, config: FaultConfig) -> FaultPlan {
        FaultPlan {
            seed: seed.derive("faults"),
            config,
        }
    }

    /// The rates in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when no fault can ever fire (all rates zero).
    pub fn is_zero(&self) -> bool {
        self.config.is_zero()
    }

    /// One uniform draw in `[0, 1)` for `(domain, key)`.
    fn unit(&self, domain: &str, key: u64) -> f64 {
        let mut rng = KeyRng::new(self.seed.derive(domain).0 ^ splitmix64(key));
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does the API call identified by `call` fail, and how?
    pub fn api_fault(&self, call: u64) -> Option<ApiFault> {
        if self.config.api_fault_rate <= 0.0 || self.unit("api", call) >= self.config.api_fault_rate
        {
            return None;
        }
        // An independent draw picks the failure kind.
        Some(match (self.unit("api-kind", call) * 3.0) as u32 {
            0 => ApiFault::RateLimited,
            1 => ApiFault::ServerError,
            _ => ApiFault::Timeout,
        })
    }

    /// Is `vp` disconnected for churn window `window`? Windows are
    /// caller-defined epochs (the executor draws one per batch key); a
    /// probe down in one window reconnects in the next.
    pub fn vp_disconnected(&self, vp: HostId, window: u64) -> bool {
        self.config.churn_rate > 0.0
            && self.unit("churn", splitmix64(window) ^ vp.0 as u64) < self.config.churn_rate
    }

    /// Is the reply from `vp` for call `call` lost on the way back?
    pub fn reply_lost(&self, vp: HostId, call: u64) -> bool {
        self.config.reply_loss_rate > 0.0
            && self.unit("reply-loss", splitmix64(call) ^ vp.0 as u64) < self.config.reply_loss_rate
    }

    /// A malformed RTT to substitute for `vp`'s reply in call `call`, if
    /// this reply is garbled. The values are the classics of real
    /// measurement APIs: negative, NaN, and absurdly large.
    pub fn garbled_rtt(&self, vp: HostId, call: u64) -> Option<Ms> {
        if self.config.garble_rate <= 0.0 {
            return None;
        }
        let key = splitmix64(call) ^ vp.0 as u64;
        if self.unit("garble", key) >= self.config.garble_rate {
            return None;
        }
        Some(match (self.unit("garble-kind", key) * 3.0) as u32 {
            0 => Ms(-1.0),
            1 => Ms(f64::NAN),
            _ => Ms(86_400_000.0),
        })
    }

    /// How many leading results of an `n`-result batch survive the fetch.
    /// Truncation keeps at least one result; total loss is modelled by
    /// [`ApiFault::Timeout`] instead.
    pub fn delivered_len(&self, n: usize, call: u64) -> usize {
        if self.config.truncation_rate <= 0.0
            || n == 0
            || self.unit("truncate", call) >= self.config.truncation_rate
        {
            return n;
        }
        let frac = self.unit("truncate-len", call) * self.config.max_truncation_fraction;
        let dropped = (1 + (n as f64 * frac) as usize).min(n - 1);
        n - dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(profile: FaultProfile) -> FaultPlan {
        FaultPlan::new(Seed(77), profile)
    }

    #[test]
    fn zero_plan_never_fires() {
        let p = plan(FaultProfile::None);
        assert!(p.is_zero());
        for k in 0..2000 {
            assert!(p.api_fault(k).is_none());
            assert!(!p.vp_disconnected(HostId(k as u32), k));
            assert!(!p.reply_lost(HostId(k as u32), k));
            assert!(p.garbled_rtt(HostId(k as u32), k).is_none());
            assert_eq!(p.delivered_len(10, k), 10);
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_key() {
        let a = plan(FaultProfile::Hostile);
        let b = plan(FaultProfile::Hostile);
        // Query b in a scrambled order: answers must match a's.
        let keys: Vec<u64> = (0..500).rev().collect();
        for &k in &keys {
            assert_eq!(a.api_fault(k), b.api_fault(k));
            assert_eq!(
                a.vp_disconnected(HostId(3), k),
                b.vp_disconnected(HostId(3), k)
            );
            assert_eq!(a.delivered_len(20, k), b.delivered_len(20, k));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(Seed(1), FaultProfile::Hostile);
        let b = FaultPlan::new(Seed(2), FaultProfile::Hostile);
        let differs = (0..200).any(|k| a.api_fault(k) != b.api_fault(k));
        assert!(differs, "schedules identical across seeds");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = plan(FaultProfile::Hostile);
        let n = 20_000;
        let api = (0..n).filter(|&k| p.api_fault(k).is_some()).count();
        let frac = api as f64 / n as f64;
        assert!(
            (frac - 0.35).abs() < 0.02,
            "api fault rate {frac} far from 0.35"
        );
        let churn = (0..n)
            .filter(|&k| p.vp_disconnected(HostId((k % 97) as u32), k / 97))
            .count();
        let frac = churn as f64 / n as f64;
        assert!(
            (frac - 0.20).abs() < 0.02,
            "churn rate {frac} far from 0.20"
        );
    }

    #[test]
    fn all_api_fault_kinds_occur() {
        let p = plan(FaultProfile::Hostile);
        let mut seen = [false; 3];
        for k in 0..2000 {
            match p.api_fault(k) {
                Some(ApiFault::RateLimited) => seen[0] = true,
                Some(ApiFault::ServerError) => seen[1] = true,
                Some(ApiFault::Timeout) => seen[2] = true,
                None => {}
            }
        }
        assert_eq!(seen, [true; 3], "some fault kind never drawn");
    }

    #[test]
    fn probes_reconnect_in_later_windows() {
        let p = plan(FaultProfile::Hostile);
        let vp = HostId(11);
        let down: Vec<u64> = (0..200).filter(|&w| p.vp_disconnected(vp, w)).collect();
        assert!(!down.is_empty(), "probe never disconnects under hostile");
        assert!(
            down.len() < 200,
            "probe never reconnects: down in every window"
        );
    }

    #[test]
    fn truncation_keeps_at_least_one_result() {
        let p = plan(FaultProfile::Hostile);
        for k in 0..2000 {
            for n in [1usize, 2, 3, 20] {
                let kept = p.delivered_len(n, k);
                assert!((1..=n).contains(&kept), "kept {kept} of {n}");
            }
        }
        // And truncation does fire at hostile rates.
        assert!(
            (0..2000).any(|k| p.delivered_len(20, k) < 20),
            "truncation never fired"
        );
    }

    #[test]
    fn garbled_rtts_are_malformed() {
        let p = plan(FaultProfile::Hostile);
        let mut seen = 0;
        for k in 0..5000 {
            if let Some(ms) = p.garbled_rtt(HostId((k % 13) as u32), k) {
                seen += 1;
                let v = ms.value();
                assert!(
                    !v.is_finite() || !(0.0..=1.0e6).contains(&v),
                    "garbled RTT {v} looks valid"
                );
            }
        }
        assert!(seen > 0, "garbling never fired");
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [
            FaultProfile::None,
            FaultProfile::Flaky,
            FaultProfile::Hostile,
        ] {
            assert_eq!(FaultProfile::parse(&p.to_string()), Ok(p));
        }
        assert!(FaultProfile::parse("chaotic").is_err());
    }
}
