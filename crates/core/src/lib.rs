//! # ipgeo
//!
//! The geolocation techniques replicated by *"Replication: Towards a
//! Publicly Available Internet Scale IP Geolocation Dataset"* (Darwich,
//! Rimlinger, Dreyfus, Gouel, Vermeulen — ACM IMC 2023), implemented over
//! the simulated measurement ecosystem of this workspace:
//!
//! - [`cbg`](mod@cbg) — the classic latency-based primitives:
//!   Constraint-Based Geolocation (Gueye et al.) and Shortest Ping;
//! - [`sanitize`] — the §4.3 speed-of-Internet sanitizer for vantage-point
//!   and target geolocation metadata;
//! - [`million`] — the million-scale paper's vantage-point selection
//!   (Hu et al., IMC 2012): probe three representatives in the target's
//!   `/24` from all VPs, keep the lowest-RTT VPs;
//! - [`two_step`] — the replication's own extension (§5.1.4): a greedy
//!   earth-covering first step that cuts the measurement overhead to
//!   ~13% of the original while keeping its accuracy;
//! - [`street`] — the street-level paper's three-tier system (Wang et
//!   al., NSDI 2011): CBG at 4/9 c, concentric-circle landmark discovery
//!   through a mapping service, traceroute-derived `D1 + D2` delays, and
//!   the final map-to-closest-landmark step;
//! - [`oracle`] — the closest-landmark oracle of Fig. 5a (the lower bound
//!   of the street-level technique's error);
//! - [`dbsim`] — the commercial geolocation database simulators of §6
//!   (MaxMind-free-like and IPinfo-like).
//!
//! Two extensions go beyond the paper's evaluation: [`multi_round`]
//! implements the §7.2.3 future-work idea (round-based selection beyond
//! two steps), and [`publish`] assembles the accurate/complete/explainable
//! dataset the paper motivates, with an evidence trail per prefix.
//!
//! Every pipeline reports not only an estimate but also its measurement
//! cost (pings, traceroutes, mapping queries, virtual time), because the
//! replication's headline results are as much about deployability as
//! about accuracy.
//!
//! Measurement batches route through [`resilient`], the campaign executor
//! that retries transient platform faults (`atlas_sim::faults`) with
//! bounded deterministic backoff, tolerates partial results, and records a
//! [`resilient::CampaignReport`]; without a fault plan it is byte-identical
//! to direct `net-sim` calls.

pub mod cbg;
pub mod dbsim;
pub mod million;
pub mod multi_round;
pub mod oracle;
pub mod publish;
pub mod resilient;
pub mod sanitize;
pub mod street;
pub mod two_step;

pub use cbg::{cbg, shortest_ping, vp_measurements, CbgResult, VpMeasurement};
pub use resilient::{CampaignReport, Resilience, RetryPolicy, TargetLog};
pub use sanitize::{sanitize_anchors, sanitize_probes, SanitizeReport};
