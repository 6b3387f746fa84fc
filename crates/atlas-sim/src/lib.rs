//! # atlas-sim
//!
//! The RIPE-Atlas constraints behind both scalability results of the
//! replication (§5.1.3 and §5.2.5), and the anchor mesh behind §4.3's
//! sanitizer. Each constraint lives where it is consumed:
//!
//! - **credits** (§4.1.1): every packet costs credits; the replication
//!   burned "hundreds of millions" and needed a specially upgraded
//!   account. [`credits`] holds the prices and the account; the resilient
//!   executor (`ipgeo::resilient`, its `CreditLog`) books each batch's
//!   credits and retries against them;
//! - **probing rate** (§5.1.3): an anchor sustains 200–400 pps, a probe
//!   only 4–12 pps — which is why the million-scale paper's 500 pps
//!   vantage points cannot be replicated on Atlas ([`traffic`]);
//! - **API latency** (§5.2.5): creating a measurement and fetching its
//!   results takes minutes of wall-clock time, which is why the
//!   street-level technique's "1–2 seconds per target" becomes 20 minutes
//!   (`ipgeo::street::StreetConfig::api_round_secs`, Fig 6c);
//! - **faults**: a seeded [`FaultPlan`] of API failures, churn, lost,
//!   garbled and truncated results, which the resilient executor draws;
//! - **the anchor mesh**: [`Platform::anchor_mesh`] downloads the
//!   anchor-to-anchor RTTs, charging credits and one API round trip.
//!
//! All time is virtual ([`clock::VirtualClock`]); nothing in the simulation
//! reads wall-clock time.

pub mod clock;
pub mod credits;
pub mod faults;
pub mod platform;
pub mod traffic;

pub use clock::VirtualClock;
pub use credits::CreditAccount;
pub use faults::{ApiFault, FaultConfig, FaultPlan, FaultProfile};
pub use platform::Platform;
pub use traffic::ProbeRate;
