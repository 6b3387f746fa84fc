//! Hints-based multi-source geolocation: the fused method tier.
//!
//! Pure-latency techniques (CBG, street-level) are the paper's floor; the
//! strongest published systems climb above it by mining *side-channel
//! hints* and verifying them with measurements. HLOC extracts airport and
//! city codes from rDNS names and keeps a hint only when RTT constraints
//! allow it; XLBoost-Geo boosts landmark evidence into a learned locator.
//! This crate replicates that tier against the synthetic world:
//!
//! - [`extract`] — tokenizer + code-table matcher turning an rDNS name
//!   (synthesized by `world_sim::rdns`) into city candidates, ambiguity
//!   preserved rather than guessed away.
//! - [`verify`] — the latency gate: a candidate survives only when its
//!   city center lies inside the CBG constraint region, and optional
//!   dedicated verification probes keep it only if every delivered RTT's
//!   speed-of-Internet disc still covers it.
//! - [`fuse`] — the estimator: CBG, a verified hint, an optional
//!   street-level estimate, and the `ipgeo::dbsim` commercial prior are
//!   combined into one location with a noisy-or confidence score and a
//!   source mask for the evidence trail.
//! - [`pipeline`] — `build_dataset_fused`, the publish-pipeline plumbing:
//!   the same evidence ladder as `ipgeo::publish::build_dataset`
//!   with the latency rung upgraded to fusion. Hint-verification probes
//!   draw from the same credit budget and fault plans as the baseline
//!   campaign but are accounted separately ([`pipeline::FusedReport`]).
//!
//! Everything is a pure function of `(world seed, knobs, inputs)`:
//! building the fused dataset is bit-identical at any `IPGEO_THREADS`,
//! and at hint coverage 0 the pipeline *is* the baseline pipeline,
//! byte for byte.

pub mod extract;
pub mod fuse;
pub mod pipeline;
pub mod verify;

pub use extract::{CodeTable, HintCandidate};
pub use fuse::{fuse as fuse_sources, Fused, FusionInput};
pub use pipeline::{build_dataset_fused, FusedConfig, FusedReport};
pub use verify::{probe_consistent, verify_against_region, VerifiedHint, HINT_AGREE_KM};
