//! # geo-serve
//!
//! The consumption layer the paper's deliverable implies: once
//! [`ipgeo::publish`] has assembled the accurate/complete/explainable
//! dataset, this crate makes it *publishable and servable* —
//!
//! - [`format`](mod@format) — the `.igds` versioned binary snapshot:
//!   checksummed, column-oriented, byte-deterministic for a given world
//!   seed;
//! - [`store`] — [`DatasetStore`], an indexed read-only view answering
//!   exact-`/24` and nearest-covering-prefix lookups by binary search,
//!   with batch lookups fanned out over the workspace's deterministic
//!   thread pool;
//! - [`server`] — [`QueryServer`], a readiness-driven TCP server: a
//!   fixed worker pool (sized from `IPGEO_THREADS`) of event loops over
//!   nonblocking sockets, each connection speaking either the one-line
//!   text protocol (`LOCATE`/`NEAREST`/`STATS`/`RELOAD`/`QUIT`) or the
//!   binary pipelined protocol, with atomic hit/miss/eviction counters,
//!   connection caps with `BUSY` shedding, live generation-tagged
//!   snapshot reload, and wake-token or graceful-drain shutdown;
//! - [`lifecycle`] — the per-connection deadline state machine
//!   ([`ServeLimits`], [`ServeClock`], typed [`Eviction`]s) that turns
//!   idle, slow-loris, and slow-reader connections into bounded,
//!   counted evictions instead of leaked resources;
//! - [`chaos`] — seeded socket-level fault injection (split writes,
//!   stalls, mid-frame aborts, checksum corruption, slow-loris) whose
//!   schedule is a pure function of `(seed, domain, connection)`,
//!   plus the harness proving clean clients read bit-identical bytes
//!   while chaos clients attack;
//! - [`proto`] — the length-prefixed, versioned, checksummed binary
//!   request/response protocol (batched/pipelined LOCATE/NEAREST/STATS
//!   frames) and its blocking [`BinaryClient`];
//! - [`poll`] — the safe-`std` readiness poller the server's workers
//!   run on: slot registry, idle parking, wake token, adaptive idle
//!   backoff;
//! - [`cache`] — [`HotCache`], the sharded hot-prefix cache layered
//!   over [`DatasetStore`] reads;
//! - [`diff`] — [`DiffReport`], the longitudinal added/removed/moved/
//!   retagged comparison between two snapshots;
//! - [`manifest`] — [`Manifest`], the coverage and (given ground truth)
//!   accuracy summary of one snapshot.
//!
//! Everything is `std`-only: the workspace builds offline, so the wire
//! protocol and the on-disk format are hand-rolled rather than pulled
//! from serde/tokio.

pub mod cache;
pub mod chaos;
pub mod diff;
pub mod format;
pub mod lifecycle;
pub mod manifest;
pub mod poll;
pub mod proto;
pub mod server;
pub mod store;

pub use cache::HotCache;
pub use chaos::{ChaosConfig, ChaosPlan, ChaosReport};
pub use diff::DiffReport;
pub use format::{FormatError, Header};
pub use lifecycle::{ClockHandle, Eviction, ServeClock, ServeLimits};
pub use manifest::Manifest;
pub use proto::{BinaryClient, LocateRecord, Opcode, ProtoError, Request, Response, StatsRecord};
pub use server::{query_one, QueryServer, ServeConfig, StatsSnapshot};
pub use store::{DatasetStore, StoreHandle};
