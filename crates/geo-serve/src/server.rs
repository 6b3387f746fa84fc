//! A readiness-driven TCP query server over a [`DatasetStore`].
//!
//! Architecture (DESIGN.md §11, hardened in §14): a fixed pool of
//! event-loop workers — sized from `IPGEO_THREADS` via
//! [`geo_model::runtime::threads`] — each sweeping its own set of
//! nonblocking connections registered in a
//! [`poll::Registry`](Registry). No thread is ever spawned per
//! connection and no serving-path read blocks; the workspace denies
//! `unsafe_code`, so the sweep is a safe-`std` readiness scan paced by
//! [`poll::Poller`](Poller)'s adaptive idle backoff instead of an OS
//! poller.
//!
//! Every connection speaks one of two protocols, chosen by its first
//! byte ([`proto::REQ_MAGIC`] opens a binary conversation, anything else
//! is the line protocol):
//!
//! ```text
//! LOCATE <ip>    -> OK <prefix,lat,lon,method,confidence,evidence>   exact /24 hit
//!                   MISS <ip>                             no covering entry
//! NEAREST <ip>   -> OK <row> distance=<n>                 nearest prefix, /24 steps
//! STATS          -> OK entries=.. hits=.. misses=.. connections=..
//!                      uptime_s=.. qps=.. generation=.. live=..
//!                      shed=.. evicted=.. proto_errors=..
//!                      reload_failed=..
//! RELOAD         -> OK reload=scheduled generation=<n>    schedules a snapshot re-read
//! QUIT           -> BYE                                   closes the connection
//! anything else  -> ERR <reason>
//! ```
//!
//! plus the batched/pipelined binary protocol of [`proto`]. Both paths
//! read answers through the live generation's `HotCache`; cached answers
//! are byte-identical to store answers by construction, so the cache is
//! invisible in the response stream.
//!
//! **Robustness layer** (the serve path must survive the open internet,
//! not just a loopback loadgen):
//!
//! - every connection runs the [`lifecycle`](crate::lifecycle)
//!   deadline state machine — idle / stalled-read (anti-slow-loris) /
//!   slow-client (anti slow-reader) evictions, driven by one [`ServeClock`] read per
//!   sweep and *no timer threads*;
//! - request buffers are bounded by the budget shared with the binary
//!   frame check (`LINE_BUDGET` = [`proto::MAX_BODY`]); a newline-free
//!   line past the budget is a typed `too-large` eviction, not memory
//!   growth;
//! - global + per-worker connection caps gate `accept`: a connection
//!   over either cap is answered `BUSY` in its own protocol
//!   ([`proto::STATUS_BUSY`] frame / `ERR busy` line) and closed —
//!   overload sheds predictably instead of collapsing;
//! - live snapshot reload: workers serve through a generation-tagged
//!   [`StoreHandle`] and refresh with one atomic load per sweep, so
//!   `RELOAD` (or [`QueryServer::reload`]) swaps snapshots without
//!   dropping a single in-flight connection. The `RELOAD` command is
//!   deliberately constrained: it only re-reads the operator-configured
//!   path, the snapshot load runs on a short-lived background thread
//!   (never stalling the event loop), at most one load runs at a time,
//!   and accepts are rate-limited by
//!   [`ServeLimits::reload_min_interval_ms`] — the listener binds
//!   loopback only, and even a local client cannot thrash the disk or
//!   churn the warm caches;
//! - graceful drain ([`QueryServer::shutdown_drain`]): stop accepting,
//!   finish in-flight work up to [`ServeLimits::drain_grace_ms`], then
//!   evict stragglers with a typed farewell;
//! - connections idle for `PARK_AFTER` consecutive sweeps *and*
//!   `PARK_IDLE_MS` of clock time are parked off the sweep
//!   ([`poll::Registry::park`](Registry::park)) and lazily re-armed, so
//!   thousands of idle connections cost ~no CPU while pipelined clients
//!   stay hot.
//!
//! **Determinism lives in responses, not scheduling**: frames and lines
//! on one connection are processed in arrival order and answered in
//! order, so each connection's response byte stream is a pure function
//! of `(generation snapshot, its own request stream)` — regardless of
//! worker count, connection interleaving, or pipelining depth. Which
//! *worker* serves a connection races; what the connection *reads back*
//! never does. The `chaos` module's equivalence suite leans on exactly
//! this: clean clients read bit-identical bytes while chaos clients
//! attack, and every eviction/shed counter is a pure function of the
//! chaos seed.
//!
//! Hit/miss/connection/eviction counters are relaxed atomics (monotonic,
//! no cross-counter invariant). Shutdown is the poller's wake token: one
//! shared flag flipped by [`poll::Waker::wake`](Waker::wake), observed
//! by every worker at the top of its next sweep — no dummy wake-up
//! connection.

use crate::cache::{CacheKind, CacheValue};
use crate::format::method_tag;
use crate::lifecycle::{ConnPhase, Eviction, Lifecycle, ServeClock, ServeLimits, Tick};
use crate::poll::{Poller, Registry, Waker};
use crate::proto::{
    self, encode_error, try_decode_request, LocateRecord, Opcode, Request, ResponseWriter,
    StatsRecord,
};
use crate::store::{DatasetStore, Generation, StoreHandle};
use ipgeo::publish::DatasetEntry;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-sweep read chunk. One syscall per ready connection per sweep in
/// the common case; a connection with more than this buffered keeps the
/// sweep's attention until it drains.
const READ_CHUNK: usize = 64 * 1024;

/// Longest accepted text-protocol line — deliberately the *same* budget
/// as the binary frame body bound, so both protocols reject oversized
/// input at exactly one constant. A newline-free client past this is
/// answered `ERR too-large` and evicted.
const LINE_BUDGET: usize = proto::MAX_BODY;

/// Input buffered for one connection before we stop reading it until
/// the parser catches up (largest binary frame plus headroom).
const MAX_INBUF: usize = proto::MAX_BODY + 64 * 1024;

/// Output backlog at which a connection stops having its input parsed:
/// a client that pipelines faster than it reads must absorb its own
/// backpressure rather than ballooning server memory.
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// New connections accepted per worker per sweep; bounds accept
/// starvation of existing connections under a connect flood.
const ACCEPT_BURST: usize = 64;

/// Consecutive do-nothing sweeps before a connection is parked off the
/// sweep (it stops costing a read syscall per sweep). Sweep counts alone
/// are no idleness signal — 64 sweeps complete in microseconds on a hot
/// poller — so parking additionally requires [`PARK_IDLE_MS`] of clock
/// time without socket bytes.
const PARK_AFTER: u32 = 64;

/// Minimum clock-time silence (no bytes either direction) before a
/// connection may be parked. Keeps pipelined closed-loop clients — idle
/// for microseconds between bursts — on the hot sweep, while a truly
/// quiet connection parks after ~50ms and costs ~no CPU.
const PARK_IDLE_MS: u64 = 50;

/// Sweeps a parked connection waits before its lazy re-arm. Bounds the
/// extra latency a parked connection's next request can see to a few
/// dozen microsecond-scale sweeps.
const PARK_RECHECK: u64 = 64;

/// Live counters of a running server.
#[derive(Debug)]
pub struct ServeStats {
    hits: AtomicU64,
    misses: AtomicU64,
    connections: AtomicU64,
    live: AtomicU64,
    shed: AtomicU64,
    evicted_idle: AtomicU64,
    evicted_stalled: AtomicU64,
    evicted_slow: AtomicU64,
    evicted_too_large: AtomicU64,
    evicted_drain: AtomicU64,
    proto_errors: AtomicU64,
    reload_failed: AtomicU64,
    started: Instant,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Queries answered from the store.
    pub hits: u64,
    /// Queries with no covering entry.
    pub misses: u64,
    /// Connections accepted so far (shed connections included).
    pub connections: u64,
    /// Connections currently registered (parked and shed included).
    pub live: u64,
    /// Connections answered `BUSY` because a cap was exceeded.
    pub shed: u64,
    /// Idle-deadline evictions.
    pub evicted_idle: u64,
    /// Stalled-read (slow-loris) evictions.
    pub evicted_stalled: u64,
    /// Slow-client (write-deadline) evictions.
    pub evicted_slow: u64,
    /// Oversized-input evictions.
    pub evicted_too_large: u64,
    /// Drain-deadline evictions at shutdown.
    pub evicted_drain: u64,
    /// Malformed binary frames answered with a typed error.
    pub proto_errors: u64,
    /// Background `RELOAD` snapshot loads that failed (the serving
    /// generation did not advance).
    pub reload_failed: u64,
    /// Seconds since the server started.
    pub uptime_s: f64,
}

impl StatsSnapshot {
    /// Total queries answered.
    pub fn queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Mean queries per second over the server's uptime.
    pub fn qps(&self) -> f64 {
        if self.uptime_s > 0.0 {
            self.queries() as f64 / self.uptime_s
        } else {
            0.0
        }
    }

    /// All forced closes, regardless of reason.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_idle
            + self.evicted_stalled
            + self.evicted_slow
            + self.evicted_too_large
            + self.evicted_drain
    }
}

impl ServeStats {
    // Server uptime is a wall-clock serving statistic, not simulation
    // state; exempt from the workspace timing ban (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    fn new() -> ServeStats {
        ServeStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            live: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            evicted_idle: AtomicU64::new(0),
            evicted_stalled: AtomicU64::new(0),
            evicted_slow: AtomicU64::new(0),
            evicted_too_large: AtomicU64::new(0),
            evicted_drain: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            reload_failed: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            evicted_idle: self.evicted_idle.load(Ordering::Relaxed),
            evicted_stalled: self.evicted_stalled.load(Ordering::Relaxed),
            evicted_slow: self.evicted_slow.load(Ordering::Relaxed),
            evicted_too_large: self.evicted_too_large.load(Ordering::Relaxed),
            evicted_drain: self.evicted_drain.load(Ordering::Relaxed),
            proto_errors: self.proto_errors.load(Ordering::Relaxed),
            reload_failed: self.reload_failed.load(Ordering::Relaxed),
            uptime_s: self.started.elapsed().as_secs_f64(),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_eviction(&self, ev: Eviction) {
        let counter = match ev {
            Eviction::Idle => &self.evicted_idle,
            Eviction::StalledRead => &self.evicted_stalled,
            Eviction::SlowClient => &self.evicted_slow,
            Eviction::TooLarge => &self.evicted_too_large,
            Eviction::Drain => &self.evicted_drain,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drain-shutdown state shared by every worker.
#[derive(Debug, Default)]
struct DrainState {
    active: AtomicBool,
    /// Clock tick the drain began (read only when `active`).
    since: AtomicU64,
}

/// Single-flight and rate-limit state for the `RELOAD` admin command.
/// The command is deliberately narrow: it only re-reads the configured
/// snapshot path (a client can never name a file), at most one load
/// runs at a time, and accepts are spaced at least
/// [`ServeLimits::reload_min_interval_ms`] apart — so a hostile client
/// on the loopback listener cannot thrash the disk or churn the warm
/// per-generation cache faster than the operator allowed.
#[derive(Debug, Default)]
struct ReloadState {
    /// A background snapshot load is in flight.
    busy: Arc<AtomicBool>,
    /// `tick + 1` of the last accepted `RELOAD` (0 = never accepted).
    last_accept: AtomicU64,
}

/// Everything one worker needs to answer queries; shared by `Arc`.
struct Serving {
    handle: Arc<StoreHandle>,
    stats: Arc<ServeStats>,
    limits: ServeLimits,
    clock: ServeClock,
    drain: DrainState,
    /// Where `RELOAD` re-reads the snapshot from; `None` refuses the
    /// command (in-memory stores reload via [`QueryServer::reload`]).
    snapshot_path: Option<PathBuf>,
    reload: ReloadState,
}

impl Serving {
    /// Computes the one-line response to a protocol line against the
    /// worker's generation. Pure with respect to the connection (only
    /// counters mutate), so it is unit-testable without a socket. The
    /// second return is `true` when the connection should close.
    fn respond(&self, g: &Generation, line: &str) -> (String, bool) {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("LOCATE") => match words.next().map(str::parse) {
                Some(Ok(ip)) => match g.store.lookup(ip) {
                    Some(entry) => {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        (format!("OK {entry}"), false)
                    }
                    None => {
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        (format!("MISS {ip}"), false)
                    }
                },
                Some(Err(e)) => (format!("ERR {e}"), false),
                None => ("ERR LOCATE needs an <ip>".into(), false),
            },
            Some("NEAREST") => match words.next().map(str::parse) {
                Some(Ok(ip)) => match g.store.lookup_nearest(ip) {
                    Some((entry, dist)) => {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        (format!("OK {entry} distance={dist}"), false)
                    }
                    None => {
                        self.stats.misses.fetch_add(1, Ordering::Relaxed);
                        (format!("MISS {ip}"), false)
                    }
                },
                Some(Err(e)) => (format!("ERR {e}"), false),
                None => ("ERR NEAREST needs an <ip>".into(), false),
            },
            Some("STATS") => {
                let s = self.stats.snapshot();
                (
                    format!(
                        "OK entries={} hits={} misses={} connections={} uptime_s={:.3} \
                         qps={:.1} generation={} live={} shed={} evicted={} proto_errors={} \
                         reload_failed={}",
                        g.store.len(),
                        s.hits,
                        s.misses,
                        s.connections,
                        s.uptime_s,
                        s.qps(),
                        // The freshest generation, not the worker's copy:
                        // a STATS right after RELOAD must report the swap
                        // even when another worker installed it.
                        self.handle.generation(),
                        s.live,
                        s.shed,
                        s.evicted_total(),
                        s.proto_errors,
                        s.reload_failed,
                    ),
                    false,
                )
            }
            Some("RELOAD") => (self.schedule_reload(), false),
            Some("QUIT") => ("BYE".into(), true),
            Some(other) => (
                format!("ERR unknown command `{other}` (LOCATE|NEAREST|STATS|RELOAD|QUIT)"),
                false,
            ),
            None => ("ERR empty command".into(), false),
        }
    }

    /// Handles the `RELOAD` admin command: validates the gate (path
    /// configured, rate limit, single-flight), then hands the snapshot
    /// read to a short-lived background thread so the event-loop worker
    /// never stalls on disk — every other connection on this worker
    /// keeps being swept while the load runs. The reply is immediate;
    /// the swap surfaces in `STATS generation=` once the load lands
    /// (failures land in the `reload_failed` counter instead).
    fn schedule_reload(&self) -> String {
        let Some(path) = &self.snapshot_path else {
            return "ERR reload: no snapshot path configured".into();
        };
        let now = self.clock.now();
        let last = self.reload.last_accept.load(Ordering::Acquire);
        let min = self.limits.reload_min_interval_ms;
        if last != 0 && now.saturating_sub(last - 1) < min {
            return format!("ERR reload: rate-limited (at most one reload per {min}ms)");
        }
        if self
            .reload
            .busy
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return "ERR reload: a reload is already in progress".into();
        }
        self.reload.last_accept.store(now + 1, Ordering::Release);
        // Read before the spawn: the loader may install the next
        // generation before the reply line is even formatted.
        let scheduled_from = self.handle.generation();
        let handle = Arc::clone(&self.handle);
        let stats = Arc::clone(&self.stats);
        let busy = Arc::clone(&self.reload.busy);
        let path = path.clone();
        // Not a per-connection thread (R4's concern): one single-flight
        // loader for an operator command, named for debuggability.
        let spawned = std::thread::Builder::new()
            .name("igds-reload".into())
            .spawn(move || {
                match DatasetStore::open(&path) {
                    Ok(fresh) => {
                        handle.install(Arc::new(fresh));
                    }
                    Err(_) => {
                        stats.reload_failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                busy.store(false, Ordering::Release);
            });
        match spawned {
            Ok(_) => format!("OK reload=scheduled generation={scheduled_from}"),
            Err(e) => {
                self.reload.busy.store(false, Ordering::Release);
                format!("ERR reload: {e}")
            }
        }
    }

    /// Answers a text-protocol line straight into the output buffer,
    /// serving `OK` answers for well-formed single-address LOCATE /
    /// NEAREST from the generation's cache (byte-identical to the store
    /// path). Returns `true` when the connection should close.
    fn respond_line_into(&self, g: &Generation, line: &str, out: &mut Vec<u8>) -> bool {
        let mut words = line.split_whitespace();
        let cached = match (words.next(), words.next(), words.next()) {
            (Some(verb @ ("LOCATE" | "NEAREST")), Some(ip_str), None) => {
                ip_str.parse::<geo_model::ip::Ipv4>().ok().map(|ip| {
                    let kind = if verb == "LOCATE" {
                        CacheKind::LineLocate
                    } else {
                        CacheKind::LineNearest
                    };
                    (kind, ip.prefix24().0)
                })
            }
            _ => None,
        };
        if let Some((kind, prefix)) = cached {
            if let Some(CacheValue::Line(reply)) = g.cache.get(kind, prefix) {
                // Only `OK` lines are admitted, so a cache hit is a store hit.
                self.stats.count(true);
                out.extend_from_slice(reply.as_bytes());
                out.push(b'\n');
                return false;
            }
        }
        let (reply, close) = self.respond(g, line);
        if let Some((kind, prefix)) = cached {
            if reply.starts_with("OK ") {
                g.cache
                    .put(kind, prefix, CacheValue::Line(reply.as_str().into()));
            }
        }
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        close
    }

    fn record_from(entry: &DatasetEntry, distance: u32) -> LocateRecord {
        LocateRecord {
            hit: true,
            prefix: entry.prefix,
            lat_bits: entry.location.lat().to_bits(),
            lon_bits: entry.location.lon().to_bits(),
            method: method_tag(&entry.evidence),
            distance,
            confidence_bits: entry.evidence.confidence().to_bits(),
        }
    }

    /// One binary-protocol answer record, through the cache. Both hit
    /// and miss records are pure functions of the queried `/24`, so
    /// both are cacheable.
    fn locate_record(
        &self,
        g: &Generation,
        ip: geo_model::ip::Ipv4,
        nearest: bool,
    ) -> LocateRecord {
        let kind = if nearest {
            CacheKind::BinNearest
        } else {
            CacheKind::BinLocate
        };
        let prefix = ip.prefix24().0;
        if let Some(CacheValue::Record(rec)) = g.cache.get(kind, prefix) {
            self.stats.count(rec.hit);
            return rec;
        }
        let rec = if nearest {
            match g.store.lookup_nearest(ip) {
                Some((entry, dist)) => Self::record_from(entry, dist),
                None => LocateRecord::miss(ip),
            }
        } else {
            match g.store.lookup(ip) {
                Some(entry) => Self::record_from(entry, 0),
                None => LocateRecord::miss(ip),
            }
        };
        self.stats.count(rec.hit);
        g.cache.put(kind, prefix, CacheValue::Record(rec));
        rec
    }

    /// Answers one decoded binary request straight into the output
    /// buffer, records streaming in query order.
    fn respond_frame_into(&self, g: &Generation, req: &Request, out: &mut Vec<u8>) {
        match req {
            Request::Locate(ips) | Request::Nearest(ips) => {
                let nearest = matches!(req, Request::Nearest(_));
                let opcode = if nearest {
                    Opcode::Nearest
                } else {
                    Opcode::Locate
                };
                let w = ResponseWriter::begin(out, opcode);
                for &ip in ips {
                    let rec = self.locate_record(g, ip, nearest);
                    w.push_record(out, &rec);
                }
                w.finish(out);
            }
            Request::Stats => {
                let s = self.stats.snapshot();
                let w = ResponseWriter::begin(out, Opcode::Stats);
                w.push_stats(
                    out,
                    &StatsRecord {
                        entries: g.store.len() as u64,
                        hits: s.hits,
                        misses: s.misses,
                        connections: s.connections,
                        // Freshest generation for the same reason the
                        // text STATS line reads it off the handle.
                        generation: self.handle.generation(),
                        live: s.live,
                        shed: s.shed,
                        evicted: s.evicted_total(),
                        proto_errors: s.proto_errors,
                        reload_failed: s.reload_failed,
                    },
                );
                w.finish(out);
            }
        }
    }
}

/// Which protocol a connection speaks; decided by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Undecided,
    Line,
    Binary,
}

/// One registered connection's state.
struct Conn {
    stream: TcpStream,
    mode: Mode,
    /// Bytes read but not yet parsed; `parsed` marks the frame/line
    /// boundary already consumed.
    inbuf: Vec<u8>,
    parsed: usize,
    /// Bytes queued for the client; `sent` marks how far the socket got.
    out: Vec<u8>,
    sent: usize,
    /// Flush what is queued, then close (QUIT, EOF, protocol error).
    closing: bool,
    /// Accepted over a connection cap: answer `BUSY` and close, never
    /// serve a query.
    shed: bool,
    /// Deadline state machine (see [`lifecycle`]).
    life: Lifecycle,
    /// Consecutive sweeps with nothing to do; drives parking.
    idle_sweeps: u32,
}

impl Conn {
    fn new(stream: TcpStream, now: Tick, shed: bool) -> Conn {
        Conn {
            stream,
            mode: Mode::Undecided,
            inbuf: Vec::new(),
            parsed: 0,
            out: Vec::new(),
            sent: 0,
            closing: false,
            shed,
            life: Lifecycle::new(now),
            idle_sweeps: 0,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Drops already-parsed input; called once parsing stalls so the
    /// buffer never grows beyond one partial frame/line.
    fn compact(&mut self) {
        if self.parsed == self.inbuf.len() {
            self.inbuf.clear();
            self.parsed = 0;
        } else if self.parsed > READ_CHUNK {
            self.inbuf.drain(..self.parsed);
            self.parsed = 0;
        }
    }
}

/// One best-effort typed farewell before an evicted connection closes.
/// Nonblocking single write: a client too broken to receive it loses
/// nothing it was entitled to.
fn farewell(conn: &mut Conn, ev: Eviction) {
    let bytes: Vec<u8> = match conn.mode {
        Mode::Line => format!("ERR evicted: {}\n", ev.name()).into_bytes(),
        Mode::Binary => {
            let mut b = Vec::new();
            encode_error(&mut b, Opcode::Locate, &format!("evicted: {}", ev.name()));
            b
        }
        Mode::Undecided => return,
    };
    let _ = conn.stream.write(&bytes);
}

/// Outcome of one connection sweep step.
enum Sweep {
    Keep,
    Drop,
    /// Idle long enough to leave the sweep until its lazy re-arm.
    Park,
}

/// Reads, parses, answers, and flushes one connection. Nonblocking
/// throughout: every `WouldBlock` just ends that phase until the next
/// sweep.
// geo-lint: allow(R1, reason = "cursor slices hold `parsed <= inbuf.len()`, `sent <= out.len()`, and `n <= scratch.len()` from read()")
fn sweep_conn(
    serving: &Serving,
    g: &Generation,
    conn: &mut Conn,
    scratch: &mut [u8],
    progress: &mut bool,
    now: Tick,
    draining: bool,
) -> Sweep {
    let mut io_moved = false;
    let mut completed = false;
    let mut saw_eof = false;

    // Read phase — skipped while the client is not draining its answers.
    while !conn.closing && conn.backlog() < WRITE_HIGH_WATER && conn.inbuf.len() < MAX_INBUF {
        match conn.stream.read(scratch) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&scratch[..n]);
                *progress = true;
                io_moved = true;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Sweep::Drop,
        }
    }

    // Mode sniff — the first byte picks the protocol.
    if conn.mode == Mode::Undecided {
        if let Some(&first) = conn.inbuf.first() {
            conn.mode = if first == proto::REQ_MAGIC {
                Mode::Binary
            } else {
                Mode::Line
            };
        }
    }

    // Parse phase — consume every complete frame/line now buffered.
    if conn.shed {
        // A shed connection gets exactly one BUSY reply in its own
        // protocol, then closes; its input is never interpreted.
        if !conn.closing && conn.mode != Mode::Undecided {
            match conn.mode {
                Mode::Line => conn.out.extend_from_slice(b"ERR busy\n"),
                Mode::Binary => proto::encode_busy(&mut conn.out, Opcode::Locate),
                Mode::Undecided => {}
            }
            conn.closing = true;
            *progress = true;
        }
        conn.inbuf.clear();
        conn.parsed = 0;
    } else if !conn.closing {
        // Gated on `closing` exactly like the read phase: once a
        // protocol error, oversized line, or QUIT has set `closing`,
        // the remaining input is never re-interpreted. Without the gate
        // a connection whose backlog cannot flush (slow reader) would
        // re-parse the same bytes every sweep — double-counting
        // proto_errors / evictions and appending a duplicate error
        // reply per sweep until the write deadline fires.
        match conn.mode {
            Mode::Undecided => {}
            Mode::Binary => loop {
                match try_decode_request(&conn.inbuf[conn.parsed..]) {
                    Ok(proto::Decoded::Frame(req, used)) => {
                        serving.respond_frame_into(g, &req, &mut conn.out);
                        conn.parsed += used;
                        completed = true;
                        *progress = true;
                    }
                    Ok(proto::Decoded::NeedMore) => {
                        if conn.inbuf.len() - conn.parsed >= MAX_INBUF {
                            // A frame can never legitimately be this large;
                            // the budget check makes this unreachable, but
                            // keep the guard so a bug cannot balloon memory.
                            serving.stats.count_eviction(Eviction::TooLarge);
                            encode_error(
                                &mut conn.out,
                                Opcode::Locate,
                                "frame exceeds input budget",
                            );
                            conn.closing = true;
                        }
                        break;
                    }
                    Err(e) => {
                        serving.stats.proto_errors.fetch_add(1, Ordering::Relaxed);
                        encode_error(&mut conn.out, Opcode::Locate, &e.to_string());
                        conn.closing = true;
                        *progress = true;
                        break;
                    }
                }
            },
            Mode::Line => loop {
                let pending = &conn.inbuf[conn.parsed..];
                let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
                    if pending.len() > LINE_BUDGET {
                        serving.stats.count_eviction(Eviction::TooLarge);
                        conn.out.extend_from_slice(
                            format!("ERR too-large: line exceeds the {LINE_BUDGET}-byte budget\n")
                                .as_bytes(),
                        );
                        conn.closing = true;
                    }
                    break;
                };
                let line = String::from_utf8_lossy(&pending[..nl]);
                let close = serving.respond_line_into(g, line.trim(), &mut conn.out);
                conn.parsed += nl + 1;
                completed = true;
                *progress = true;
                if close {
                    conn.closing = true;
                    break;
                }
            },
        }
    }
    // EOF turns into `closing` only *after* the parse phase, so requests
    // that arrived with (or before) the client's FIN are still answered
    // and flushed; from the next sweep on the gate above keeps the
    // leftover bytes (a partial frame, input after QUIT) uninterpreted.
    if saw_eof {
        conn.closing = true;
    }
    if conn.closing {
        // The gate above means unparsed input on a closing connection
        // can never be interpreted — don't hold it while the farewell
        // backlog drains.
        conn.inbuf.clear();
        conn.parsed = 0;
    }
    conn.compact();

    // Write phase — flush as much of the backlog as the socket takes.
    let had_backlog = conn.backlog() > 0;
    while conn.sent < conn.out.len() {
        match conn.stream.write(&conn.out[conn.sent..]) {
            Ok(0) => return Sweep::Drop,
            Ok(n) => {
                conn.sent += n;
                *progress = true;
                io_moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Sweep::Drop,
        }
    }
    if conn.sent == conn.out.len() {
        conn.out.clear();
        conn.sent = 0;
        if had_backlog {
            completed = true;
        }
        if conn.closing {
            return Sweep::Drop;
        }
    }

    let pending_input = conn.inbuf.len() > conn.parsed;

    // Drain shutdown closes connections the moment they go quiet; only
    // in-flight work (a partial frame or an undrained backlog) keeps one
    // alive, and only until the drain deadline.
    if draining && !conn.closing && conn.backlog() == 0 && !pending_input {
        return Sweep::Drop;
    }

    // Deadline bookkeeping: one clock read per sweep drives every
    // timeout decision (see `lifecycle`).
    if io_moved {
        conn.life.io_progress(now);
    }
    let phase = if conn.backlog() > 0 {
        ConnPhase::Writing
    } else if pending_input {
        ConnPhase::Reading
    } else {
        ConnPhase::Idle
    };
    conn.life.observe(now, phase, completed);
    let limits = if conn.shed {
        // A shed connection exists only to receive its BUSY reply; it
        // gets the short read deadline, not the full idle allowance.
        ServeLimits {
            idle_timeout_ms: serving.limits.read_timeout_ms,
            ..serving.limits
        }
    } else {
        serving.limits
    };
    if let Some(ev) = conn.life.check(now, &limits) {
        serving.stats.count_eviction(ev);
        farewell(conn, ev);
        return Sweep::Drop;
    }

    // Park bookkeeping: a connection that did nothing for PARK_AFTER
    // consecutive sweeps AND has been byte-silent for PARK_IDLE_MS of
    // clock time leaves the sweep until its lazy re-arm. The clock gate
    // is what keeps pipelined clients hot: their inter-burst gaps are
    // microseconds, far under the threshold.
    if phase == ConnPhase::Idle && !io_moved && !completed && !conn.closing && !conn.shed {
        conn.idle_sweeps = conn.idle_sweeps.saturating_add(1);
        if conn.idle_sweeps >= PARK_AFTER && conn.life.idle_for(now) >= PARK_IDLE_MS {
            conn.idle_sweeps = 0;
            return Sweep::Park;
        }
    } else {
        conn.idle_sweeps = 0;
    }
    Sweep::Keep
}

/// One worker's event loop: accept a bounded burst (shedding over-cap
/// connections), sweep every registered connection, pace with the
/// poller's idle backoff, exit on the wake token or when a drain
/// completes.
// geo-lint: serve-entry
fn worker_loop(listener: &TcpListener, serving: &Serving, mut poller: Poller) {
    let mut registry: Registry<Conn> = Registry::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut g = serving.handle.current();
    let mut sweep: u64 = 0;
    loop {
        if poller.wake_requested() {
            break;
        }
        sweep = sweep.wrapping_add(1);
        let now = serving.clock.now();
        // Live snapshot reload: one atomic load per sweep; the mutex is
        // touched only on an actual generation swap.
        if serving.handle.generation() != g.number {
            g = serving.handle.current();
        }
        let draining = serving.drain.active.load(Ordering::Acquire);
        let mut progress = false;
        if draining {
            registry.unpark_all();
        } else {
            registry.unpark_due(sweep);
            for _ in 0..ACCEPT_BURST {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        serving.stats.connections.fetch_add(1, Ordering::Relaxed);
                        let live = serving.stats.live.fetch_add(1, Ordering::Relaxed) as usize;
                        // Cap gating: `live` was the count *before* this
                        // accept, so `>=` sheds the (cap+1)-th connection.
                        let shed = live >= serving.limits.max_connections
                            || registry.len() >= serving.limits.max_per_worker;
                        if shed {
                            serving.stats.shed.fetch_add(1, Ordering::Relaxed);
                        }
                        registry.register(Conn::new(stream, now, shed));
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for token in registry.tokens() {
            let Some(conn) = registry.get_mut(token) else {
                continue;
            };
            match sweep_conn(
                serving,
                &g,
                conn,
                &mut scratch,
                &mut progress,
                now,
                draining,
            ) {
                Sweep::Keep => {}
                Sweep::Drop => {
                    if registry.deregister(token).is_some() {
                        serving.stats.live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Sweep::Park => {
                    registry.park(token, sweep + PARK_RECHECK);
                }
            }
        }
        if draining {
            let since = serving.drain.since.load(Ordering::Acquire);
            if now.saturating_sub(since) >= serving.limits.drain_grace_ms {
                for token in registry.all_tokens() {
                    if let Some(mut conn) = registry.deregister(token) {
                        serving.stats.count_eviction(Eviction::Drain);
                        farewell(&mut conn, Eviction::Drain);
                        serving.stats.live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            if registry.is_empty() {
                break;
            }
        }
        if progress {
            poller.note_progress();
        } else {
            poller.idle_wait();
        }
    }
}

/// How to spawn a [`QueryServer`]: worker count, caps and deadlines,
/// the deadline clock, and where `RELOAD` re-reads its snapshot.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; 0 means `IPGEO_THREADS` (0/unset: all cores).
    pub workers: usize,
    /// Caps and deadlines.
    pub limits: ServeLimits,
    /// The deadline clock; tests substitute [`ServeClock::manual`].
    pub clock: ServeClock,
    /// Snapshot file the `RELOAD` command re-reads; `None` disables it.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            limits: ServeLimits::default(),
            clock: ServeClock::wall(),
            snapshot_path: None,
        }
    }
}

/// A running query server; dropping the handle does **not** stop it —
/// call [`QueryServer::shutdown`] / [`QueryServer::shutdown_drain`] (or
/// [`QueryServer::wait`] to serve until the process dies).
pub struct QueryServer {
    addr: SocketAddr,
    serving: Arc<Serving>,
    waker: Waker,
    workers: Vec<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `127.0.0.1:port` (`port` 0 lets the OS choose) and starts
    /// the worker pool, sized from `IPGEO_THREADS` (0/unset: all cores).
    pub fn spawn(store: Arc<DatasetStore>, port: u16) -> io::Result<QueryServer> {
        QueryServer::spawn_with_config(store, port, ServeConfig::default())
    }

    /// As [`spawn`](QueryServer::spawn) with an explicit worker count —
    /// the equivalence tests' hook for comparing 1-vs-N worker response
    /// streams without touching the environment.
    pub fn spawn_with_workers(
        store: Arc<DatasetStore>,
        port: u16,
        workers: usize,
    ) -> io::Result<QueryServer> {
        QueryServer::spawn_with_config(
            store,
            port,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Full-control spawn: caps, deadlines, clock, and `RELOAD` path.
    // geo-lint: worker-bootstrap
    pub fn spawn_with_config(
        store: Arc<DatasetStore>,
        port: u16,
        config: ServeConfig,
    ) -> io::Result<QueryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            geo_model::runtime::threads()
        } else {
            config.workers
        };
        let serving = Arc::new(Serving {
            handle: Arc::new(StoreHandle::new(store)),
            stats: Arc::new(ServeStats::new()),
            limits: config.limits,
            clock: config.clock,
            drain: DrainState::default(),
            snapshot_path: config.snapshot_path,
            reload: ReloadState::default(),
        });
        let root = Poller::new();
        let waker = root.waker();
        let workers = (0..workers.max(1))
            .map(|_| {
                let listener = listener.try_clone()?;
                let serving = Arc::clone(&serving);
                let poller = Poller::sharing(&root);
                Ok(std::thread::spawn(move || {
                    worker_loop(&listener, &serving, poller);
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(QueryServer {
            addr,
            serving,
            waker,
            workers,
        })
    }

    /// The bound address (real port even when spawned with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.serving.stats.snapshot()
    }

    /// Hot-prefix cache traffic since spawn, summed across generations.
    pub fn cache_stats(&self) -> crate::cache::CacheCounters {
        self.serving.handle.cache_counters()
    }

    /// The live snapshot generation number.
    pub fn generation(&self) -> u64 {
        self.serving.handle.generation()
    }

    /// Atomically installs `store` as the next serving generation (the
    /// programmatic twin of the `RELOAD` command); returns the new
    /// generation number. In-flight connections are never dropped:
    /// each worker swaps at its next sweep boundary.
    pub fn reload(&self, store: Arc<DatasetStore>) -> u64 {
        self.serving.handle.install(store)
    }

    /// Hard shutdown: fires the wake token and joins every worker.
    /// Each worker observes the token at the top of its next sweep, so
    /// teardown needs no wake-up connection and no read timeouts.
    /// In-flight connections are cut, not drained.
    pub fn shutdown(mut self) {
        self.waker.wake();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Graceful drain: stop accepting, close idle connections, finish
    /// in-flight frames/lines up to [`ServeLimits::drain_grace_ms`],
    /// then evict stragglers (typed `drain-deadline` farewell) and join
    /// every worker.
    pub fn shutdown_drain(mut self) {
        self.serving
            .drain
            .since
            .store(self.serving.clock.now(), Ordering::Release);
        self.serving.drain.active.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the workers exit — the `ipgeo serve` foreground
    /// mode, ended only by killing the process.
    pub fn wait(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One-shot client: sends a single protocol line to a running server and
/// returns the one-line reply. This is the `ipgeo query --server` path and
/// the integration tests' client primitive.
pub fn query_one(addr: &str, command: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{command}\n").as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    // geo-lint: allow(R4, reason = "blocking read in the one-shot client primitive, not the serving path")
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ClockHandle;
    use crate::proto::{BinaryClient, Response};
    use geo_model::ip::{Ipv4, Prefix24};
    use geo_model::point::GeoPoint;
    use ipgeo::publish::{DatasetEntry, Evidence};
    use std::time::Duration;

    fn store() -> DatasetStore {
        let entries = vec![
            DatasetEntry {
                prefix: Prefix24(0x0A0A0A),
                location: GeoPoint::new(48.85, 2.35),
                evidence: Evidence::DnsHint {
                    hostname: "par1.example.net".into(),
                },
            },
            DatasetEntry {
                prefix: Prefix24(0x0A0A10),
                location: GeoPoint::new(-33.9, 151.2),
                evidence: Evidence::Whois,
            },
        ];
        DatasetStore::from_entries(&entries, 3, 1)
    }

    fn test_serving(store: DatasetStore) -> (Serving, Arc<Generation>) {
        let handle = Arc::new(StoreHandle::new(Arc::new(store)));
        let g = handle.current();
        let serving = Serving {
            handle,
            stats: Arc::new(ServeStats::new()),
            limits: ServeLimits::default(),
            clock: ServeClock::wall(),
            drain: DrainState::default(),
            snapshot_path: None,
            reload: ReloadState::default(),
        };
        (serving, g)
    }

    /// Polls `cond` for up to ~2 s without wall-clock reads.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..1000 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn protocol_lines() {
        let (serving, g) = test_serving(store());
        let respond = |line: &str| serving.respond(&g, line);
        let (hit, close) = respond("LOCATE 10.10.10.200");
        assert!(!close);
        assert_eq!(
            hit,
            "OK 10.10.10.0/24,48.8500,2.3500,dns-hint,0.90,hostname=par1.example.net"
        );
        let (miss, _) = respond("LOCATE 9.9.9.9");
        assert_eq!(miss, "MISS 9.9.9.9");
        let (near, _) = respond("NEAREST 10.10.11.1");
        assert!(near.starts_with("OK 10.10.10.0/24"), "{near}");
        assert!(near.ends_with("distance=1"), "{near}");
        let (stats_line, _) = respond("STATS");
        assert!(
            stats_line.starts_with("OK entries=2 hits=2 misses=1"),
            "{stats_line}"
        );
        assert!(stats_line.contains(" generation=1 "), "{stats_line}");
        assert!(stats_line.contains(" shed=0 "), "{stats_line}");
        assert!(
            stats_line.ends_with(" evicted=0 proto_errors=0 reload_failed=0"),
            "{stats_line}"
        );
        assert_eq!(respond("QUIT"), ("BYE".into(), true));
        assert!(respond("LOCATE not-an-ip").0.starts_with("ERR"));
        assert!(respond("TELEPORT 1.2.3.4").0.starts_with("ERR"));
        assert!(respond("").0.starts_with("ERR"));
        // RELOAD without a configured path is refused, not a panic.
        assert!(respond("RELOAD").0.starts_with("ERR reload:"));
    }

    #[test]
    fn cached_line_answers_are_byte_identical() {
        let (serving, g) = test_serving(store());
        let mut cold = Vec::new();
        let close = serving.respond_line_into(&g, "LOCATE 10.10.10.200", &mut cold);
        assert!(!close);
        let mut warm = Vec::new();
        serving.respond_line_into(&g, "LOCATE 10.10.10.200", &mut warm);
        assert_eq!(cold, warm);
        assert_eq!(serving.stats.snapshot().hits, 2);
        // Misses bypass the cache (the reply embeds the exact ip).
        let mut miss = Vec::new();
        serving.respond_line_into(&g, "LOCATE 9.9.9.9", &mut miss);
        assert_eq!(miss, b"MISS 9.9.9.9\n");
        assert_eq!(g.cache.counters().hits, 1);
    }

    #[test]
    fn serves_over_a_real_socket() {
        let server = QueryServer::spawn(Arc::new(store()), 0).unwrap();
        let addr = server.addr().to_string();
        let reply = query_one(&addr, "LOCATE 10.10.10.1").unwrap();
        assert!(reply.starts_with("OK 10.10.10.0/24"), "{reply}");
        let reply = query_one(&addr, "STATS").unwrap();
        assert!(reply.contains("hits=1"), "{reply}");
        let stats = server.stats();
        assert_eq!(stats.hits, 1);
        assert!(stats.connections >= 2);
        server.shutdown();
        // The port is released after shutdown: a fresh connect must fail
        // or be refused service; either way, no reply arrives.
        assert!(query_one(&addr, "LOCATE 10.10.10.1").is_err());
    }

    #[test]
    fn serves_the_binary_protocol_on_the_same_port() {
        let server = QueryServer::spawn(Arc::new(store()), 0).unwrap();
        let addr = server.addr().to_string();
        let mut client = BinaryClient::connect(&addr).unwrap();
        let ips = vec![Prefix24(0x0A0A0A).host(1), Ipv4(0x0909_0909)];
        let Response::Records { opcode, records } = client.query(Opcode::Locate, &ips).unwrap()
        else {
            panic!("expected records");
        };
        assert_eq!(opcode, Opcode::Locate);
        assert_eq!(records.len(), 2);
        assert!(records[0].hit);
        assert_eq!(records[0].prefix, Prefix24(0x0A0A0A));
        assert_eq!(records[0].lat(), 48.85);
        assert!(!records[1].hit);

        let Response::Records { records, .. } = client
            .query(Opcode::Nearest, &[Prefix24(0x0A0A0B).host(9)])
            .unwrap()
        else {
            panic!("expected records");
        };
        assert_eq!(
            (records[0].prefix, records[0].distance),
            (Prefix24(0x0A0A0A), 1)
        );

        let Response::Stats(s) = client.query(Opcode::Stats, &[]).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits + s.misses, 3);
        // Revision 3: the robustness counters ride in the binary STATS
        // body too, so ops tooling on this protocol sees shedding and
        // evictions with text-line fidelity.
        assert_eq!(s.generation, 1);
        assert!(s.live >= 1, "live={}", s.live);
        assert_eq!(
            (s.shed, s.evicted, s.proto_errors, s.reload_failed),
            (0, 0, 0, 0)
        );

        // A line-protocol client still works on the very same port.
        let reply = query_one(&addr, "LOCATE 10.10.10.1").unwrap();
        assert!(reply.starts_with("OK"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn malformed_binary_frame_gets_a_typed_error_then_close() {
        let server = QueryServer::spawn(Arc::new(store()), 0).unwrap();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        // Valid header shape, hostile length field.
        let mut frame = vec![proto::REQ_MAGIC, proto::PROTO_VERSION, 1, 0];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&frame).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let proto::Decoded::Frame(resp, _) = proto::try_decode_response(&reply).unwrap() else {
            panic!("expected a complete error frame");
        };
        assert!(matches!(resp, Response::Error(msg) if msg.contains("budget")));
        assert!(eventually(|| server.stats().proto_errors == 1));
        server.shutdown();
    }

    /// A nonblocking socket pair: the accepted end wrapped as a [`Conn`]
    /// for driving [`sweep_conn`] directly, plus the client end.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        server_end.set_nonblocking(true).unwrap();
        (Conn::new(server_end, 0, false), client)
    }

    /// Regression: a malformed frame on a connection whose backlog
    /// cannot flush must be counted and answered exactly once — before
    /// the `closing` parse gate, every sweep re-parsed the same bytes,
    /// re-counting proto_errors and appending a duplicate error frame
    /// until the write deadline fired.
    #[test]
    fn stuck_backlog_never_reparses_a_malformed_frame() {
        let (serving, g) = test_serving(store());
        let (mut conn, mut client) = conn_pair();
        // A backlog far past the socket buffers keeps the connection in
        // the closing-but-unflushed state the re-parse bug needed.
        conn.out = vec![0u8; 3 * 1024 * 1024];
        let mut frame = vec![proto::REQ_MAGIC, proto::PROTO_VERSION, 1, 0];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        client.write_all(&frame).unwrap();

        let mut scratch = vec![0u8; READ_CHUNK];
        let mut progress = false;
        assert!(eventually(|| {
            sweep_conn(
                &serving,
                &g,
                &mut conn,
                &mut scratch,
                &mut progress,
                0,
                false,
            );
            serving.stats.snapshot().proto_errors >= 1
        }));
        assert!(conn.closing);
        // The malformed bytes are behind the gate now: further sweeps
        // with the backlog still stuck add nothing.
        assert!(
            conn.inbuf.is_empty(),
            "unparsed bytes kept: {}",
            conn.inbuf.len()
        );
        let queued = conn.out.len();
        for _ in 0..50 {
            sweep_conn(
                &serving,
                &g,
                &mut conn,
                &mut scratch,
                &mut progress,
                0,
                false,
            );
        }
        assert_eq!(serving.stats.snapshot().proto_errors, 1);
        assert_eq!(conn.out.len(), queued, "duplicate error frames appended");
    }

    /// Input pipelined after QUIT is never interpreted, no matter how
    /// many sweeps the farewell takes to flush — the answered stream
    /// stays a pure function of the request stream, not of flush timing.
    #[test]
    fn input_after_quit_is_not_interpreted() {
        let (serving, g) = test_serving(store());
        let (mut conn, mut client) = conn_pair();
        conn.out = vec![0u8; 3 * 1024 * 1024];
        client.write_all(b"QUIT\nLOCATE 10.10.10.1\n").unwrap();

        let mut scratch = vec![0u8; READ_CHUNK];
        let mut progress = false;
        assert!(eventually(|| {
            sweep_conn(
                &serving,
                &g,
                &mut conn,
                &mut scratch,
                &mut progress,
                0,
                false,
            );
            conn.closing
        }));
        for _ in 0..50 {
            sweep_conn(
                &serving,
                &g,
                &mut conn,
                &mut scratch,
                &mut progress,
                0,
                false,
            );
        }
        let s = serving.stats.snapshot();
        assert_eq!(
            (s.hits, s.misses),
            (0, 0),
            "a post-QUIT command was answered"
        );
    }

    #[test]
    fn reload_command_is_async_and_rate_limited() {
        let path =
            std::env::temp_dir().join(format!("igds-reload-test-{}.igds", std::process::id()));
        let fresh = vec![DatasetEntry {
            prefix: Prefix24(0x0B0B0B),
            location: GeoPoint::new(1.0, 2.0),
            evidence: Evidence::Whois,
        }];
        std::fs::write(&path, crate::format::encode(&fresh, 5, 5)).unwrap();

        let (clock, handle) = ServeClock::manual();
        let config = ServeConfig {
            workers: 1,
            limits: ServeLimits {
                reload_min_interval_ms: 500,
                ..ServeLimits::default()
            },
            clock,
            snapshot_path: Some(path.clone()),
        };
        let server = QueryServer::spawn_with_config(Arc::new(store()), 0, config).unwrap();
        let addr = server.addr().to_string();
        let stream = TcpStream::connect(&addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = |cmd: &str| {
            w.write_all(format!("{cmd}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };

        // The reply is immediate — the snapshot load runs off the event
        // loop — and the swap lands in the background.
        assert_eq!(line("RELOAD"), "OK reload=scheduled generation=1");
        assert!(eventually(|| server.generation() == 2));
        // The same connection answers from the new snapshot.
        assert!(eventually(|| {
            line("LOCATE 11.11.11.1").starts_with("OK 11.11.11.0/24")
        }));

        // Inside the rate window a second RELOAD is refused...
        assert!(
            line("RELOAD").starts_with("ERR reload: rate-limited"),
            "rate limit did not hold"
        );
        assert_eq!(server.generation(), 2);
        // ...and accepted again once the clock clears it.
        handle.advance(500);
        assert_eq!(line("RELOAD"), "OK reload=scheduled generation=2");
        assert!(eventually(|| server.generation() == 3));
        assert_eq!(server.stats().reload_failed, 0);

        // An unreadable snapshot fails in the background: the counter
        // moves, the serving generation does not.
        std::fs::write(&path, b"not a snapshot").unwrap();
        handle.advance(500);
        assert!(line("RELOAD").starts_with("OK reload=scheduled"));
        assert!(eventually(|| server.stats().reload_failed == 1));
        assert_eq!(server.generation(), 3);

        server.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_line_is_rejected_with_too_large() {
        let server = QueryServer::spawn_with_workers(Arc::new(store()), 0, 1).unwrap();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        // A newline-free flood one chunk past the shared input budget.
        let junk = vec![b'A'; LINE_BUDGET + READ_CHUNK];
        stream.write_all(&junk).unwrap();
        let mut reply = String::new();
        BufReader::new(&mut stream).read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ERR too-large"), "{reply}");
        assert!(eventually(|| server.stats().evicted_too_large == 1));
        server.shutdown();
    }

    #[test]
    fn over_cap_connections_are_shed_with_busy() {
        let config = ServeConfig {
            workers: 1,
            limits: ServeLimits {
                max_connections: 2,
                ..ServeLimits::default()
            },
            ..ServeConfig::default()
        };
        let server = QueryServer::spawn_with_config(Arc::new(store()), 0, config).unwrap();
        let addr = server.addr().to_string();

        // Fill the cap with two established, confirmed connections.
        let mut held = Vec::new();
        for _ in 0..2 {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut w = stream.try_clone().unwrap();
            w.write_all(b"LOCATE 10.10.10.1\n").unwrap();
            let mut reply = String::new();
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut reply).unwrap();
            assert!(reply.starts_with("OK"), "{reply}");
            held.push((reader, w));
        }

        // The third connection is shed in the line protocol...
        let reply = query_one(&addr, "STATS").unwrap();
        assert_eq!(reply, "ERR busy");

        // ...and the fourth in the binary protocol.
        let mut client = BinaryClient::connect(&addr).unwrap();
        let resp = client.query(Opcode::Stats, &[]).unwrap();
        assert_eq!(resp, Response::Busy);

        assert!(eventually(|| server.stats().shed == 2));
        // The held connections were never disturbed.
        let (reader, w) = &mut held[0];
        w.write_all(b"LOCATE 10.10.10.1\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn reload_swaps_generations_without_dropping_connections() {
        let server = QueryServer::spawn_with_workers(Arc::new(store()), 0, 2).unwrap();
        let addr = server.addr().to_string();

        // A long-lived connection established before the reload.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let line = |cmd: &str, reader: &mut BufReader<TcpStream>, w: &mut TcpStream| {
            w.write_all(format!("{cmd}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        assert!(line("LOCATE 10.10.10.1", &mut reader, &mut w).starts_with("OK 10.10.10.0/24"));

        // Swap in a one-entry snapshot mid-connection.
        let fresh = DatasetStore::from_entries(
            &[DatasetEntry {
                prefix: Prefix24(0x0B0B0B),
                location: GeoPoint::new(1.0, 2.0),
                evidence: Evidence::Whois,
            }],
            9,
            9,
        );
        assert_eq!(server.reload(Arc::new(fresh)), 2);
        assert_eq!(server.generation(), 2);

        // The same connection keeps working and now answers from the
        // new generation; STATS reports the swap.
        assert!(eventually(|| {
            line("LOCATE 11.11.11.1", &mut reader, &mut w).starts_with("OK 11.11.11.0/24")
        }));
        assert_eq!(
            line("LOCATE 10.10.10.1", &mut reader, &mut w),
            "MISS 10.10.10.1"
        );
        let stats_line = line("STATS", &mut reader, &mut w);
        assert!(stats_line.contains("entries=1"), "{stats_line}");
        assert!(stats_line.contains(" generation=2 "), "{stats_line}");
        server.shutdown();
    }

    #[test]
    fn manual_clock_evicts_idle_and_stalled_connections() {
        let (clock, handle): (ServeClock, ClockHandle) = ServeClock::manual();
        let config = ServeConfig {
            workers: 1,
            limits: ServeLimits {
                idle_timeout_ms: 100,
                read_timeout_ms: 40,
                ..ServeLimits::default()
            },
            clock,
            ..ServeConfig::default()
        };
        let server = QueryServer::spawn_with_config(Arc::new(store()), 0, config).unwrap();
        let addr = server.addr().to_string();

        // An idle line connection (mode decided, then silence)...
        let idle = TcpStream::connect(&addr).unwrap();
        let mut w = idle.try_clone().unwrap();
        w.write_all(b"LOCATE 10.10.10.1\n").unwrap();
        let mut reader = BufReader::new(idle);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK"), "{reply}");

        // ...and a slow-loris: a partial frame that never completes.
        let mut loris = TcpStream::connect(&addr).unwrap();
        loris
            .write_all(&[proto::REQ_MAGIC, proto::PROTO_VERSION])
            .unwrap();
        assert!(eventually(|| server.stats().live == 2));

        // Nothing is evicted while the clock stands still...
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(server.stats().evicted_total(), 0);

        // ...and both deadlines fire once it advances.
        handle.advance(150);
        assert!(eventually(|| {
            let s = server.stats();
            s.evicted_idle == 1 && s.evicted_stalled == 1
        }));
        // The idle connection got its typed farewell before the close.
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR evicted: idle-timeout");
        assert!(eventually(|| server.stats().live == 0));
        server.shutdown();
    }

    #[test]
    fn drain_shutdown_finishes_in_flight_then_exits() {
        let config = ServeConfig {
            workers: 2,
            limits: ServeLimits {
                drain_grace_ms: 500,
                ..ServeLimits::default()
            },
            ..ServeConfig::default()
        };
        let server = QueryServer::spawn_with_config(Arc::new(store()), 0, config).unwrap();
        let addr = server.addr().to_string();
        // An idle connection parked before the drain begins.
        let parked = TcpStream::connect(&addr).unwrap();
        let mut w = parked.try_clone().unwrap();
        w.write_all(b"LOCATE 10.10.10.1\n").unwrap();
        let mut reader = BufReader::new(parked);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("OK"), "{reply}");
        assert!(eventually(|| server.stats().live == 1));

        server.shutdown_drain();
        // The drained server closed the idle connection gracefully (EOF,
        // no farewell — it was not evicted).
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0);
        // And new connects are refused: the listener is gone.
        assert!(query_one(&addr, "STATS").is_err());
    }

    #[test]
    // Wall-clock promptness check, not simulation state.
    #[allow(clippy::disallowed_methods)]
    fn shutdown_is_prompt_with_an_idle_connection_parked() {
        let server = QueryServer::spawn_with_workers(Arc::new(store()), 0, 2).unwrap();
        let addr = server.addr().to_string();
        // Park a connection that never sends anything: the wake token
        // must still tear the server down without a dummy connection.
        let _idle = TcpStream::connect(&addr).unwrap();
        let started = std::time::Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "wake-token shutdown took {:?}",
            started.elapsed()
        );
    }
}
