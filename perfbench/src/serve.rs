//! The serve workloads: `geo-serve`'s `QueryServer` in-process with one
//! worker, driven by one client thread over one loopback connection, on a
//! 262,144-prefix snapshot tiled from the entries `publish` builds for the
//! seed, with all five evidence kinds.
//!
//! - `serve-zipf`: binary protocol, closed loop, 64 addresses per frame,
//!   8 frames in flight; keys follow zipf s=1.0 over the prefixes, so the
//!   hot set fits the server's 65,536-entry `HotCache`.
//! - `serve-line`: line-protocol `LOCATE`, one request in flight, uniform
//!   keys, cache filled before timing, so at most a quarter of queries hit.
//!
//! The snapshot is written by a child process (`perfbench
//! --write-serve-snapshot`), so this process never holds the generator's
//! entries and its peak resident set is the server's and the client's.
//!
//! Every answer is checked against `DatasetStore::lookup`. After the run an
//! in-process replay of the same request stream (decode → cache → store →
//! encode, no sockets) must reproduce the server's cache counters exactly;
//! the traced pass times the same replay's layer calls under spans.

use crate::trace::{SpanId, Tracer};
use crate::{median, memory_note, out_path, peak_rss_mb, publish, secs, Clocks, Outcome, Settings};
use geo_model::ip::{Ipv4, Prefix24};
use geo_model::rng::Seed;
use geo_serve::cache::{CacheCounters, CacheKind, CacheValue};
use geo_serve::proto::{
    encode_request, try_decode_request, try_decode_response, Decoded, LocateRecord, Opcode,
    Request, Response, ResponseWriter,
};
use geo_serve::{format, DatasetStore, HotCache, QueryServer};
use ipgeo::publish::{DatasetEntry, Evidence};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prefixes in the snapshot (2^18).
const PREFIXES: usize = 1 << 18;
/// Addresses per binary frame.
const BATCH: usize = 64;
/// Binary frames in flight.
const DEPTH: usize = 8;
/// Set-ups timed per run after one untimed warm-up; `setup_s` is their
/// median. The first opens of a process run slower than later ones.
const SETUP_REPEATS: usize = 5;
/// Binary frames sent before timing starts (zipf warm-up).
const ZIPF_WARM_FRAMES: u64 = 4096;
/// Lines sent, pipelined, before timing starts: 1.5× the cache capacity
/// of uniform keys fills every cache shard.
const LINE_FILL: u64 = 98_304;
/// Lines per pipelined batch during the fill.
const LINE_FILL_BATCH: usize = 512;
/// Measurement window: qps and p50 are medians over windows.
const WINDOW: Duration = Duration::from_millis(500);
/// Latency samples one window can hold; a window ends early when full.
const WINDOW_SAMPLES: usize = 1 << 16;
/// The traced replay: a fixed untraced warm-up, then a fixed traced
/// stretch of the same stream, in frames (zipf) or lines (line).
const ZIPF_REPLAY: (u64, u64) = (8192, 1024);
const LINE_REPLAY: (u64, u64) = (LINE_FILL, 16_384);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Zipf,
    Line,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Zipf => "serve-zipf",
            Mode::Line => "serve-line",
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs: the snapshot and the seeded request streams.

/// One entry in this many is re-expressed as each evidence kind the fused
/// tier does not publish (latency, DNS hint, WHOIS), so the snapshot
/// carries all five kinds the format and both protocols encode.
const RARE: usize = 100;

/// 2^18 distinct /24s spread over the address space: entry `i` is prefix
/// `i << 6 | r` for a random `r`. Entry `i` carries the location and the
/// evidence of entry `i mod n` of the `n` that `ipgeo publish --paper
/// --methods fused` publishes for the seed (each repeated about 51 times at
/// seed 42), so the mix of evidence kinds, hostnames and locations is the
/// program's own, except that 1% each becomes a latency entry (with the
/// fields of a published fused entry), a DNS-hint entry (with a published
/// hostname) and a WHOIS entry.
fn snapshot_entries(seed: u64) -> Vec<DatasetEntry> {
    let published = publish::published(seed);
    let latency: Vec<Evidence> = published
        .iter()
        .filter_map(|e| match e.evidence {
            Evidence::Fused {
                vps,
                best_rtt,
                best_vp,
                ..
            } => Some(Evidence::Latency {
                vps,
                best_rtt,
                best_vp,
            }),
            _ => None,
        })
        .collect();
    let hints: Vec<Evidence> = published
        .iter()
        .filter_map(|e| match &e.evidence {
            Evidence::Fused {
                hostname: Some(h), ..
            }
            | Evidence::DnsHint { hostname: h } => Some(Evidence::DnsHint {
                hostname: h.clone(),
            }),
            _ => None,
        })
        .collect();
    let mut rng = Seed(seed).derive("perfbench-snapshot").rng();
    (0..PREFIXES)
        .map(|i| {
            let from = &published[i % published.len()];
            let turn = i / RARE;
            let evidence = match (i % RARE, latency.is_empty(), hints.is_empty()) {
                (0, false, _) => latency[turn % latency.len()].clone(),
                (1, _, false) => hints[turn % hints.len()].clone(),
                (2, _, _) => Evidence::Whois,
                _ => from.evidence.clone(),
            };
            DatasetEntry {
                prefix: Prefix24((i as u32) << 6 | rng.gen_range(0..64u32)),
                location: from.location,
                evidence,
            }
        })
        .collect()
}

/// Shares of the five evidence kinds, in the `.igds` tag order, and the
/// share of fused entries that name a hostname.
fn evidence_mix(entries: &[DatasetEntry]) -> ([f64; 5], f64) {
    let mut kinds = [0usize; 5];
    let (mut fused, mut named) = (0usize, 0usize);
    for e in entries {
        kinds[usize::from(method_tag(&e.evidence))] += 1;
        if let Evidence::Fused { hostname, .. } = &e.evidence {
            fused += 1;
            named += usize::from(hostname.is_some());
        }
    }
    let n = entries.len().max(1) as f64;
    (
        kinds.map(|k| k as f64 / n),
        named as f64 / fused.max(1) as f64,
    )
}

/// Zipf ranks by Vose's alias method: rank r (weight r^-s) is drawn in
/// O(1) and returned as index r−1, so index 0 is the hottest key. A
/// constant-time draw keeps the client's per-frame cost well below the
/// server's.
struct ZipfAlias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl ZipfAlias {
    fn new(n: usize, s: f64) -> ZipfAlias {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| prob[i] < 1.0);
        while let (Some(&l), Some(sm)) = (large.last(), small.pop()) {
            alias[sm] = l as u32;
            prob[l] -= 1.0 - prob[sm];
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        ZipfAlias { prob, alias }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// The seeded query stream: zipf ranks over a shuffled prefix pool (rank r
/// is pool index r−1) or uniform picks, with a random host byte. Client
/// and replay each run their own copy.
struct KeyStream {
    rng: StdRng,
    pool: Arc<Vec<Prefix24>>,
    zipf: Option<Arc<ZipfAlias>>,
}

impl KeyStream {
    fn next(&mut self) -> Ipv4 {
        let idx = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.pool.len()),
        };
        self.pool[idx].host(self.rng.gen())
    }

    fn fill(&mut self, ips: &mut [Ipv4]) {
        for ip in ips {
            *ip = self.next();
        }
    }
}

struct Inputs {
    mode: Mode,
    seed: u64,
    pool: Arc<Vec<Prefix24>>,
    zipf: Option<Arc<ZipfAlias>>,
}

impl Inputs {
    /// The streams' inputs over the prefixes of the opened snapshot.
    fn new(mode: Mode, seed: u64, entries: &[DatasetEntry]) -> Inputs {
        let mut pool: Vec<Prefix24> = entries.iter().map(|e| e.prefix).collect();
        pool.shuffle(&mut Seed(seed).derive("perfbench-pool").rng());
        Inputs {
            mode,
            seed,
            pool: Arc::new(pool),
            zipf: (mode == Mode::Zipf).then(|| Arc::new(ZipfAlias::new(PREFIXES, 1.0))),
        }
    }

    fn stream(&self) -> KeyStream {
        KeyStream {
            rng: Seed(self.seed).derive(self.mode.name()).rng(),
            pool: Arc::clone(&self.pool),
            zipf: self.zipf.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// What a correct server answers.

/// The `.igds` evidence tag the binary protocol carries (documented in
/// `geo_serve::proto`: 0 geofeed, 1 DNS hint, 2 latency, 3 WHOIS, 4 fused).
fn method_tag(e: &Evidence) -> u8 {
    match e {
        Evidence::Geofeed => 0,
        Evidence::DnsHint { .. } => 1,
        Evidence::Latency { .. } => 2,
        Evidence::Whois => 3,
        Evidence::Fused { .. } => 4,
    }
}

/// The entry `DatasetStore::lookup` answers for `ip`, found by position:
/// the snapshot's prefix `i << 6 | r` is entry `i`. `check_positions`
/// proves this equals `lookup` for every key the streams draw; it keeps
/// the client's check O(1), so the client never paces the server.
fn entry_at(store: &DatasetStore, ip: Ipv4) -> Option<&DatasetEntry> {
    store
        .entries()
        .get((ip.0 >> 14) as usize)
        .filter(|e| e.prefix == ip.prefix24())
}

fn check_positions(store: &DatasetStore, pool: &[Prefix24]) -> bool {
    pool.iter().all(|p| {
        let ip = p.network();
        matches!((store.lookup(ip), entry_at(store, ip)), (Some(a), Some(b)) if std::ptr::eq(a, b))
    })
}

/// The binary record a correct server sends for `ip` given its entry.
fn record_of(entry: Option<&DatasetEntry>, ip: Ipv4) -> LocateRecord {
    match entry {
        Some(e) => LocateRecord {
            hit: true,
            prefix: e.prefix,
            lat_bits: e.location.lat().to_bits(),
            lon_bits: e.location.lon().to_bits(),
            method: method_tag(&e.evidence),
            distance: 0,
            confidence_bits: e.evidence.confidence().to_bits(),
        },
        None => LocateRecord::miss(ip),
    }
}

fn expected_line(store: &DatasetStore, ip: Ipv4) -> String {
    match entry_at(store, ip) {
        Some(e) => format!("OK {e}"),
        None => format!("MISS {ip}"),
    }
}

/// Answers equal to what `DatasetStore::lookup` gives, and answers that
/// differ (each a failed operation).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    right: u64,
    wrong: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        if ok {
            self.right += 1;
        } else {
            self.wrong += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Latency bookkeeping with fixed-size buffers.

/// Log-linear histogram (16 sub-buckets per power of two) over every
/// sample, for the tail percentile; fixed size.
struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; 64 * 16],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 16 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as usize;
        (e - 3) * 16 + ((ns >> (e - 4)) & 15) as usize
    }

    fn upper(b: usize) -> u64 {
        if b < 16 {
            return b as u64;
        }
        let (e, sub) = (b / 16 + 3, (b % 16) as u64);
        ((16 + sub + 1) << (e - 4)) - 1
    }

    fn add(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    /// The highest percentile with at least ten samples beyond it, and its
    /// value's bucket bound in µs.
    fn tail(&self) -> Option<(f64, f64)> {
        if self.n <= 10 {
            return None;
        }
        let rank = self.n - 10;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((
                    100.0 * rank as f64 / self.n as f64,
                    Self::upper(b) as f64 / 1e3,
                ));
            }
        }
        None
    }
}

/// Per-window medians: the run's qps and p50 are medians over windows, so
/// a short stall moves one window, not the result.
struct Windows {
    samples: Vec<f64>,
    started: Instant,
    queries: u64,
    qps: Vec<f64>,
    p50_us: Vec<f64>,
    hist: Histogram,
}

impl Windows {
    fn new() -> Windows {
        Windows {
            samples: Vec::with_capacity(WINDOW_SAMPLES),
            started: Instant::now(),
            queries: 0,
            qps: Vec::new(),
            p50_us: Vec::new(),
            hist: Histogram::new(),
        }
    }

    fn add(&mut self, now: Instant, latency: Duration, queries: u64) {
        self.samples.push(latency.as_secs_f64() * 1e6);
        self.hist.add(latency.as_nanos() as u64);
        self.queries += queries;
        if now.duration_since(self.started) >= WINDOW || self.samples.len() == WINDOW_SAMPLES {
            self.close(now);
        }
    }

    fn close(&mut self, now: Instant) {
        let span = now.duration_since(self.started).as_secs_f64();
        if !self.samples.is_empty() && span > 0.0 {
            self.qps.push(self.queries as f64 / span);
            self.p50_us.push(median(&self.samples));
        }
        self.samples.clear();
        self.queries = 0;
        self.started = now;
    }
}

// ---------------------------------------------------------------------------
// The socket run.

struct SocketRun {
    /// Frames (zipf) or lines (line) sent, warm-up included.
    requests: u64,
    attempted: u64,
    failed: u64,
    tally: Tally,
    windows: Windows,
    measured_s: f64,
    measured_queries: u64,
    errors: Vec<String>,
}

/// The client's end of the connection, nonblocking and polled in a spin
/// loop. A client that sleeps in `read` pays a virtual-CPU wake-up on
/// every reply; on a shared two-vCPU host that moved whole serve-zipf runs
/// by ±20%. Spinning keeps the client's wake-ups out of the measurement;
/// it holds one core, which the load budget gives the client anyway.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

/// A reply that takes longer than this is a failure, not a stall.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl Client {
    fn new(stream: TcpStream) -> Client {
        stream
            .set_nonblocking(true)
            .expect("nonblocking client socket");
        Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            chunk: vec![0u8; 1 << 16],
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut off = 0;
        let since = Instant::now();
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(0) => return Err("server stopped reading".into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait(since)?,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads at least one more byte into the buffer.
    fn fill(&mut self) -> Result<(), String> {
        let since = Instant::now();
        loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => wait(since)?,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn frame(&mut self) -> Result<Response, String> {
        loop {
            match try_decode_response(&self.buf) {
                Ok(Decoded::Frame(resp, used)) => {
                    self.buf.drain(..used);
                    return Ok(resp);
                }
                Ok(Decoded::NeedMore) => self.fill()?,
                Err(e) => return Err(format!("bad response frame: {e}")),
            }
        }
    }

    /// The next reply line, without its newline, into `line`.
    fn line(&mut self, line: &mut String) -> Result<(), String> {
        loop {
            if let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
                line.clear();
                line.push_str(&String::from_utf8_lossy(&self.buf[..end]));
                self.buf.drain(..=end);
                return Ok(());
            }
            self.fill()?;
        }
    }
}

fn wait(since: Instant) -> Result<(), String> {
    if since.elapsed() > REPLY_TIMEOUT {
        return Err(format!("no progress for {} s", REPLY_TIMEOUT.as_secs()));
    }
    std::hint::spin_loop();
    Ok(())
}

fn zipf_run(client: &mut Client, store: &DatasetStore, inputs: &Inputs, seconds: f64) -> SocketRun {
    let mut keys = inputs.stream();
    let mut run = SocketRun {
        requests: 0,
        attempted: 0,
        failed: 0,
        tally: Tally::default(),
        windows: Windows::new(),
        measured_s: 0.0,
        measured_queries: 0,
        errors: Vec::new(),
    };
    let mut inflight: VecDeque<(Instant, [Ipv4; BATCH])> = VecDeque::with_capacity(DEPTH);
    let mut frame = Vec::with_capacity(BATCH * 4 + 16);
    let mut send = |client: &mut Client, inflight: &mut VecDeque<_>, run: &mut SocketRun| {
        let mut ips = [Ipv4(0); BATCH];
        keys.fill(&mut ips);
        frame.clear();
        encode_request(&mut frame, Opcode::Locate, &ips).expect("frame within budget");
        inflight.push_back((Instant::now(), ips));
        run.requests += 1;
        run.attempted += BATCH as u64;
        client.send(&frame)
    };
    let mut timing: Option<Instant> = None;
    let mut deadline = None;
    for _ in 0..DEPTH {
        if let Err(e) = send(client, &mut inflight, &mut run) {
            run.errors.push(e);
        }
    }
    while let Some((sent, ips)) = inflight.pop_front() {
        let resp = match client.frame() {
            Ok(r) => r,
            Err(e) => {
                run.errors.push(e);
                run.failed += BATCH as u64 * (1 + inflight.len() as u64);
                break;
            }
        };
        let now = Instant::now();
        if let Some(t0) = timing {
            if sent >= t0 && deadline.is_some_and(|d| sent < d) {
                run.windows.add(now, now - sent, BATCH as u64);
                run.measured_queries += BATCH as u64;
                run.measured_s = (now - t0).as_secs_f64();
            }
        } else if run.requests >= ZIPF_WARM_FRAMES {
            timing = Some(now);
            deadline = Some(now + Duration::from_secs_f64(seconds));
            run.windows = Windows::new();
        }
        // Refill the window first, so checking this answer overlaps the
        // server's work on the frames still in flight.
        if deadline.is_none_or(|d| now < d) {
            if let Err(e) = send(client, &mut inflight, &mut run) {
                run.errors.push(e);
                break;
            }
        }
        match resp {
            Response::Records { records, .. } if records.len() == BATCH => {
                for (rec, ip) in records.iter().zip(&ips) {
                    run.tally
                        .record(*rec == record_of(entry_at(store, *ip), *ip));
                }
            }
            other => {
                run.failed += BATCH as u64;
                run.errors.push(format!("unexpected response {other:?}"));
            }
        }
    }
    run.failed += run.tally.wrong;
    run
}

fn line_run(client: &mut Client, store: &DatasetStore, inputs: &Inputs, seconds: f64) -> SocketRun {
    let mut keys = inputs.stream();
    let mut run = SocketRun {
        requests: 0,
        attempted: 0,
        failed: 0,
        tally: Tally::default(),
        windows: Windows::new(),
        measured_s: 0.0,
        measured_queries: 0,
        errors: Vec::new(),
    };
    let mut out = Vec::with_capacity(LINE_FILL_BATCH * 32);
    let mut line = String::with_capacity(256);
    let mut ips = Vec::with_capacity(LINE_FILL_BATCH);
    let check = |got: &str, ip: Ipv4, run: &mut SocketRun| {
        let ok = got == expected_line(store, ip);
        run.tally.record(ok);
        if !ok && run.errors.len() < 8 {
            run.errors.push(format!("LOCATE {ip} answered `{got}`"));
        }
    };
    let read = |client: &mut Client, line: &mut String, run: &mut SocketRun| -> bool {
        match client.line(line) {
            Ok(()) => true,
            Err(e) => {
                run.errors.push(e);
                run.failed += 1;
                false
            }
        }
    };
    // Pipelined fill, checked like every other answer.
    let mut filled = 0;
    while filled < LINE_FILL {
        let n = LINE_FILL_BATCH.min((LINE_FILL - filled) as usize);
        out.clear();
        ips.clear();
        for _ in 0..n {
            let ip = keys.next();
            ips.push(ip);
            writeln!(out, "LOCATE {ip}").expect("write to a Vec");
        }
        run.requests += n as u64;
        run.attempted += n as u64;
        if let Err(e) = client.send(&out) {
            run.errors.push(e);
            run.failed += n as u64;
            return run;
        }
        for &ip in &ips {
            if !read(client, &mut line, &mut run) {
                return run;
            }
            check(&line, ip, &mut run);
        }
        filled += n as u64;
    }
    // One line in flight. Each answer is checked after the next request
    // is sent, so the check overlaps the server's work.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    run.windows = Windows::new();
    let mut previous = String::with_capacity(256);
    let mut unchecked: Option<Ipv4> = None;
    loop {
        let ip = keys.next();
        out.clear();
        writeln!(out, "LOCATE {ip}").expect("write to a Vec");
        let sent = Instant::now();
        run.requests += 1;
        run.attempted += 1;
        if let Err(e) = client.send(&out) {
            run.errors.push(e);
            run.failed += 1;
            break;
        }
        if let Some(prev) = unchecked.take() {
            check(&previous, prev, &mut run);
        }
        if !read(client, &mut line, &mut run) {
            break;
        }
        let now = Instant::now();
        run.windows.add(now, now - sent, 1);
        run.measured_queries += 1;
        std::mem::swap(&mut previous, &mut line);
        unchecked = Some(ip);
        if now >= deadline {
            run.measured_s = (now - t0).as_secs_f64();
            break;
        }
    }
    if let Some(prev) = unchecked {
        check(&previous, prev, &mut run);
    }
    run.failed += run.tally.wrong;
    run
}

// ---------------------------------------------------------------------------
// The in-process replay: the server's per-request call sequence.

/// Counts of one replay.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayCounts {
    queries: u64,
    requests: u64,
    lookups: u64,
    formats: u64,
    cache_calls: u64,
}

fn span<T>(tr: Option<&Tracer>, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.span(name, parent, |_| f()),
        None => f(),
    }
}

/// What `QueryServer` does for one binary LOCATE frame.
fn replay_frame(
    tr: Option<&Tracer>,
    parent: SpanId,
    frame: &[u8],
    cache: &HotCache,
    store: &DatasetStore,
    out: &mut Vec<u8>,
    c: &mut ReplayCounts,
) {
    let req = span(tr, "geo-serve.proto.decode", parent, || {
        try_decode_request(frame)
    });
    let Ok(Decoded::Frame(Request::Locate(ips), _)) = req else {
        panic!("the replay encodes only whole LOCATE frames");
    };
    let mut records = [LocateRecord::miss(Ipv4(0)); BATCH];
    for (slot, &ip) in records.iter_mut().zip(&ips) {
        let prefix = ip.prefix24().0;
        c.cache_calls += 1;
        let cached = span(tr, "geo-serve.cache", parent, || {
            cache.get(CacheKind::BinLocate, prefix)
        });
        *slot = match cached {
            Some(CacheValue::Record(rec)) => rec,
            _ => {
                c.lookups += 1;
                c.cache_calls += 1;
                let rec = span(tr, "geo-serve.store", parent, || {
                    record_of(store.lookup(ip), ip)
                });
                span(tr, "geo-serve.cache", parent, || {
                    cache.put(CacheKind::BinLocate, prefix, CacheValue::Record(rec));
                });
                rec
            }
        };
    }
    span(tr, "geo-serve.proto.encode", parent, || {
        let w = ResponseWriter::begin(out, Opcode::Locate);
        for rec in &records[..ips.len()] {
            w.push_record(out, rec);
        }
        w.finish(out);
    });
    c.queries += ips.len() as u64;
    c.requests += 1;
}

/// What `QueryServer` does for one `LOCATE <ip>` line.
fn replay_line(
    tr: Option<&Tracer>,
    parent: SpanId,
    line: &str,
    cache: &HotCache,
    store: &DatasetStore,
    out: &mut Vec<u8>,
    c: &mut ReplayCounts,
) {
    let parsed = span(tr, "geo-serve.proto.decode", parent, || {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("LOCATE"), Some(ip), None) => ip.parse::<Ipv4>().ok(),
            _ => None,
        }
    });
    let ip = parsed.expect("the replay sends only well-formed LOCATE lines");
    let prefix = ip.prefix24().0;
    c.cache_calls += 1;
    let cached = span(tr, "geo-serve.cache", parent, || {
        cache.get(CacheKind::LineLocate, prefix)
    });
    if let Some(CacheValue::Line(reply)) = cached {
        out.extend_from_slice(reply.as_bytes());
    } else {
        c.lookups += 1;
        let entry = span(tr, "geo-serve.store", parent, || store.lookup(ip));
        let reply = match entry {
            Some(e) => {
                c.formats += 1;
                let reply = span(tr, "geo-serve.line.format", parent, || format!("OK {e}"));
                c.cache_calls += 1;
                span(tr, "geo-serve.cache", parent, || {
                    cache.put(
                        CacheKind::LineLocate,
                        prefix,
                        CacheValue::Line(reply.as_str().into()),
                    );
                });
                reply
            }
            None => format!("MISS {ip}"),
        };
        out.extend_from_slice(reply.as_bytes());
    }
    out.push(b'\n');
    c.queries += 1;
    c.requests += 1;
}

/// Regenerates the client's request stream and runs each request through
/// the server's call sequence.
struct Replayer<'a> {
    mode: Mode,
    keys: KeyStream,
    store: &'a DatasetStore,
    req: Vec<u8>,
    line: String,
    out: Vec<u8>,
    ips: [Ipv4; BATCH],
    counts: ReplayCounts,
}

impl<'a> Replayer<'a> {
    fn new(inputs: &Inputs, store: &'a DatasetStore) -> Replayer<'a> {
        Replayer {
            mode: inputs.mode,
            keys: inputs.stream(),
            store,
            req: Vec::with_capacity(BATCH * 4 + 16),
            line: String::with_capacity(32),
            out: Vec::with_capacity(1 << 12),
            ips: [Ipv4(0); BATCH],
            counts: ReplayCounts::default(),
        }
    }

    /// Replays the next `n` requests into `cache`. Returns the seconds
    /// spent in the server's call sequence, which excludes generating the
    /// requests; traced, each request is a `query` span under `root`.
    fn run(&mut self, n: u64, cache: &HotCache, tr: Option<(&Tracer, SpanId)>) -> f64 {
        let mut busy = Duration::ZERO;
        for _ in 0..n {
            match self.mode {
                Mode::Zipf => {
                    self.keys.fill(&mut self.ips);
                    self.req.clear();
                    encode_request(&mut self.req, Opcode::Locate, &self.ips)
                        .expect("frame within budget");
                }
                Mode::Line => {
                    self.line.clear();
                    let ip = self.keys.next();
                    std::fmt::Write::write_fmt(&mut self.line, format_args!("LOCATE {ip}"))
                        .expect("write to a String");
                }
            }
            self.out.clear();
            let t = Instant::now();
            match tr {
                Some((tracer, root)) => {
                    tracer.span("query", root, |q| self.serve(Some(tracer), q, cache))
                }
                None => self.serve(None, SpanId::ROOT, cache),
            }
            busy += t.elapsed();
            std::hint::black_box(&self.out);
        }
        busy.as_secs_f64()
    }

    fn serve(&mut self, tr: Option<&Tracer>, parent: SpanId, cache: &HotCache) {
        match self.mode {
            Mode::Zipf => replay_frame(
                tr,
                parent,
                &self.req,
                cache,
                self.store,
                &mut self.out,
                &mut self.counts,
            ),
            Mode::Line => replay_line(
                tr,
                parent,
                &self.line,
                cache,
                self.store,
                &mut self.out,
                &mut self.counts,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// The workload.

struct Served {
    store: Arc<DatasetStore>,
    server: QueryServer,
    client: Client,
    setups: Vec<f64>,
    opens: Vec<f64>,
}

fn set_up(path: &Path) -> Served {
    // One untimed open first: a process's first opens run slower.
    drop(DatasetStore::open(path).expect("snapshot opens"));
    let (mut setups, mut opens) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, stream, store)) = last.take() {
            drop((stream, store));
            QueryServer::shutdown(server);
        }
        let t = Instant::now();
        let store = Arc::new(DatasetStore::open(path).expect("snapshot opens"));
        opens.push(secs(t));
        let server =
            QueryServer::spawn_with_workers(Arc::clone(&store), 0, 1).expect("server spawns");
        let stream = TcpStream::connect(server.addr()).expect("server accepts");
        stream.set_nodelay(true).expect("nodelay");
        setups.push(secs(t));
        last = Some((server, stream, store));
    }
    let (server, stream, store) = last.expect("at least one set-up");
    Served {
        store,
        server,
        client: Client::new(stream),
        setups,
        opens,
    }
}

fn socket_run(mode: Mode, served: &mut Served, inputs: &Inputs, seconds: f64) -> SocketRun {
    match mode {
        Mode::Zipf => zipf_run(&mut served.client, &served.store, inputs, seconds),
        Mode::Line => line_run(&mut served.client, &served.store, inputs, seconds),
    }
}

/// Checks the server's counters after a run: no protocol errors, no
/// evictions, no shedding, and a replay of the requests it served, through
/// the same `Replayer` the traced pass times, that reproduces its cache
/// counters and its query count exactly.
fn check_server(
    served: &Served,
    run: &SocketRun,
    inputs: &Inputs,
    out: &mut Outcome,
) -> CacheCounters {
    let stats = served.server.stats();
    let errors = stats.proto_errors + stats.evicted_total() + stats.shed;
    out.check(errors == 0, || {
        format!("server counted {errors} errors, evictions or sheds")
    });
    let server_cache = served.server.cache_stats();
    let (t, cache) = (Instant::now(), HotCache::new());
    let mut replay = Replayer::new(inputs, &served.store);
    replay.run(run.requests, &cache, None);
    out.note(format!(
        "check: replayed {} requests in {:.2} s",
        run.requests,
        secs(t)
    ));
    let replayed = cache.counters();
    out.check(replayed == server_cache, || {
        format!("replay cache {replayed:?} differs from the server's {server_cache:?}")
    });
    let queries = replay.counts.queries;
    out.check(queries == stats.queries(), || {
        format!(
            "server answered {} queries, the replay of the client's stream has {queries}",
            stats.queries()
        )
    });
    server_cache
}

/// The flag that makes `perfbench` write a serve snapshot and exit:
/// `perfbench --write-serve-snapshot <seed> <path>`.
pub const SNAPSHOT_FLAG: &str = "--write-serve-snapshot";

/// Entry point of the child process that writes the snapshot.
pub fn write_snapshot_main(args: &[String]) -> ExitCode {
    let [seed, path] = args else {
        eprintln!("usage: perfbench {SNAPSHOT_FLAG} <seed> <path>");
        return ExitCode::from(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("bad seed `{seed}`");
        return ExitCode::from(2);
    };
    match format::save(Path::new(path), &snapshot_entries(seed), seed, 1) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn snapshot_path(mode: Mode, seed: u64) -> PathBuf {
    out_path(&format!("{}-seed{seed}.igds", mode.name()))
}

/// Writes the snapshot in a child process of this program and waits for
/// it to end; this process then only opens the file.
fn write_snapshot(s: &Settings, mode: Mode) -> Result<PathBuf, String> {
    let path = snapshot_path(mode, s.seed);
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let status = Command::new(exe)
        .arg(SNAPSHOT_FLAG)
        .arg(s.seed.to_string())
        .arg(&path)
        .status()
        .map_err(|e| format!("starting the snapshot writer: {e}"))?;
    if !status.success() {
        return Err(format!("the snapshot writer exited with {status}"));
    }
    Ok(path)
}

pub fn run(mode: Mode, s: &Settings) -> Outcome {
    let mut out = Outcome::new();
    let path = match write_snapshot(s, mode) {
        Ok(path) => path,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let mut served = set_up(&path);
    let inputs = Inputs::new(mode, s.seed, served.store.entries());
    out.check(check_positions(&served.store, &inputs.pool), || {
        "a snapshot prefix is not at the position the client checks against".into()
    });
    let clocks = Clocks::now();
    let run = socket_run(mode, &mut served, &inputs, s.seconds);
    let clocks = clocks.since();
    // Before the check's replay, whose cache is the benchmark's own.
    let (rss_mb, memory) = (peak_rss_mb(), memory_note());
    for e in &run.errors {
        out.check(false, || e.clone());
    }
    out.attempted = run.attempted;
    out.failed = run.failed;
    let server_cache = check_server(&served, &run, &inputs, &mut out);
    let qps = median(&run.windows.qps);
    if s.trace {
        traced(mode, s, &served, &inputs, qps, &mut out);
    } else {
        out.set("setup_s", median(&served.setups));
        out.set("build_s", median(&served.opens));
        // An answer equal to the store's is 0 km from it; a wrong answer
        // counts as outside 40 km.
        out.set(
            "city_frac",
            run.tally.right as f64 / (run.tally.right + run.tally.wrong).max(1) as f64,
        );
        out.set("qps", qps);
        out.set("p50_us", median(&run.windows.p50_us));
        out.set("rss_mb", rss_mb);
    }
    out.note(format!(
        "setup_s samples={} {:?}",
        served.setups.len(),
        served.setups
    ));
    let (kinds, named) = evidence_mix(served.store.entries());
    out.note(format!(
        "snapshot: {} entries, evidence geofeed/dns/latency/whois/fused = {:.4}/{:.4}/{:.4}/{:.4}/{:.4}, \
         {named:.4} of fused entries name a hostname",
        served.store.len(),
        kinds[0],
        kinds[1],
        kinds[2],
        kinds[3],
        kinds[4]
    ));
    out.note(format!(
        "p50_us: median of {} windows of {} ms over {} {} latencies; qps over {} queries in {:.3} s",
        run.windows.p50_us.len(),
        WINDOW.as_millis(),
        run.windows.hist.n,
        if mode == Mode::Zipf { "frame" } else { "line" },
        run.measured_queries,
        run.measured_s
    ));
    out.note(format!(
        "socket run: process cpu {:.2} s, host steal {:.2} s; {memory}",
        clocks.cpu_s, clocks.steal_s
    ));
    if let Some((pct, us)) = run.windows.hist.tail() {
        out.note(format!(
            "tail: p{pct:.4} <= {us:.1} us ({} samples, 10 beyond)",
            run.windows.hist.n
        ));
    }
    out.note(format!(
        "server cache: {} hits, {} misses, {} evictions (hit rate {:.4})",
        server_cache.hits,
        server_cache.misses,
        server_cache.evictions,
        server_cache.hit_rate()
    ));
    QueryServer::shutdown(served.server);
    out
}

/// The traced pass: the fixed replay window, untraced then traced, each on
/// a fresh cache warmed by the same untraced prefix of the stream.
fn traced(
    mode: Mode,
    s: &Settings,
    served: &Served,
    inputs: &Inputs,
    socket_qps: f64,
    out: &mut Outcome,
) {
    let (warm, count) = match mode {
        Mode::Zipf => ZIPF_REPLAY,
        Mode::Line => LINE_REPLAY,
    };
    let plain_cache = HotCache::new();
    let mut plain = Replayer::new(inputs, &served.store);
    plain.run(warm, &plain_cache, None);
    plain.counts = ReplayCounts::default();
    let plain_s = plain.run(count, &plain_cache, None);

    let tr = Tracer::new(s.seed);
    let cache = HotCache::new();
    let mut traced = Replayer::new(inputs, &served.store);
    traced.run(warm, &cache, None);
    let warmed = cache.counters();
    traced.counts = ReplayCounts::default();
    let (root, traced_s) = tr.span("replay", SpanId::ROOT, |root| {
        (root, traced.run(count, &cache, Some((&tr, root))))
    });
    let counts = traced.counts;
    let after = cache.counters();
    let times = tr.self_times(root);
    let t = |name: &str| times.get(name).copied().unwrap_or(0.0);
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v * 1e9 / n as f64 };
    out.set(
        "geo-serve.proto.decode_ns",
        per(t("geo-serve.proto.decode"), counts.requests),
    );
    out.set(
        "geo-serve.proto.encode_ns",
        per(t("geo-serve.proto.encode"), counts.queries),
    );
    out.set(
        "geo-serve.cache.ns",
        per(t("geo-serve.cache"), counts.cache_calls),
    );
    out.set(
        "geo-serve.store.lookup_ns",
        per(t("geo-serve.store"), counts.lookups),
    );
    out.set(
        "geo-serve.line.format_ns",
        per(t("geo-serve.line.format"), counts.formats),
    );
    let window = CacheCounters {
        hits: after.hits - warmed.hits,
        misses: after.misses - warmed.misses,
        evictions: after.evictions - warmed.evictions,
    };
    out.set("geo-serve.cache.hit_rate", window.hit_rate());
    out.set("geo-serve.cache.evictions", window.evictions as f64);
    out.set("geo-serve.store.lookups", counts.lookups as f64);
    let replay_ns = plain_s * 1e9 / plain.counts.queries.max(1) as f64;
    out.set("geo-serve.server.socket_ns", 1e9 / socket_qps - replay_ns);
    let stats = served.server.stats();
    out.set(
        "geo-serve.server.errors",
        (stats.proto_errors + stats.evicted_total() + stats.shed) as f64,
    );
    let covered: f64 = [
        "geo-serve.proto.decode",
        "geo-serve.proto.encode",
        "geo-serve.cache",
        "geo-serve.store",
        "geo-serve.line.format",
    ]
    .iter()
    .map(|n| t(n))
    .sum();
    // Per-query time is what the `query` spans cover; generating the
    // stream (the replay root's own time) is the client's work.
    out.set("trace.residual", t("query") / (t("query") + covered));
    out.set("trace.overhead", traced_s / plain_s - 1.0);
    out.set("geo-serve.format.open_s", median(&served.opens));
    out.set(
        "geo-serve.format.bytes",
        std::fs::metadata(snapshot_path(mode, s.seed)).map_or(0.0, |m| m.len() as f64),
    );
    out.note(format!(
        "replay of {count} {} after {warm} untraced: {:.1} ns/query untraced, {:.1} traced; \
         socket {:.1} ns/query; {} spans",
        if mode == Mode::Zipf {
            "frames"
        } else {
            "lines"
        },
        replay_ns,
        traced_s * 1e9 / counts.queries.max(1) as f64,
        1e9 / socket_qps,
        tr.len()
    ));
    for (name, v) in &times {
        out.note(format!("self time {name} = {v:.6} s"));
    }
    let path = out_path(&format!("trace-{}-seed{}.jsonl", mode.name(), s.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_one_is_pool_index_zero() {
        let n = 1 << 12;
        let z = ZipfAlias::new(n, 1.0);
        let mut rng = Seed(631).rng();
        let mut counts = vec![0u32; n];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for (idx, want) in [
            (0, 1.0 / harmonic),
            (1, 0.5 / harmonic),
            (9, 0.1 / harmonic),
        ] {
            let got = f64::from(counts[idx]) / f64::from(draws);
            assert!(
                (got - want).abs() < want * 0.05,
                "index {idx}: {got} vs {want}"
            );
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn histogram_bucket_bounds_cover_their_values() {
        for ns in [0u64, 7, 15, 16, 17, 100, 1_000, 123_456, 9_999_999] {
            let b = Histogram::bucket(ns);
            assert!(Histogram::upper(b) >= ns, "{ns} in bucket {b}");
            assert!(
                b == 0 || Histogram::upper(b - 1) < ns,
                "{ns} below bucket {b}"
            );
        }
    }
}
