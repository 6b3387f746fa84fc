//! The binary pipelined query protocol (IGQP — Internet Geolocation
//! Query Protocol).
//!
//! The line protocol costs one text round-trip per query; serving heavy
//! traffic needs batched queries and pipelined frames. An IGQP frame is
//! length-prefixed, versioned, and checksummed the same way `.igds`
//! snapshots are (FNV-1a over every preceding frame byte):
//!
//! ```text
//! request frame
//!   magic      u8        0xB7 (never a printable ASCII command byte,
//!                         so one connection can speak either protocol:
//!                         the first byte picks the mode)
//!   version    u8        protocol revision (currently 3)
//!   opcode     u8        1 = LOCATE, 2 = NEAREST, 3 = STATS
//!   reserved   u8        0
//!   body_len   u32 LE    payload bytes (≤ MAX_BODY)
//!   body                 LOCATE/NEAREST: body_len/4 × u32 LE addresses
//!                        STATS: empty
//!   checksum   u64 LE    FNV-1a over every byte above
//!
//! response frame
//!   magic      u8        0xB8
//!   version    u8        3
//!   opcode     u8        echo of the request opcode
//!   status     u8        0 = ok, 1 = error (body is a UTF-8 message),
//!                        2 = busy (server shedding load; empty body,
//!                        connection closes after the frame)
//!   body_len   u32 LE
//!   body                 LOCATE/NEAREST: body_len/34 × record
//!                        STATS: 10 × u64 LE (entries, hits, misses,
//!                        connections, generation, live, shed,
//!                        evicted, proto_errors, reload_failed)
//!   checksum   u64 LE    FNV-1a over every byte above
//!
//! location record (34 bytes)
//!   hit        u8        1 = served from the dataset, 0 = miss
//!   prefix     u32 LE    the answering /24 (the queried /24 on a miss)
//!   lat        u64 LE    f64 bit pattern (0 on a miss)
//!   lon        u64 LE    f64 bit pattern (0 on a miss)
//!   method     u8        `.igds` evidence tag (0..=4; 0 on a miss)
//!   distance   u32 LE    /24 steps to the answer (NEAREST; 0 exact)
//!   confidence u64 LE    f64 bit pattern of the entry's confidence
//!                        (fused entries carry their fusion score,
//!                        legacy entries their class prior; 0 on a miss)
//! ```
//!
//! Protocol revision 2 widened the record with the confidence column;
//! revision 3 widened the STATS body with the robustness counters
//! (generation, live, shed, evicted, proto_errors, reload_failed) so
//! binary ops tooling observes shedding and evictions with the same
//! fidelity as the text `STATS` line. Older-revision frames are
//! rejected with `BadVersion`.
//!
//! Responses to a batch preserve query order, one record per queried
//! address; frames on one connection are answered in arrival order. Both
//! facts together make the response byte stream a pure function of
//! (snapshot, request stream), independent of worker count, connection
//! interleaving, or pipelining depth — determinism lives in the
//! *responses*, never in the scheduling.
//!
//! The decoder trusts nothing: magic, version, opcode, the reserved
//! byte, a hard `body_len` budget (a hostile length field cannot force
//! an allocation), record-size divisibility, and the trailing checksum
//! are all validated with typed [`ProtoError`]s — no panics on any byte
//! soup, property-tested the same way `.igds` decode is.

use crate::format::fnv1a;
use geo_model::ip::{Ipv4, Prefix24};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// First byte of every request frame.
pub const REQ_MAGIC: u8 = 0xB7;
/// First byte of every response frame.
pub const RESP_MAGIC: u8 = 0xB8;
/// Current protocol revision (3: robustness counters in the STATS body;
/// 2 added the confidence column in location records).
pub const PROTO_VERSION: u8 = 3;
/// Fixed byte length of a frame header (either direction).
pub const HEADER_LEN: usize = 8;
/// Byte length of the trailing checksum.
pub const CHECKSUM_LEN: usize = 8;
/// Hard upper bound on a frame body. A LOCATE batch tops out at
/// `MAX_BODY / 4` addresses; anything claiming more is rejected before
/// any allocation happens.
pub const MAX_BODY: usize = 256 * 1024;
/// Byte length of one location record in a response body.
pub const RECORD_LEN: usize = 34;
/// Byte length of a STATS response body (10 × u64 LE).
pub const STATS_BODY_LEN: usize = 80;
/// Response status byte: the request was answered.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the frame was rejected (body is the message).
pub const STATUS_ERROR: u8 = 1;
/// Response status byte: the server is at its connection cap and is
/// shedding this connection. The body is empty and the server closes
/// the connection right after the frame.
pub const STATUS_BUSY: u8 = 2;

/// Frame opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Exact-`/24` batch lookup.
    Locate = 1,
    /// Nearest-covering-prefix batch lookup.
    Nearest = 2,
    /// Server counters.
    Stats = 3,
}

impl Opcode {
    fn from_byte(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Locate),
            2 => Some(Opcode::Nearest),
            3 => Some(Opcode::Stats),
            _ => None,
        }
    }
}

/// Everything that can be wrong with a frame. Every variant is a typed
/// error the server answers (or closes on) without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first byte is not the expected frame magic.
    BadMagic(u8),
    /// Unsupported protocol revision.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// The reserved header byte is not zero.
    BadReserved(u8),
    /// `body_len` exceeds [`MAX_BODY`].
    BodyTooLarge {
        /// Claimed body length.
        claimed: usize,
    },
    /// The body length is not valid for the opcode (not a multiple of
    /// the record size, or non-empty for STATS).
    BadBodyLen {
        /// The opcode whose body is malformed.
        opcode: u8,
        /// Claimed body length.
        body_len: usize,
    },
    /// The frame does not hash to its trailing checksum.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum of the frame as read.
        computed: u64,
    },
    /// A response status byte outside the known set (ok/error/busy).
    BadStatus(u8),
    /// A response error message is not valid UTF-8.
    BadUtf8,
    /// A record's hit byte is neither 0 nor 1.
    BadHitByte(u8),
    /// A record's prefix uses more than 24 bits.
    BadPrefix(u32),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic(b) => write!(f, "not an IGQP frame (first byte {b:#04x})"),
            ProtoError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported IGQP version {v} (supported: {PROTO_VERSION})"
                )
            }
            ProtoError::BadOpcode(o) => {
                write!(f, "unknown opcode {o} (LOCATE=1 NEAREST=2 STATS=3)")
            }
            ProtoError::BadReserved(b) => write!(f, "reserved header byte is {b:#04x}, not 0"),
            ProtoError::BodyTooLarge { claimed } => {
                write!(
                    f,
                    "frame body of {claimed} bytes exceeds the {MAX_BODY}-byte budget"
                )
            }
            ProtoError::BadBodyLen { opcode, body_len } => {
                write!(
                    f,
                    "body of {body_len} bytes is malformed for opcode {opcode}"
                )
            }
            ProtoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt frame: checksum {computed:016x}, frame says {stored:016x}"
            ),
            ProtoError::BadStatus(s) => {
                write!(f, "response status {s} is not ok/error/busy")
            }
            ProtoError::BadUtf8 => write!(f, "error message is not UTF-8"),
            ProtoError::BadHitByte(b) => write!(f, "record hit byte {b} is neither 0 nor 1"),
            ProtoError::BadPrefix(p) => write!(f, "record prefix {p:#x} exceeds 24 bits"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Exact-`/24` lookups, answered in order.
    Locate(Vec<Ipv4>),
    /// Nearest-covering-prefix lookups, answered in order.
    Nearest(Vec<Ipv4>),
    /// Server counters.
    Stats,
}

/// One location answer in a response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocateRecord {
    /// True when the dataset answered (exact or nearest).
    pub hit: bool,
    /// The answering prefix (the queried `/24` on a miss).
    pub prefix: Prefix24,
    /// Latitude bit pattern (0 on a miss).
    pub lat_bits: u64,
    /// Longitude bit pattern (0 on a miss).
    pub lon_bits: u64,
    /// `.igds` evidence tag (0 on a miss).
    pub method: u8,
    /// Distance to the answer in /24 steps (0 for exact hits).
    pub distance: u32,
    /// Confidence bit pattern of the answering entry (0 on a miss).
    pub confidence_bits: u64,
}

impl LocateRecord {
    /// The canonical miss record for a queried address.
    pub fn miss(queried: Ipv4) -> LocateRecord {
        LocateRecord {
            hit: false,
            prefix: queried.prefix24(),
            lat_bits: 0,
            lon_bits: 0,
            method: 0,
            distance: 0,
            confidence_bits: 0,
        }
    }

    /// Latitude in degrees.
    pub fn lat(&self) -> f64 {
        f64::from_bits(self.lat_bits)
    }

    /// Longitude in degrees.
    pub fn lon(&self) -> f64 {
        f64::from_bits(self.lon_bits)
    }

    /// Confidence in `[0, 1]` (0 on a miss).
    pub fn confidence(&self) -> f64 {
        f64::from_bits(self.confidence_bits)
    }
}

/// Server counters as carried by a STATS response. Revision 3 carries
/// every monotonic counter the text `STATS` line reports (wall-clock
/// derived figures — uptime, qps — are deliberately text-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRecord {
    /// Prefixes in the served snapshot.
    pub entries: u64,
    /// Queries answered from the store.
    pub hits: u64,
    /// Queries with no covering entry.
    pub misses: u64,
    /// Connections accepted so far.
    pub connections: u64,
    /// Live snapshot generation number (increments on every reload).
    pub generation: u64,
    /// Connections currently registered.
    pub live: u64,
    /// Connections answered `BUSY` over a connection cap.
    pub shed: u64,
    /// Forced closes, all eviction reasons summed.
    pub evicted: u64,
    /// Malformed binary frames answered with a typed error.
    pub proto_errors: u64,
    /// Background `RELOAD` loads that failed (generation unchanged).
    pub reload_failed: u64,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ordered location answers to a LOCATE/NEAREST batch.
    Records {
        /// The echoed request opcode.
        opcode: Opcode,
        /// One record per queried address, in query order.
        records: Vec<LocateRecord>,
    },
    /// Counters answering STATS.
    Stats(StatsRecord),
    /// The server rejected the frame.
    Error(String),
    /// The server is shedding load; the connection closes after this.
    Busy,
}

/// Outcome of decoding a byte buffer that may hold a partial frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded<T> {
    /// A complete frame and the number of bytes it consumed.
    Frame(T, usize),
    /// The buffer holds a valid prefix of a frame; read more bytes.
    NeedMore,
}

// geo-lint: allow(R1, reason = "length-checked by every caller: decode_header/check_frame verify the buffer covers the read before calling")
fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

// geo-lint: allow(R1, reason = "length-checked by every caller: check_frame verifies HEADER_LEN + body_len + CHECKSUM_LEN bytes are present")
fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Validates the fixed header shared by both frame directions; returns
/// `(version, opcode_byte, status_or_reserved, body_len)` once enough
/// bytes are present. The caller interprets byte 3 per direction.
// geo-lint: allow(R1, reason = "fixed-offset reads are guarded by the `buf.len() < HEADER_LEN` NeedMore return above them")
fn decode_header(buf: &[u8], magic: u8) -> Result<Decoded<(u8, u8, u8, usize)>, ProtoError> {
    let Some(&first) = buf.first() else {
        return Ok(Decoded::NeedMore);
    };
    if first != magic {
        return Err(ProtoError::BadMagic(first));
    }
    if buf.len() < HEADER_LEN {
        return Ok(Decoded::NeedMore);
    }
    if buf[1] != PROTO_VERSION {
        return Err(ProtoError::BadVersion(buf[1]));
    }
    let body_len = read_u32(buf, 4) as usize;
    if body_len > MAX_BODY {
        return Err(ProtoError::BodyTooLarge { claimed: body_len });
    }
    Ok(Decoded::Frame((buf[1], buf[2], buf[3], body_len), 0))
}

/// Checks a complete frame's trailing checksum.
// geo-lint: allow(R1, reason = "slice and checksum read are guarded by the `buf.len() < total` NeedMore return")
fn check_frame(buf: &[u8], body_len: usize) -> Result<Decoded<()>, ProtoError> {
    let total = HEADER_LEN + body_len + CHECKSUM_LEN;
    if buf.len() < total {
        return Ok(Decoded::NeedMore);
    }
    let stored = read_u64(buf, HEADER_LEN + body_len);
    let computed = fnv1a(&buf[..HEADER_LEN + body_len]);
    if stored != computed {
        return Err(ProtoError::ChecksumMismatch { stored, computed });
    }
    Ok(Decoded::Frame((), total))
}

/// Decodes one request frame from the front of `buf`, if complete.
// geo-lint: allow(R1, reason = "body slice is taken only after check_frame confirms the full frame is buffered")
pub fn try_decode_request(buf: &[u8]) -> Result<Decoded<Request>, ProtoError> {
    let (_, op_byte, reserved, body_len) = match decode_header(buf, REQ_MAGIC)? {
        Decoded::Frame(h, _) => h,
        Decoded::NeedMore => return Ok(Decoded::NeedMore),
    };
    let Some(opcode) = Opcode::from_byte(op_byte) else {
        return Err(ProtoError::BadOpcode(op_byte));
    };
    if reserved != 0 {
        return Err(ProtoError::BadReserved(reserved));
    }
    match opcode {
        Opcode::Locate | Opcode::Nearest if body_len % 4 != 0 => {
            return Err(ProtoError::BadBodyLen {
                opcode: op_byte,
                body_len,
            })
        }
        Opcode::Stats if body_len != 0 => {
            return Err(ProtoError::BadBodyLen {
                opcode: op_byte,
                body_len,
            })
        }
        _ => {}
    }
    let total = match check_frame(buf, body_len)? {
        Decoded::Frame((), total) => total,
        Decoded::NeedMore => return Ok(Decoded::NeedMore),
    };
    let body = &buf[HEADER_LEN..HEADER_LEN + body_len];
    let req = match opcode {
        Opcode::Stats => Request::Stats,
        Opcode::Locate | Opcode::Nearest => {
            let ips: Vec<Ipv4> = (0..body_len / 4)
                .map(|i| Ipv4(read_u32(body, i * 4)))
                .collect();
            if opcode == Opcode::Locate {
                Request::Locate(ips)
            } else {
                Request::Nearest(ips)
            }
        }
    };
    Ok(Decoded::Frame(req, total))
}

/// Decodes one response frame from the front of `buf`, if complete.
pub fn try_decode_response(buf: &[u8]) -> Result<Decoded<Response>, ProtoError> {
    let (_, op_byte, status, body_len) = match decode_header(buf, RESP_MAGIC)? {
        Decoded::Frame(h, _) => h,
        Decoded::NeedMore => return Ok(Decoded::NeedMore),
    };
    let Some(opcode) = Opcode::from_byte(op_byte) else {
        return Err(ProtoError::BadOpcode(op_byte));
    };
    match status {
        STATUS_OK => match opcode {
            Opcode::Locate | Opcode::Nearest if body_len % RECORD_LEN != 0 => {
                return Err(ProtoError::BadBodyLen {
                    opcode: op_byte,
                    body_len,
                })
            }
            Opcode::Stats if body_len != STATS_BODY_LEN => {
                return Err(ProtoError::BadBodyLen {
                    opcode: op_byte,
                    body_len,
                })
            }
            _ => {}
        },
        STATUS_ERROR => {}
        STATUS_BUSY if body_len != 0 => {
            return Err(ProtoError::BadBodyLen {
                opcode: op_byte,
                body_len,
            })
        }
        STATUS_BUSY => {}
        other => return Err(ProtoError::BadStatus(other)),
    }
    let total = match check_frame(buf, body_len)? {
        Decoded::Frame((), total) => total,
        Decoded::NeedMore => return Ok(Decoded::NeedMore),
    };
    let body = &buf[HEADER_LEN..HEADER_LEN + body_len];
    if status == STATUS_BUSY {
        return Ok(Decoded::Frame(Response::Busy, total));
    }
    if status == STATUS_ERROR {
        let msg = std::str::from_utf8(body).map_err(|_| ProtoError::BadUtf8)?;
        return Ok(Decoded::Frame(Response::Error(msg.to_string()), total));
    }
    let resp = match opcode {
        Opcode::Stats => Response::Stats(StatsRecord {
            entries: read_u64(body, 0),
            hits: read_u64(body, 8),
            misses: read_u64(body, 16),
            connections: read_u64(body, 24),
            generation: read_u64(body, 32),
            live: read_u64(body, 40),
            shed: read_u64(body, 48),
            evicted: read_u64(body, 56),
            proto_errors: read_u64(body, 64),
            reload_failed: read_u64(body, 72),
        }),
        Opcode::Locate | Opcode::Nearest => {
            let mut records = Vec::with_capacity(body_len / RECORD_LEN);
            for i in 0..body_len / RECORD_LEN {
                let at = i * RECORD_LEN;
                let hit = match body[at] {
                    0 => false,
                    1 => true,
                    other => return Err(ProtoError::BadHitByte(other)),
                };
                let prefix = read_u32(body, at + 1);
                if prefix > 0x00FF_FFFF {
                    return Err(ProtoError::BadPrefix(prefix));
                }
                records.push(LocateRecord {
                    hit,
                    prefix: Prefix24(prefix),
                    lat_bits: read_u64(body, at + 5),
                    lon_bits: read_u64(body, at + 13),
                    method: body[at + 21],
                    distance: read_u32(body, at + 22),
                    confidence_bits: read_u64(body, at + 26),
                });
            }
            Response::Records { opcode, records }
        }
    };
    Ok(Decoded::Frame(resp, total))
}

/// Appends one request frame for `ips` (ignored for STATS) to `out`.
/// Fails only when the batch would exceed the [`MAX_BODY`] budget.
pub fn encode_request(out: &mut Vec<u8>, opcode: Opcode, ips: &[Ipv4]) -> Result<(), ProtoError> {
    let body_len = match opcode {
        Opcode::Stats => 0,
        Opcode::Locate | Opcode::Nearest => ips.len() * 4,
    };
    if body_len > MAX_BODY {
        return Err(ProtoError::BodyTooLarge { claimed: body_len });
    }
    let start = out.len();
    out.reserve(HEADER_LEN + body_len + CHECKSUM_LEN);
    out.extend_from_slice(&[REQ_MAGIC, PROTO_VERSION, opcode as u8, 0]);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    if opcode != Opcode::Stats {
        for ip in ips {
            out.extend_from_slice(&ip.0.to_le_bytes());
        }
    }
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// An in-progress response frame being appended to a connection's output
/// buffer. Created by [`ResponseWriter::begin`]; the header's `body_len`
/// and the trailing checksum are patched in by [`ResponseWriter::finish`],
/// so records stream straight into the final buffer with no staging copy.
pub struct ResponseWriter {
    start: usize,
}

impl ResponseWriter {
    /// Opens a response frame (status 0) on `out`.
    pub fn begin(out: &mut Vec<u8>, opcode: Opcode) -> ResponseWriter {
        Self::begin_with_status(out, opcode, STATUS_OK)
    }

    fn begin_with_status(out: &mut Vec<u8>, opcode: Opcode, status: u8) -> ResponseWriter {
        let start = out.len();
        out.extend_from_slice(&[RESP_MAGIC, PROTO_VERSION, opcode as u8, status]);
        out.extend_from_slice(&0u32.to_le_bytes());
        ResponseWriter { start }
    }

    /// Appends one location record to the open frame.
    pub fn push_record(&self, out: &mut Vec<u8>, rec: &LocateRecord) {
        out.push(u8::from(rec.hit));
        out.extend_from_slice(&rec.prefix.0.to_le_bytes());
        out.extend_from_slice(&rec.lat_bits.to_le_bytes());
        out.extend_from_slice(&rec.lon_bits.to_le_bytes());
        out.push(rec.method);
        out.extend_from_slice(&rec.distance.to_le_bytes());
        out.extend_from_slice(&rec.confidence_bits.to_le_bytes());
    }

    /// Appends a STATS body to the open frame.
    pub fn push_stats(&self, out: &mut Vec<u8>, stats: &StatsRecord) {
        out.extend_from_slice(&stats.entries.to_le_bytes());
        out.extend_from_slice(&stats.hits.to_le_bytes());
        out.extend_from_slice(&stats.misses.to_le_bytes());
        out.extend_from_slice(&stats.connections.to_le_bytes());
        out.extend_from_slice(&stats.generation.to_le_bytes());
        out.extend_from_slice(&stats.live.to_le_bytes());
        out.extend_from_slice(&stats.shed.to_le_bytes());
        out.extend_from_slice(&stats.evicted.to_le_bytes());
        out.extend_from_slice(&stats.proto_errors.to_le_bytes());
        out.extend_from_slice(&stats.reload_failed.to_le_bytes());
    }

    /// Patches `body_len`, appends the checksum, and seals the frame.
    // geo-lint: allow(R1, reason = "begin() wrote HEADER_LEN bytes at `start`, so the patched range exists by construction")
    pub fn finish(self, out: &mut Vec<u8>) {
        let body_len = out.len() - self.start - HEADER_LEN;
        let len_bytes = (body_len as u32).to_le_bytes();
        out[self.start + 4..self.start + 8].copy_from_slice(&len_bytes);
        let sum = fnv1a(&out[self.start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
}

/// Appends a complete error response frame to `out`.
pub fn encode_error(out: &mut Vec<u8>, opcode: Opcode, message: &str) {
    let w = ResponseWriter::begin_with_status(out, opcode, STATUS_ERROR);
    out.extend_from_slice(message.as_bytes());
    w.finish(out);
}

/// Appends a complete BUSY (overload-shed) response frame to `out`.
/// The body is empty: a shed client learns everything it needs from the
/// status byte, and the server closes the connection right after.
pub fn encode_busy(out: &mut Vec<u8>, opcode: Opcode) {
    let w = ResponseWriter::begin_with_status(out, opcode, STATUS_BUSY);
    w.finish(out);
}

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Proto(ProtoError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// A blocking binary-protocol client over one TCP connection.
///
/// [`send`](BinaryClient::send) and [`recv`](BinaryClient::recv) are
/// split so callers can pipeline: any number of frames may be in flight,
/// and responses come back in send order. This is the `ipgeo query
/// --binary` path and the load generator's primitive — a *client*, not
/// the serving path, which is why its blocking reads carry R4 allows.
pub struct BinaryClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BinaryClient {
    /// Connects with `TCP_NODELAY` (frames are written whole; leaving
    /// Nagle on would add ~40 ms to every pipelined exchange).
    pub fn connect(addr: &str) -> io::Result<BinaryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(BinaryClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request frame (does not wait for the response).
    pub fn send(&mut self, opcode: Opcode, ips: &[Ipv4]) -> Result<(), ClientError> {
        self.buf.clear();
        encode_request(&mut self.buf, opcode, ips)?;
        self.stream.write_all(&self.buf)?;
        Ok(())
    }

    /// Blocks until the next response frame arrives and decodes it.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let mut header = [0u8; HEADER_LEN];
        // geo-lint: allow(R4, reason = "blocking read in the one-shot client primitive, not the serving path")
        self.stream.read_exact(&mut header)?;
        match decode_header(&header, RESP_MAGIC)? {
            Decoded::Frame(_, _) => {}
            // A full header is present by construction.
            Decoded::NeedMore => return Err(ProtoError::BadMagic(header[0]).into()),
        }
        let body_len = read_u32(&header, 4) as usize;
        self.buf.clear();
        self.buf.extend_from_slice(&header);
        self.buf.resize(HEADER_LEN + body_len + CHECKSUM_LEN, 0);
        // geo-lint: allow(R4, reason = "blocking read in the one-shot client primitive, not the serving path")
        self.stream.read_exact(&mut self.buf[HEADER_LEN..])?;
        match try_decode_response(&self.buf)? {
            Decoded::Frame(resp, _) => Ok(resp),
            // The exact frame length was read above.
            Decoded::NeedMore => Err(ProtoError::BadMagic(header[0]).into()),
        }
    }

    /// Convenience request/response round trip.
    pub fn query(&mut self, opcode: Opcode, ips: &[Ipv4]) -> Result<Response, ClientError> {
        self.send(opcode, ips)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ips(n: u32) -> Vec<Ipv4> {
        (0..n).map(|i| Prefix24(i * 3 + 1).host(7)).collect()
    }

    #[test]
    fn request_round_trips() {
        for (op, want) in [
            (Opcode::Locate, Request::Locate(ips(5))),
            (Opcode::Nearest, Request::Nearest(ips(5))),
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, op, &ips(5)).unwrap();
            let Decoded::Frame(req, used) = try_decode_request(&buf).unwrap() else {
                panic!("complete frame must decode");
            };
            assert_eq!(used, buf.len());
            assert_eq!(req, want);
        }
        let mut buf = Vec::new();
        encode_request(&mut buf, Opcode::Stats, &[]).unwrap();
        assert_eq!(
            try_decode_request(&buf).unwrap(),
            Decoded::Frame(Request::Stats, buf.len())
        );
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_request(&mut buf, Opcode::Locate, &ips(3)).unwrap();
        let first_len = buf.len();
        encode_request(&mut buf, Opcode::Stats, &[]).unwrap();
        let Decoded::Frame(first, used) = try_decode_request(&buf).unwrap() else {
            panic!("first frame");
        };
        assert_eq!(first, Request::Locate(ips(3)));
        assert_eq!(used, first_len);
        let Decoded::Frame(second, _) = try_decode_request(&buf[used..]).unwrap() else {
            panic!("second frame");
        };
        assert_eq!(second, Request::Stats);
    }

    #[test]
    fn response_round_trips() {
        let records = vec![
            LocateRecord {
                hit: true,
                prefix: Prefix24(0x0A0A0A),
                lat_bits: 48.85f64.to_bits(),
                lon_bits: 2.35f64.to_bits(),
                method: 1,
                distance: 0,
                confidence_bits: 0.90f64.to_bits(),
            },
            LocateRecord::miss(Ipv4(0x0909_0909)),
        ];
        let mut buf = Vec::new();
        let w = ResponseWriter::begin(&mut buf, Opcode::Locate);
        for r in &records {
            w.push_record(&mut buf, r);
        }
        w.finish(&mut buf);
        let Decoded::Frame(resp, used) = try_decode_response(&buf).unwrap() else {
            panic!("complete frame must decode");
        };
        assert_eq!(used, buf.len());
        assert_eq!(
            resp,
            Response::Records {
                opcode: Opcode::Locate,
                records
            }
        );
    }

    #[test]
    fn stats_and_error_responses_round_trip() {
        let stats = StatsRecord {
            entries: 30,
            hits: 1000,
            misses: 7,
            connections: 12,
            generation: 3,
            live: 5,
            shed: 2,
            evicted: 4,
            proto_errors: 1,
            reload_failed: 6,
        };
        let mut buf = Vec::new();
        let w = ResponseWriter::begin(&mut buf, Opcode::Stats);
        w.push_stats(&mut buf, &stats);
        w.finish(&mut buf);
        assert_eq!(
            try_decode_response(&buf).unwrap(),
            Decoded::Frame(Response::Stats(stats), buf.len())
        );

        let mut buf = Vec::new();
        encode_error(&mut buf, Opcode::Locate, "no such thing");
        assert_eq!(
            try_decode_response(&buf).unwrap(),
            Decoded::Frame(Response::Error("no such thing".into()), buf.len())
        );
    }

    #[test]
    fn busy_response_round_trips_and_rejects_a_body() {
        let mut buf = Vec::new();
        encode_busy(&mut buf, Opcode::Locate);
        assert_eq!(
            try_decode_response(&buf).unwrap(),
            Decoded::Frame(Response::Busy, buf.len())
        );

        // A BUSY frame smuggling a body is malformed...
        let mut with_body = Vec::new();
        let w = ResponseWriter::begin_with_status(&mut with_body, Opcode::Locate, STATUS_BUSY);
        with_body.extend_from_slice(b"go away");
        w.finish(&mut with_body);
        assert!(matches!(
            try_decode_response(&with_body),
            Err(ProtoError::BadBodyLen { .. })
        ));

        // ...and an unknown status byte is its own typed error.
        let mut unknown = Vec::new();
        let w = ResponseWriter::begin_with_status(&mut unknown, Opcode::Locate, 7);
        w.finish(&mut unknown);
        assert_eq!(try_decode_response(&unknown), Err(ProtoError::BadStatus(7)));
    }

    #[test]
    fn truncations_ask_for_more_and_never_panic() {
        let mut buf = Vec::new();
        encode_request(&mut buf, Opcode::Locate, &ips(9)).unwrap();
        for len in 0..buf.len() {
            assert_eq!(
                try_decode_request(&buf[..len]).unwrap(),
                Decoded::NeedMore,
                "a {len}-byte prefix of a valid frame is just incomplete"
            );
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let mut good = Vec::new();
        encode_request(&mut good, Opcode::Locate, &ips(4)).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'L';
        assert_eq!(
            try_decode_request(&bad_magic),
            Err(ProtoError::BadMagic(b'L'))
        );

        let mut bad_version = good.clone();
        bad_version[1] = 9;
        assert_eq!(
            try_decode_request(&bad_version),
            Err(ProtoError::BadVersion(9))
        );

        let mut bad_opcode = good.clone();
        bad_opcode[2] = 77;
        assert!(matches!(
            try_decode_request(&bad_opcode),
            Err(ProtoError::BadOpcode(77) | ProtoError::ChecksumMismatch { .. })
        ));

        let mut hostile_len = good.clone();
        hostile_len[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            try_decode_request(&hostile_len),
            Err(ProtoError::BodyTooLarge {
                claimed: u32::MAX as usize
            })
        );

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(matches!(
            try_decode_request(&flipped),
            Err(ProtoError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_batch_is_rejected_at_encode_time() {
        let too_many = vec![Ipv4(1); MAX_BODY / 4 + 1];
        let mut buf = Vec::new();
        assert!(matches!(
            encode_request(&mut buf, Opcode::Locate, &too_many),
            Err(ProtoError::BodyTooLarge { .. })
        ));
    }
}
