//! The `.igds` (Internet Geolocation DataSet) binary snapshot format.
//!
//! The paper's deliverable is a *publishable* dataset; publishing needs a
//! persistent artifact, not an in-memory `Vec`. An `.igds` file is a
//! versioned, checksummed, column-oriented snapshot of
//! [`ipgeo::publish::DatasetEntry`] records:
//!
//! ```text
//! header (40 bytes)
//!   magic        "IGDS"          4 bytes
//!   version      u16 LE          format revision (currently 2)
//!   reserved     u16 LE          0
//!   world_seed   u64 LE          seed of the world that produced it
//!   nonce        u64 LE          measurement nonce of the campaign
//!   entry_count  u32 LE          n
//!   evidence_len u32 LE          byte length of the evidence table
//!   checksum     u64 LE          FNV-1a over every payload byte
//! payload (columns, in order)
//!   prefixes     n × u32 LE      sorted strictly ascending (/24 upper bits)
//!   lat          n × u64 LE      f64 bit patterns
//!   lon          n × u64 LE      f64 bit patterns
//!   method       n × u8          evidence tag (0..=4)
//!   ev_offset    n × u32 LE      byte offset into the evidence table
//!   evidence     evidence_len bytes (per-tag records, see below)
//! ```
//!
//! Evidence records, addressed by `ev_offset` and interpreted per tag:
//! geofeed (0) and WHOIS (3) carry no bytes; a DNS hint (1) is
//! `u16 LE hostname-length` followed by UTF-8 bytes; latency (2) is
//! `u32 LE vps`, `u64 LE best-RTT f64 bits`, `u32 LE best-VP host id`;
//! fused (4) is `u64 LE confidence f64 bits`, `u8 source mask`,
//! `u32 LE vps`, `u64 LE best-RTT f64 bits`, `u32 LE best-VP host id`,
//! then `u16 LE hostname-length` (0 when no hint survived) and UTF-8
//! bytes. Version 2 added the fused tag; version-1 files are rejected.
//!
//! **Determinism.** [`encode`] sorts entries by prefix (stable, keeping the
//! first record of a duplicated prefix) and writes columns in a fixed
//! order with fixed-width little-endian scalars — no timestamps, pointers,
//! or map iteration order anywhere — so the same logical dataset yields a
//! byte-identical file on every machine. Floats are persisted as bit
//! patterns, never text, so a save→load round trip is exact.
//!
//! **Crash safety.** [`save`] never truncates the target in place: it
//! writes a sibling temp file, syncs it, and renames it over the target,
//! so a reader (a `RELOAD` racing a republish) opens either the old
//! snapshot or the new one, never a torn mix of both.

use geo_model::ip::Prefix24;
use geo_model::point::GeoPoint;
use geo_model::units::Ms;
use ipgeo::publish::{DatasetEntry, Evidence};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use world_sim::ids::HostId;

/// The four magic bytes opening every `.igds` file.
pub const MAGIC: [u8; 4] = *b"IGDS";

/// Current format revision (2: fused evidence tag).
pub const VERSION: u16 = 2;

/// Fixed byte length of the header.
pub const HEADER_LEN: usize = 40;

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Underlying filesystem failure.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file's format revision is not supported.
    BadVersion(u16),
    /// The buffer is shorter than its header claims.
    Truncated {
        /// Bytes the header implies.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the payload as read.
        computed: u64,
    },
    /// The prefix column is not strictly ascending at this index.
    UnsortedPrefixes(usize),
    /// A prefix uses more than 24 bits.
    BadPrefix(u32),
    /// An unknown evidence tag.
    BadMethodTag(u8),
    /// An evidence record is out of range or malformed.
    BadEvidence(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic(m) => write!(f, "not an .igds file (magic {m:02x?})"),
            FormatError::BadVersion(v) => {
                write!(f, "unsupported .igds version {v} (supported: {VERSION})")
            }
            FormatError::Truncated { need, have } => {
                write!(f, "truncated .igds file: need {need} bytes, have {have}")
            }
            FormatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt .igds payload: checksum {computed:016x}, header says {stored:016x}"
            ),
            FormatError::UnsortedPrefixes(i) => {
                write!(f, "prefix column not strictly ascending at index {i}")
            }
            FormatError::BadPrefix(p) => write!(f, "prefix {p:#x} exceeds 24 bits"),
            FormatError::BadMethodTag(t) => write!(f, "unknown evidence tag {t}"),
            FormatError::BadEvidence(e) => write!(f, "malformed evidence record: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// The decoded fixed-size header of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format revision.
    pub version: u16,
    /// Seed of the world the dataset was measured in.
    pub world_seed: u64,
    /// Measurement nonce of the producing campaign.
    pub nonce: u64,
    /// Number of entries.
    pub entries: u32,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// FNV-1a 64-bit hash — dependency-free integrity check for the payload
/// (also reused by the binary wire protocol's frame checksums).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The on-disk evidence tag (0..=3) — also the `method` byte carried by
/// binary-protocol location records, so wire and disk agree.
pub(crate) fn method_tag(e: &Evidence) -> u8 {
    match e {
        Evidence::Geofeed => 0,
        Evidence::DnsHint { .. } => 1,
        Evidence::Latency { .. } => 2,
        Evidence::Whois => 3,
        Evidence::Fused { .. } => 4,
    }
}

/// Serializes the dataset to `.igds` bytes: deterministic for a given
/// logical dataset (entries are sorted by prefix; a duplicated prefix
/// keeps its first record in input order).
pub fn encode(entries: &[DatasetEntry], world_seed: u64, nonce: u64) -> Vec<u8> {
    let mut sorted: Vec<&DatasetEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| e.prefix);
    sorted.dedup_by_key(|e| e.prefix);
    let n = sorted.len();

    let mut prefixes = Vec::with_capacity(n * 4);
    let mut lats = Vec::with_capacity(n * 8);
    let mut lons = Vec::with_capacity(n * 8);
    let mut tags = Vec::with_capacity(n);
    let mut offsets = Vec::with_capacity(n * 4);
    let mut evidence: Vec<u8> = Vec::new();

    for e in &sorted {
        prefixes.extend_from_slice(&e.prefix.0.to_le_bytes());
        lats.extend_from_slice(&e.location.lat().to_bits().to_le_bytes());
        lons.extend_from_slice(&e.location.lon().to_bits().to_le_bytes());
        tags.push(method_tag(&e.evidence));
        offsets.extend_from_slice(&(evidence.len() as u32).to_le_bytes());
        match &e.evidence {
            Evidence::Geofeed | Evidence::Whois => {}
            Evidence::DnsHint { hostname } => {
                evidence.extend_from_slice(&(hostname.len() as u16).to_le_bytes());
                evidence.extend_from_slice(hostname.as_bytes());
            }
            Evidence::Latency {
                vps,
                best_rtt,
                best_vp,
            } => {
                evidence.extend_from_slice(&(*vps as u32).to_le_bytes());
                evidence.extend_from_slice(&best_rtt.value().to_bits().to_le_bytes());
                evidence.extend_from_slice(&best_vp.0.to_le_bytes());
            }
            Evidence::Fused {
                confidence,
                sources,
                vps,
                best_rtt,
                best_vp,
                hostname,
            } => {
                evidence.extend_from_slice(&confidence.to_bits().to_le_bytes());
                evidence.push(*sources);
                evidence.extend_from_slice(&(*vps as u32).to_le_bytes());
                evidence.extend_from_slice(&best_rtt.value().to_bits().to_le_bytes());
                evidence.extend_from_slice(&best_vp.0.to_le_bytes());
                let name = hostname.as_deref().unwrap_or("");
                evidence.extend_from_slice(&(name.len() as u16).to_le_bytes());
                evidence.extend_from_slice(name.as_bytes());
            }
        }
    }

    let payload_len = prefixes.len() + lats.len() + lons.len() + tags.len() + offsets.len();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len + evidence.len());
    let mut payload = Vec::with_capacity(payload_len + evidence.len());
    payload.extend_from_slice(&prefixes);
    payload.extend_from_slice(&lats);
    payload.extend_from_slice(&lons);
    payload.extend_from_slice(&tags);
    payload.extend_from_slice(&offsets);
    payload.extend_from_slice(&evidence);

    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&world_seed.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(evidence.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Little-endian readers over a validated range.
// geo-lint: allow(R1, reason = "length-checked by every caller: decode verifies the buffer covers each fixed-offset read before calling")
fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}
// geo-lint: allow(R1, reason = "length-checked by every caller: decode verifies the buffer covers each fixed-offset read before calling")
fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}
// geo-lint: allow(R1, reason = "length-checked by every caller: decode verifies the buffer covers each fixed-offset read before calling")
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

/// Parses and fully validates `.igds` bytes: magic, version, length,
/// checksum, prefix ordering, evidence tags and record bounds.
// geo-lint: allow(R1, reason = "every index is guarded: the exact byte length is checked up front and each evidence read is bounds-tested before slicing")
pub fn decode(bytes: &[u8]) -> Result<(Header, Vec<DatasetEntry>), FormatError> {
    if bytes.len() < HEADER_LEN {
        return Err(FormatError::Truncated {
            need: HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(FormatError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    let version = read_u16(bytes, 4);
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let header = Header {
        version,
        world_seed: read_u64(bytes, 8),
        nonce: read_u64(bytes, 16),
        entries: read_u32(bytes, 24),
        checksum: read_u64(bytes, 32),
    };
    let n = header.entries as usize;
    let evidence_len = read_u32(bytes, 28) as usize;
    // Checked arithmetic: a hostile header can claim counts whose implied
    // size overflows usize; that must surface as a typed error, not UB or
    // a debug-build panic.
    let need = n
        .checked_mul(4 + 8 + 8 + 1 + 4)
        .and_then(|cols| cols.checked_add(HEADER_LEN))
        .and_then(|total| total.checked_add(evidence_len))
        .ok_or(FormatError::Truncated {
            need: usize::MAX,
            have: bytes.len(),
        })?;
    if bytes.len() != need {
        return Err(FormatError::Truncated {
            need,
            have: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = fnv1a(payload);
    if computed != header.checksum {
        return Err(FormatError::ChecksumMismatch {
            stored: header.checksum,
            computed,
        });
    }

    let (pfx_at, lat_at, lon_at, tag_at, off_at) = (0, n * 4, n * 12, n * 20, n * 21);
    let ev = &payload[n * 25..];

    let mut entries = Vec::with_capacity(n);
    let mut prev: Option<u32> = None;
    for i in 0..n {
        let raw = read_u32(payload, pfx_at + i * 4);
        if raw > 0x00FF_FFFF {
            return Err(FormatError::BadPrefix(raw));
        }
        if prev.is_some_and(|p| p >= raw) {
            return Err(FormatError::UnsortedPrefixes(i));
        }
        prev = Some(raw);
        let lat = f64::from_bits(read_u64(payload, lat_at + i * 8));
        let lon = f64::from_bits(read_u64(payload, lon_at + i * 8));
        let tag = payload[tag_at + i];
        let off = read_u32(payload, off_at + i * 4) as usize;
        let evidence = match tag {
            0 => Evidence::Geofeed,
            3 => Evidence::Whois,
            1 => {
                if off + 2 > ev.len() {
                    return Err(FormatError::BadEvidence(format!(
                        "dns-hint record at {off} past table end {}",
                        ev.len()
                    )));
                }
                let len = read_u16(ev, off) as usize;
                let bytes = ev.get(off + 2..off + 2 + len).ok_or_else(|| {
                    FormatError::BadEvidence(format!("hostname of {len} bytes at {off}"))
                })?;
                let hostname = std::str::from_utf8(bytes)
                    .map_err(|e| FormatError::BadEvidence(format!("hostname utf-8: {e}")))?
                    .to_string();
                Evidence::DnsHint { hostname }
            }
            2 => {
                if off + 16 > ev.len() {
                    return Err(FormatError::BadEvidence(format!(
                        "latency record at {off} past table end {}",
                        ev.len()
                    )));
                }
                Evidence::Latency {
                    vps: read_u32(ev, off) as usize,
                    best_rtt: Ms(f64::from_bits(read_u64(ev, off + 4))),
                    best_vp: HostId(read_u32(ev, off + 12)),
                }
            }
            4 => {
                // Fixed part: confidence (8) + sources (1) + vps (4) +
                // best RTT (8) + best VP (4) + hostname length (2).
                if off + 27 > ev.len() {
                    return Err(FormatError::BadEvidence(format!(
                        "fused record at {off} past table end {}",
                        ev.len()
                    )));
                }
                let len = read_u16(ev, off + 25) as usize;
                let name_bytes = ev.get(off + 27..off + 27 + len).ok_or_else(|| {
                    FormatError::BadEvidence(format!("fused hostname of {len} bytes at {off}"))
                })?;
                let hostname = if len == 0 {
                    None
                } else {
                    Some(
                        std::str::from_utf8(name_bytes)
                            .map_err(|e| {
                                FormatError::BadEvidence(format!("fused hostname utf-8: {e}"))
                            })?
                            .to_string(),
                    )
                };
                Evidence::Fused {
                    confidence: f64::from_bits(read_u64(ev, off)),
                    sources: ev[off + 8],
                    vps: read_u32(ev, off + 9) as usize,
                    best_rtt: Ms(f64::from_bits(read_u64(ev, off + 13))),
                    best_vp: HostId(read_u32(ev, off + 21)),
                    hostname,
                }
            }
            other => return Err(FormatError::BadMethodTag(other)),
        };
        entries.push(DatasetEntry {
            prefix: Prefix24(raw),
            location: GeoPoint::new(lat, lon),
            evidence,
        });
    }
    Ok((header, entries))
}

/// Writes the dataset to `path`, returning the header it stored. The
/// target is replaced atomically (see the module docs).
pub fn save(
    path: impl AsRef<Path>,
    entries: &[DatasetEntry],
    world_seed: u64,
    nonce: u64,
) -> Result<Header, FormatError> {
    let bytes = encode(entries, world_seed, nonce);
    replace_file(path.as_ref(), &bytes).map_err(|e| FormatError::Io(e.to_string()))?;
    let (header, _) = decode(&bytes)?;
    Ok(header)
}

/// Replaces `path` with `bytes`: write a sibling temp file, `sync_all` it,
/// `rename` it over `path`. The temp file is removed on any error.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique per process and per call, so concurrent publishers of the
    // same path never share a temp file.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let written = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Reads and validates a snapshot from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<(Header, Vec<DatasetEntry>), FormatError> {
    let bytes = std::fs::read(path.as_ref()).map_err(|e| FormatError::Io(e.to_string()))?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DatasetEntry> {
        vec![
            DatasetEntry {
                prefix: Prefix24(0x000200),
                location: GeoPoint::new(10.5, -3.25),
                evidence: Evidence::DnsHint {
                    hostname: "edge1.lyon.as7.net".into(),
                },
            },
            DatasetEntry {
                prefix: Prefix24(0x000100),
                location: GeoPoint::new(-45.0, 170.0),
                evidence: Evidence::Latency {
                    vps: 17,
                    best_rtt: Ms(12.625),
                    best_vp: HostId(42),
                },
            },
            DatasetEntry {
                prefix: Prefix24(0x000300),
                location: GeoPoint::new(51.0, 0.0),
                evidence: Evidence::Geofeed,
            },
            DatasetEntry {
                prefix: Prefix24(0x000400),
                location: GeoPoint::new(0.0, 0.0),
                evidence: Evidence::Whois,
            },
            DatasetEntry {
                prefix: Prefix24(0x000500),
                location: GeoPoint::new(48.85, 2.35),
                evidence: Evidence::Fused {
                    confidence: 0.97,
                    sources: 1 | 2 | 4,
                    vps: 11,
                    best_rtt: Ms(3.5),
                    best_vp: HostId(9),
                    hostname: Some("core2.par.as7.example.net".into()),
                },
            },
            DatasetEntry {
                prefix: Prefix24(0x000600),
                location: GeoPoint::new(-12.0, 30.0),
                evidence: Evidence::Fused {
                    confidence: 0.70,
                    sources: 1,
                    vps: 6,
                    best_rtt: Ms(21.0),
                    best_vp: HostId(3),
                    hostname: None,
                },
            },
        ]
    }

    #[test]
    fn round_trips_and_sorts() {
        let bytes = encode(&sample(), 99, 7);
        let (header, entries) = decode(&bytes).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.world_seed, 99);
        assert_eq!(header.nonce, 7);
        assert_eq!(header.entries, 6);
        let mut expected = sample();
        expected.sort_by_key(|e| e.prefix);
        assert_eq!(entries, expected);
    }

    #[test]
    fn encoding_is_input_order_independent() {
        let mut shuffled = sample();
        shuffled.reverse();
        assert_eq!(encode(&sample(), 1, 1), encode(&shuffled, 1, 1));
    }

    #[test]
    fn duplicate_prefixes_keep_first_record() {
        let mut dup = sample();
        dup.push(DatasetEntry {
            prefix: Prefix24(0x000100),
            location: GeoPoint::new(1.0, 1.0),
            evidence: Evidence::Whois,
        });
        let (_, entries) = decode(&encode(&dup, 1, 1)).unwrap();
        assert_eq!(entries.len(), 6);
        assert_eq!(
            entries[0].evidence,
            Evidence::Latency {
                vps: 17,
                best_rtt: Ms(12.625),
                best_vp: HostId(42),
            }
        );
    }

    #[test]
    fn rejects_corruption() {
        let good = encode(&sample(), 1, 1);
        assert!(matches!(
            decode(&good[..10]),
            Err(FormatError::Truncated { .. })
        ));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(FormatError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode(&bad_version),
            Err(FormatError::BadVersion(9))
        ));

        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            decode(&flipped),
            Err(FormatError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let good = encode(&sample(), 1, 1);
        for len in 0..good.len() {
            assert!(
                decode(&good[..len]).is_err(),
                "decode of a {len}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn single_bit_flips_never_panic() {
        let good = encode(&sample(), 1, 1);
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut mutated = good.clone();
                mutated[i] ^= 1 << bit;
                // Any outcome must be a typed Result — flipping a header
                // count, a tag, or an offset must never panic the decoder.
                let _ = decode(&mutated);
            }
        }
    }

    #[test]
    fn hostile_header_counts_are_a_typed_error() {
        // A header claiming u32::MAX entries and a u32::MAX evidence table:
        // the implied size must not overflow into a bogus bounds check.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(FormatError::Truncated { .. })));
    }

    #[test]
    fn empty_dataset_round_trips() {
        let (header, entries) = decode(&encode(&[], 5, 5)).unwrap();
        assert_eq!(header.entries, 0);
        assert!(entries.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("igds-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.igds");
        let header = save(&path, &sample(), 77, 3).unwrap();
        let (loaded_header, entries) = load(&path).unwrap();
        assert_eq!(header, loaded_header);
        assert_eq!(entries.len(), 6);
        std::fs::remove_file(&path).unwrap();
    }
}
