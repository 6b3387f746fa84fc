//! An indexed, read-only view over a loaded `.igds` snapshot.
//!
//! The store keeps the entries exactly as the format guarantees them —
//! sorted by prefix, unique ("Lost in the Prefix": the unit of
//! geolocation truth is the routed prefix, not the individual address).
//! A bucket index over the store's own prefix span, built at open,
//! narrows every lookup to one bucket of a few entries before a binary
//! search; answers are the ones a binary search over all entries gives.
//! Batch lookups fan out over [`geo_model::runtime::par_map_indexed`],
//! inheriting the workspace-wide `IPGEO_THREADS` knob and its
//! determinism contract.

use crate::cache::{CacheCounters, HotCache};
use crate::format::{self, FormatError, Header};
use geo_model::ip::{Ipv4, Prefix24};
use ipgeo::publish::DatasetEntry;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Most buckets a [`PrefixIndex`] lays over a store (2^16: 256 KiB of
/// offsets).
const MAX_BUCKETS: usize = 1 << 16;

/// Equal-width buckets over the span `first..=last` of a store's
/// prefixes: prefix `p` falls in bucket `(p - first) >> shift`, and the
/// entries of bucket `b` are `starts[b]..starts[b + 1]`.
///
/// There are `n.next_power_of_two()` buckets (clamped to
/// `1..=`[`MAX_BUCKETS`]), and `shift` is the smallest that maps `last`
/// into the last of them. Laying the buckets over the span rather than
/// over the top bits of the 24-bit space keeps them small when the
/// prefixes cluster: at seed 42, publish's 5,106 prefixes span only
/// `0x10000..=0x113f1`, one per bucket, where top-16-bit buckets would
/// hold up to 256 each.
#[derive(Debug, Clone)]
struct PrefixIndex {
    first: u32,
    shift: u32,
    starts: Vec<u32>,
}

impl PrefixIndex {
    /// Builds the index from the prefix column in ascending order (as
    /// [`format::decode`] has validated it), read from the raw payload, 4
    /// bytes a prefix, rather than from the 80-byte entries.
    fn build(column: &[[u8; 4]]) -> PrefixIndex {
        let buckets = column.len().next_power_of_two().clamp(1, MAX_BUCKETS);
        let (first, last) = match (column.first(), column.last()) {
            (Some(&first), Some(&last)) => (u32::from_le_bytes(first), u32::from_le_bytes(last)),
            _ => (0, 0),
        };
        let span_bits = u32::BITS - (last - first).leading_zeros();
        let shift = span_bits.saturating_sub(buckets.trailing_zeros());
        // Bucket `b` ends where bucket `b + 1` starts: after its last
        // entry, which a pass in prefix order stamps last. The pass only
        // stores, so no step waits on the one before it (a per-bucket
        // count would). An empty bucket gets no stamp and ends where the
        // bucket before it does, which a running maximum fills in.
        let mut starts = vec![0u32; buckets + 1];
        for (i, &raw) in column.iter().enumerate() {
            let b = ((u32::from_le_bytes(raw) - first) >> shift) as usize;
            if let Some(end) = starts.get_mut(b + 1) {
                *end = i as u32 + 1;
            }
        }
        let mut end = 0;
        for start in &mut starts {
            end = end.max(*start);
            *start = end;
        }
        PrefixIndex {
            first,
            shift,
            starts,
        }
    }
}

/// A loaded snapshot with its header, ready to answer queries.
#[derive(Debug, Clone)]
pub struct DatasetStore {
    header: Header,
    entries: Vec<DatasetEntry>,
    index: PrefixIndex,
}

impl DatasetStore {
    /// Parses a snapshot from raw `.igds` bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<DatasetStore, FormatError> {
        let (header, entries) = format::decode(bytes)?;
        let index = PrefixIndex::build(format::prefix_column(bytes, entries.len()));
        Ok(DatasetStore {
            header,
            entries,
            index,
        })
    }

    /// Loads and validates a snapshot file.
    pub fn open(path: impl AsRef<Path>) -> Result<DatasetStore, FormatError> {
        DatasetStore::from_bytes(&format::read(path)?)
    }

    /// Builds a store directly from entries (tests, benches, diffing a
    /// freshly built dataset without touching disk). Round-trips through
    /// the encoder so the store is always format-canonical.
    pub fn from_entries(entries: &[DatasetEntry], world_seed: u64, nonce: u64) -> DatasetStore {
        DatasetStore::from_bytes(&format::encode(entries, world_seed, nonce))
            // geo-lint: allow(R1, reason = "encode/decode round-trip is a format-module invariant; failing here is a bug, not a request error")
            .expect("freshly encoded snapshot decodes")
    }

    /// The snapshot header (seed, nonce, counts, checksum).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of prefixes in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, sorted by prefix.
    pub fn entries(&self) -> &[DatasetEntry] {
        &self.entries
    }

    /// Where `prefix` sits among the entries, as
    /// `entries.binary_search_by_key(&prefix, |e| e.prefix)` reports it
    /// (`Ok` at its entry, or `Err` at its insertion point), found by a
    /// binary search of `prefix`'s bucket alone: every entry of an earlier
    /// bucket is below `prefix` and every entry of a later one above it.
    fn position(&self, prefix: Prefix24) -> Result<usize, usize> {
        let n = self.entries.len();
        let Some(offset) = prefix.0.checked_sub(self.index.first) else {
            return Err(0);
        };
        let b = (offset >> self.index.shift) as usize;
        let (lo, hi) = match (self.index.starts.get(b), self.index.starts.get(b + 1)) {
            (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
            // Past the last bucket: above every entry.
            _ => return Err(n),
        };
        match self.entries.get(lo..hi) {
            Some(bucket) => bucket
                .binary_search_by_key(&prefix, |e| e.prefix)
                .map(|i| lo + i)
                .map_err(|i| lo + i),
            None => Err(lo),
        }
    }

    /// Exact-prefix lookup: a binary search of the prefix's bucket.
    pub fn get(&self, prefix: Prefix24) -> Option<&DatasetEntry> {
        self.position(prefix).ok().and_then(|i| self.entries.get(i))
    }

    /// Exact lookup of the `/24` covering `ip`.
    pub fn lookup(&self, ip: Ipv4) -> Option<&DatasetEntry> {
        self.get(ip.prefix24())
    }

    /// Nearest-covering-prefix lookup: the entry whose prefix is closest
    /// to `ip`'s `/24` in address space, with the distance in /24 steps
    /// (0 for an exact hit). Ties prefer the lower prefix. `None` only on
    /// an empty store.
    pub fn lookup_nearest(&self, ip: Ipv4) -> Option<(&DatasetEntry, u32)> {
        let target = ip.prefix24();
        let idx = match self.position(target) {
            Ok(i) => return self.entries.get(i).map(|e| (e, 0)),
            Err(i) => i,
        };
        let dist = |e: &DatasetEntry| e.prefix.0.abs_diff(target.0);
        let below = idx.checked_sub(1).and_then(|i| self.entries.get(i));
        let above = self.entries.get(idx);
        let best = match (below, above) {
            (Some(b), Some(a)) => {
                if dist(b) <= dist(a) {
                    b
                } else {
                    a
                }
            }
            (Some(b), None) => b,
            (None, Some(a)) => a,
            // Empty store: both neighbors are absent.
            (None, None) => return None,
        };
        Some((best, dist(best)))
    }

    /// Batch exact lookup. Output order matches `ips`.
    ///
    /// Small batches run serially: a single lookup is a binary search of
    /// one small bucket, so the fan-out only pays for itself once the batch
    /// amortizes thread spawn/join across tens of thousands of lookups
    /// (the pre-fix snapshot recorded `speedup: 0.54` — the parallel
    /// path *losing* — on a 7 680-address sweep). Large batches fan out
    /// over [`geo_model::runtime::par_map_indexed`] unless the effective
    /// worker count is 1 (either `IPGEO_THREADS=1` or a single-core
    /// host, where extra workers are pure oversubscription). Both paths
    /// are bit-identical by the runtime's determinism contract.
    pub fn lookup_batch(&self, ips: &[Ipv4]) -> Vec<Option<DatasetEntry>> {
        let workers = geo_model::runtime::threads()
            .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
        if workers <= 1 || ips.len() < PAR_BATCH_MIN {
            return ips.iter().map(|&ip| self.lookup(ip).cloned()).collect();
        }
        geo_model::runtime::par_map_indexed(ips.len(), |i| self.lookup(ips[i]).cloned())
    }
}

/// Below this batch size `lookup_batch` stays serial: per-lookup work is
/// a search of one bucket in memory, so thread spawn/join dominates
/// until the batch reaches tens of thousands of addresses.
pub const PAR_BATCH_MIN: usize = 16 * 1024;

/// One immutable serving generation: a snapshot plus the hot cache that
/// memoizes its answers. Workers hold an `Arc<Generation>` and answer
/// every query of a sweep against it, so a connection's response stream
/// stays a pure function of `(generation snapshot, request stream)` even
/// while a reload installs the next generation concurrently.
#[derive(Debug)]
pub struct Generation {
    /// 1-based generation number; increments on every install.
    pub number: u64,
    /// The snapshot this generation serves.
    pub store: Arc<DatasetStore>,
    /// The generation's own answer cache (born empty on install — the
    /// cache purity argument needs one immutable snapshot per cache).
    pub cache: Arc<HotCache>,
}

/// The atomically swappable handle workers serve through.
///
/// Reads are one atomic load on the fast path: a worker keeps its local
/// `Arc<Generation>` and compares [`StoreHandle::generation`] once per
/// sweep, taking the mutex only on an actual swap. [`StoreHandle::install`]
/// serializes writers behind the same mutex, absorbs the retiring
/// generation's cache counters into a running total, and only then
/// publishes the new generation number — so a reader that sees the new
/// number always finds the new generation behind the lock.
#[derive(Debug)]
pub struct StoreHandle {
    generation: AtomicU64,
    current: Mutex<Arc<Generation>>,
    // Retired generations' cache traffic, accumulated as plain atomics
    // so the handle only ever holds its single mutex.
    retired_hits: AtomicU64,
    retired_misses: AtomicU64,
    retired_evictions: AtomicU64,
}

impl StoreHandle {
    /// Wraps a snapshot as generation 1.
    pub fn new(store: Arc<DatasetStore>) -> StoreHandle {
        StoreHandle {
            generation: AtomicU64::new(1),
            current: Mutex::new(Arc::new(Generation {
                number: 1,
                store,
                cache: Arc::new(HotCache::new()),
            })),
            retired_hits: AtomicU64::new(0),
            retired_misses: AtomicU64::new(0),
            retired_evictions: AtomicU64::new(0),
        }
    }

    /// The live generation number (one atomic load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A reference to the live generation. Workers call this only when
    /// [`StoreHandle::generation`] disagrees with their local copy.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically installs `store` as the next generation with a fresh
    /// cache; returns the new generation number. In-flight connections
    /// keep answering from whichever generation their worker holds until
    /// its next sweep notices the swap — nothing is dropped.
    pub fn install(&self, store: Arc<DatasetStore>) -> u64 {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let next = cur.number + 1;
        let retiring = cur.cache.counters();
        *cur = Arc::new(Generation {
            number: next,
            store,
            cache: Arc::new(HotCache::new()),
        });
        self.generation.store(next, Ordering::Release);
        drop(cur);
        self.retired_hits
            .fetch_add(retiring.hits, Ordering::Relaxed);
        self.retired_misses
            .fetch_add(retiring.misses, Ordering::Relaxed);
        self.retired_evictions
            .fetch_add(retiring.evictions, Ordering::Relaxed);
        next
    }

    /// Server-lifetime cache counters: every retired generation's totals
    /// plus the live generation's so far.
    pub fn cache_counters(&self) -> CacheCounters {
        let mut total = CacheCounters {
            hits: self.retired_hits.load(Ordering::Relaxed),
            misses: self.retired_misses.load(Ordering::Relaxed),
            evictions: self.retired_evictions.load(Ordering::Relaxed),
        };
        total.absorb(self.current().cache.counters());
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::point::GeoPoint;
    use ipgeo::publish::Evidence;

    fn entry(prefix: u32) -> DatasetEntry {
        DatasetEntry {
            prefix: Prefix24(prefix),
            location: GeoPoint::new(prefix as f64 / 100.0, 0.0),
            evidence: Evidence::Whois,
        }
    }

    fn store() -> DatasetStore {
        let entries: Vec<DatasetEntry> = [10u32, 20, 30, 300].map(entry).to_vec();
        DatasetStore::from_entries(&entries, 1, 1)
    }

    /// The index's shape for `prefixes`: `(buckets, shift)`, after
    /// checking that every entry lies in the bucket its prefix maps to.
    fn index_shape(prefixes: &[u32]) -> (usize, u32) {
        let s = DatasetStore::from_entries(
            &prefixes.iter().map(|&p| entry(p)).collect::<Vec<_>>(),
            1,
            1,
        );
        let ix = &s.index;
        let buckets = ix.starts.len() - 1;
        assert_eq!((ix.starts[0], ix.starts[buckets]), (0, s.len() as u32));
        for (i, e) in s.entries().iter().enumerate() {
            let b = ((e.prefix.0 - ix.first) >> ix.shift) as usize;
            assert!((ix.starts[b] as usize..ix.starts[b + 1] as usize).contains(&i));
        }
        (buckets, ix.shift)
    }

    #[test]
    fn index_buckets_span_the_store_not_the_address_space() {
        // Clustered like publish's prefixes at seed 42: 5,106 in
        // 0x10000..=0x113f1 get 8,192 buckets of one prefix each.
        let clustered: Vec<u32> = (0..5106).map(|i| 0x10000 + i).collect();
        assert_eq!(index_shape(&clustered), (8192, 0));
        // Spread over the whole space: 2^16 buckets of 2^8 prefixes.
        let spread: Vec<u32> = (0..1u32 << 17).map(|i| i << 7 | 5).collect();
        assert_eq!(index_shape(&spread), (1 << 16, 8));
        // `shift` is the smallest that keeps the last prefix in range.
        assert_eq!(index_shape(&[3, 3 + 15]), (2, 3));
        assert_eq!(index_shape(&[3, 3 + 16]), (2, 4));
        assert_eq!(index_shape(&[7]), (1, 0));
        assert_eq!(index_shape(&[]), (1, 0));
    }

    #[test]
    fn exact_lookup_hits_and_misses() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(Prefix24(20)).unwrap().prefix, Prefix24(20));
        assert!(s.get(Prefix24(21)).is_none());
        let ip = Prefix24(30).host(7);
        assert_eq!(s.lookup(ip).unwrap().prefix, Prefix24(30));
    }

    #[test]
    fn nearest_picks_the_closer_neighbor() {
        let s = store();
        // 24 is 4 away from 20 and 6 away from 30.
        let (e, d) = s.lookup_nearest(Prefix24(24).host(1)).unwrap();
        assert_eq!((e.prefix, d), (Prefix24(20), 4));
        // Exact hit has distance 0.
        let (e, d) = s.lookup_nearest(Prefix24(300).host(9)).unwrap();
        assert_eq!((e.prefix, d), (Prefix24(300), 0));
        // Below the smallest and above the largest prefix clamp to the ends.
        assert_eq!(
            s.lookup_nearest(Prefix24(1).host(0)).unwrap().0.prefix,
            Prefix24(10)
        );
        assert_eq!(
            s.lookup_nearest(Prefix24(9999).host(0)).unwrap().0.prefix,
            Prefix24(300)
        );
        // Equidistant (25 between 20 and 30) prefers the lower prefix.
        let (e, d) = s.lookup_nearest(Prefix24(25).host(0)).unwrap();
        assert_eq!((e.prefix, d), (Prefix24(20), 5));
    }

    #[test]
    fn empty_store_answers_nothing() {
        let s = DatasetStore::from_entries(&[], 1, 1);
        assert!(s.is_empty());
        assert!(s.lookup(Ipv4(77)).is_none());
        assert!(s.lookup_nearest(Ipv4(77)).is_none());
    }

    #[test]
    fn batch_matches_singles() {
        let s = store();
        let ips: Vec<Ipv4> = (0u32..600).map(|p| Prefix24(p).host(1)).collect();
        let batch = s.lookup_batch(&ips);
        for (ip, got) in ips.iter().zip(&batch) {
            assert_eq!(got.as_ref(), s.lookup(*ip));
        }
    }

    #[test]
    fn store_handle_swaps_generations_atomically() {
        use crate::cache::{CacheKind, CacheValue};

        let handle = StoreHandle::new(Arc::new(store()));
        assert_eq!(handle.generation(), 1);
        let g1 = handle.current();
        assert_eq!(g1.number, 1);
        assert_eq!(g1.store.len(), 4);

        // Traffic on generation 1's cache...
        g1.cache
            .put(CacheKind::LineLocate, 10, CacheValue::Line("OK x".into()));
        assert!(g1.cache.get(CacheKind::LineLocate, 10).is_some());
        assert!(g1.cache.get(CacheKind::LineLocate, 99).is_none());

        // ...survives the install in the lifetime totals, while the new
        // generation starts with an empty cache.
        let next = handle.install(Arc::new(DatasetStore::from_entries(&[entry(10)], 1, 2)));
        assert_eq!(next, 2);
        assert_eq!(handle.generation(), 2);
        let g2 = handle.current();
        assert_eq!((g2.number, g2.store.len()), (2, 1));
        assert!(g2.cache.get(CacheKind::LineLocate, 10).is_none());
        let totals = handle.cache_counters();
        assert_eq!((totals.hits, totals.evictions), (1, 0));
        // g1's one miss (the 99 probe) + the g2 probe just above.
        assert_eq!(totals.misses, 2);

        // A worker still holding g1 keeps serving the old snapshot.
        assert_eq!(g1.store.len(), 4);
    }

    /// Parity across the serial-fallback seam: a batch below
    /// `PAR_BATCH_MIN` (always serial) and one above it (parallel when
    /// the environment grants workers — the CI chaos job runs this suite
    /// at `IPGEO_THREADS` 1 and 8) must both equal the one-at-a-time
    /// answers element for element.
    #[test]
    fn batch_parity_across_the_parallel_threshold() {
        let s = store();
        for n in [PAR_BATCH_MIN / 2, PAR_BATCH_MIN + 257] {
            let ips: Vec<Ipv4> = (0..n as u32)
                .map(|i| Prefix24(i % 512).host((i % 250) as u8))
                .collect();
            let serial: Vec<Option<DatasetEntry>> =
                ips.iter().map(|&ip| s.lookup(ip).cloned()).collect();
            assert_eq!(s.lookup_batch(&ips), serial, "batch size {n}");
        }
    }
}
