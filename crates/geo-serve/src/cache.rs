//! A sharded hot-prefix cache layered over
//! [`DatasetStore`](crate::DatasetStore) reads.
//!
//! Real query traffic is zipfian per prefix ("Lost in the Prefix"): a
//! handful of `/24`s absorb most of the load. Every answer the server
//! gives is a pure function of `(snapshot, verb, queried /24)` — the
//! store is immutable for the life of a *generation* — so the cache can
//! hold fully materialized answers (binary location records and
//! preformatted text `OK` lines) with **no invalidation and no effect
//! on response bytes**: a cache hit returns the identical bytes the
//! store path would have produced, so the determinism contract is
//! untouched. Live snapshot reload keeps that argument intact by never
//! invalidating at all: each generation owns a fresh `HotCache`
//! (see `store::StoreHandle`), and the retiring generation's counters
//! are absorbed into the handle's running totals.
//!
//! Sharding: the key's low bits pick one of [`SHARDS`] independent
//! `Mutex` shards, so worker threads contend only when they are
//! hammering the same slice of the keyspace. Each shard is bounded; a
//! full shard runs **clock (second-chance) eviction**: every slot
//! carries a referenced bit that `get` sets, and the clock hand sweeps
//! slots, giving recently-referenced entries one more revolution before
//! replacing the first un-referenced slot it finds. Cold prefixes
//! therefore rotate out as traffic shifts instead of the cache freezing
//! on whatever arrived first. Evictions are counted alongside hits and
//! misses (see [`HotCache::counters`]) and surface in `BENCH_serve.json`.

use crate::proto::LocateRecord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of independent shards (power of two; low key bits select).
pub const SHARDS: usize = 16;

/// Default per-shard capacity (entries).
const SHARD_CAP: usize = 4096;

/// What a cache slot holds: either a binary-protocol record or a
/// preformatted text-protocol reply line (without the trailing newline).
#[derive(Debug, Clone)]
pub enum CacheValue {
    /// A binary LOCATE/NEAREST answer record.
    Record(LocateRecord),
    /// A complete text-protocol reply line (`OK …`), shared not copied.
    Line(Arc<str>),
}

/// The verbs a cached answer can belong to. Part of the key: the same
/// prefix can hold an exact-lookup answer, a nearest answer, and their
/// text-protocol renderings simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Binary LOCATE record.
    BinLocate = 0,
    /// Binary NEAREST record.
    BinNearest = 1,
    /// Text `LOCATE` OK-line.
    LineLocate = 2,
    /// Text `NEAREST` OK-line.
    LineNearest = 3,
}

/// Monotonic cache traffic counters since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the store.
    pub misses: u64,
    /// Resident entries replaced by the clock hand.
    pub evictions: u64,
}

impl CacheCounters {
    /// Adds another counter set into this one — used by the generation
    /// store handle to carry a retired generation's cache traffic into
    /// the server-lifetime totals across a live snapshot reload.
    pub fn absorb(&mut self, other: CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// Hit fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident entry plus its second-chance bit.
#[derive(Debug)]
struct Slot {
    key: u64,
    value: CacheValue,
    referenced: bool,
}

/// A shard: slot arena, key index, and the clock hand position.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    index: HashMap<u64, usize>,
    hand: usize,
}

/// The sharded cache. Cheap to clone a handle via `Arc` at the server
/// level; internally all shards are independently locked.
#[derive(Debug)]
pub struct HotCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for HotCache {
    fn default() -> HotCache {
        HotCache::new()
    }
}

impl HotCache {
    /// A cache with the default per-shard capacity.
    pub fn new() -> HotCache {
        HotCache::with_shard_capacity(SHARD_CAP)
    }

    /// A cache bounding each shard at `shard_cap` entries.
    pub fn with_shard_capacity(shard_cap: usize) -> HotCache {
        HotCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: shard_cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn key(kind: CacheKind, prefix: u32) -> u64 {
        (kind as u64) << 32 | u64::from(prefix)
    }

    // geo-lint: allow(R1T, reason = "index is masked to SHARDS-1 and `shards` is built with exactly SHARDS entries")
    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // Prefixes are dense in their low bits, so low bits shard well.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up a cached answer; a hit marks the slot referenced, buying
    /// it a second chance against the clock hand.
    pub fn get(&self, kind: CacheKind, prefix: u32) -> Option<CacheValue> {
        let key = Self::key(kind, prefix);
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let found = shard.index.get(&key).copied().map(|i| {
            shard.slots[i].referenced = true;
            shard.slots[i].value.clone()
        });
        drop(shard);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Admits an answer, running the clock hand when the shard is full:
    /// referenced slots get their bit cleared and one more revolution;
    /// the first un-referenced slot is replaced. Concurrent inserts of
    /// the same key are benign: both value copies are byte-identical by
    /// the purity argument above, so last-write-wins changes nothing.
    // geo-lint: allow(R1T, reason = "slot indices come from the shard's own index map and `hand % slots.len()`, both invariantly in bounds")
    pub fn put(&self, kind: CacheKind, prefix: u32, value: CacheValue) {
        let key = Self::key(kind, prefix);
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&i) = shard.index.get(&key) {
            shard.slots[i].value = value;
            shard.slots[i].referenced = true;
            return;
        }
        if shard.slots.len() < self.shard_cap {
            let i = shard.slots.len();
            shard.slots.push(Slot {
                key,
                value,
                referenced: false,
            });
            shard.index.insert(key, i);
            return;
        }
        // Clock sweep: terminates within two revolutions because the
        // first pass clears every referenced bit it crosses.
        loop {
            let i = shard.hand;
            shard.hand = (shard.hand + 1) % shard.slots.len();
            if shard.slots[i].referenced {
                shard.slots[i].referenced = false;
                continue;
            }
            let old = shard.slots[i].key;
            shard.index.remove(&old);
            shard.slots[i] = Slot {
                key,
                value,
                referenced: false,
            };
            shard.index.insert(key, i);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }

    /// Hit/miss/eviction counters since construction.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_model::ip::Prefix24;

    fn rec(prefix: u32) -> LocateRecord {
        LocateRecord {
            hit: true,
            prefix: Prefix24(prefix),
            lat_bits: 42,
            lon_bits: 7,
            method: 3,
            distance: 0,
            confidence_bits: 0.75f64.to_bits(),
        }
    }

    /// The i-th key landing in the same shard as `base`.
    fn same_shard(base: u32, i: u32) -> u32 {
        base + i * SHARDS as u32
    }

    #[test]
    fn kinds_do_not_collide() {
        let c = HotCache::new();
        c.put(CacheKind::BinLocate, 10, CacheValue::Record(rec(10)));
        c.put(CacheKind::LineLocate, 10, CacheValue::Line("OK ten".into()));
        assert!(matches!(
            c.get(CacheKind::BinLocate, 10),
            Some(CacheValue::Record(r)) if r == rec(10)
        ));
        assert!(matches!(
            c.get(CacheKind::LineLocate, 10),
            Some(CacheValue::Line(l)) if &*l == "OK ten"
        ));
        assert!(c.get(CacheKind::BinNearest, 10).is_none());
        assert_eq!(
            c.counters(),
            CacheCounters {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn full_shards_evict_instead_of_refusing() {
        let c = HotCache::with_shard_capacity(2);
        for i in 0..4u32 {
            let p = same_shard(5, i);
            c.put(CacheKind::BinLocate, p, CacheValue::Record(rec(p)));
        }
        // Each insert past capacity replaced the slot under the hand, so
        // the two newest keys are resident and two evictions happened.
        let cached: Vec<bool> = (0..4u32)
            .map(|i| c.get(CacheKind::BinLocate, same_shard(5, i)).is_some())
            .collect();
        assert_eq!(cached, vec![false, false, true, true]);
        assert_eq!(c.counters().evictions, 2);
        // Re-putting an existing key refreshes in place, no eviction.
        c.put(
            CacheKind::BinLocate,
            same_shard(5, 3),
            CacheValue::Record(rec(same_shard(5, 3))),
        );
        assert_eq!(c.counters().evictions, 2);
    }

    #[test]
    fn referenced_slots_survive_one_revolution() {
        let c = HotCache::with_shard_capacity(2);
        let (a, b, d) = (same_shard(5, 0), same_shard(5, 1), same_shard(5, 2));
        c.put(CacheKind::BinLocate, a, CacheValue::Record(rec(a)));
        c.put(CacheKind::BinLocate, b, CacheValue::Record(rec(b)));
        // Touch `a` so its referenced bit protects it from the hand.
        assert!(c.get(CacheKind::BinLocate, a).is_some());
        c.put(CacheKind::BinLocate, d, CacheValue::Record(rec(d)));
        // The hand skipped referenced `a` (clearing its bit) and evicted
        // un-referenced `b`.
        assert!(c.get(CacheKind::BinLocate, a).is_some());
        assert!(c.get(CacheKind::BinLocate, b).is_none());
        assert!(c.get(CacheKind::BinLocate, d).is_some());
        assert_eq!(c.counters().evictions, 1);
    }
}
