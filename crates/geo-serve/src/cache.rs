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
//! on whatever arrived first.
//!
//! Hashing: a shard finds a key's slot through a map hashed by
//! [`MixHasher`], one splitmix64 round over the key, instead of the std
//! SipHash, which cost more than the rest of a hit. Keys come from
//! clients, so each cache seeds its hasher with a secret drawn from
//! `RandomState`, the same per-process random keys SipHash would use.
//! A client that does not know the seed cannot tell which keys share a
//! probe chain, so it cannot flood one; and a shard never holds more
//! than its capacity anyway. The map keys a slot by the 32 bits that
//! name it within its shard and stores its number as a `u32`, so a
//! bucket is 8 bytes. The hasher only places keys in the map: which slot
//! a key owns, and so every hit, miss and eviction, depends on the call
//! sequence alone.
//!
//! Counters: each shard counts its own hits, misses and evictions as
//! plain fields under the lock it already holds, so a call touches no
//! shared atomic; [`HotCache::counters`] sums the shards. The server
//! reports the sums through `QueryServer::cache_stats`, and they surface
//! in `BENCH_serve.json`.

use crate::proto::LocateRecord;
use geo_model::rng::MixHasher;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, PoisonError};

/// Number of independent shards (power of two; low key bits select).
pub const SHARDS: usize = 16;

/// The prefix bits that pick a key's shard.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

// A shard key keeps the kind's two bits above the prefix's remaining bits.
const _: () = assert!(SHARD_BITS >= 2);

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
    key: u32,
    value: CacheValue,
    referenced: bool,
}

/// A shard: slot arena, key index, the clock hand position, and the
/// shard's own traffic counters.
#[derive(Debug)]
struct Shard {
    slots: Vec<Slot>,
    index: HashMap<u32, u32, MixHasher>,
    hand: usize,
    counters: CacheCounters,
}

/// The sharded cache. Cheap to clone a handle via `Arc` at the server
/// level; internally all shards are independently locked.
#[derive(Debug)]
pub struct HotCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
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
        let hasher = MixHasher::with_seed(RandomState::new().hash_one(SHARDS));
        HotCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: Vec::new(),
                        index: HashMap::with_hasher(hasher),
                        hand: 0,
                        counters: CacheCounters::default(),
                    })
                })
                .collect(),
            // Slot numbers are stored as `u32`.
            shard_cap: shard_cap.clamp(1, u32::MAX as usize),
        }
    }

    /// `(kind, prefix)` as its shard stores it: the shard already fixes
    /// the prefix's low [`SHARD_BITS`], so the kind above the prefix's
    /// other bits names the key in 32 bits. Half the width of a
    /// `(kind, prefix)` pair keeps index buckets at 8 bytes.
    fn key(kind: CacheKind, prefix: u32) -> u32 {
        (kind as u32) << (u32::BITS - SHARD_BITS) | prefix >> SHARD_BITS
    }

    // geo-lint: allow(R1, reason = "index is masked to SHARDS-1 and `shards` is built with exactly SHARDS entries")
    fn shard(&self, prefix: u32) -> &Mutex<Shard> {
        // Prefixes are dense in their low bits, so low bits shard well.
        &self.shards[(prefix as usize) & (SHARDS - 1)]
    }

    /// Looks up a cached answer; a hit marks the slot referenced, buying
    /// it a second chance against the clock hand.
    pub fn get(&self, kind: CacheKind, prefix: u32) -> Option<CacheValue> {
        let key = Self::key(kind, prefix);
        let mut shard = self
            .shard(prefix)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let found = shard.index.get(&key).copied().map(|i| {
            let slot = &mut shard.slots[i as usize];
            slot.referenced = true;
            slot.value.clone()
        });
        if found.is_some() {
            shard.counters.hits += 1;
        } else {
            shard.counters.misses += 1;
        }
        found
    }

    /// Admits an answer, running the clock hand when the shard is full:
    /// referenced slots get their bit cleared and one more revolution;
    /// the first un-referenced slot is replaced. Concurrent inserts of
    /// the same key are benign: both value copies are byte-identical by
    /// the purity argument above, so last-write-wins changes nothing.
    // geo-lint: allow(R1, reason = "slot indices come from the shard's own index map and `hand % slots.len()`, both invariantly in bounds")
    pub fn put(&self, kind: CacheKind, prefix: u32, value: CacheValue) {
        let key = Self::key(kind, prefix);
        let mut shard = self
            .shard(prefix)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&i) = shard.index.get(&key) {
            let slot = &mut shard.slots[i as usize];
            slot.value = value;
            slot.referenced = true;
            return;
        }
        if shard.slots.len() < self.shard_cap {
            let i = shard.slots.len() as u32;
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
            shard.index.insert(key, i as u32);
            shard.counters.evictions += 1;
            return;
        }
    }

    /// Hit/miss/eviction counters since construction: the sum of every
    /// shard's, each read under its lock.
    pub fn counters(&self) -> CacheCounters {
        let mut total = CacheCounters::default();
        for shard in &self.shards {
            total.absorb(
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .counters,
            );
        }
        total
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

    /// One shard of the clock policy kept as a reference: its slots are
    /// searched linearly, so it shares no map, no hasher and no key
    /// packing with the cache. Each slot is `(kind, prefix, value id,
    /// referenced)`.
    #[derive(Default)]
    struct ModelShard {
        slots: Vec<(u8, u32, u64, bool)>,
        hand: usize,
    }

    proptest::proptest! {
        /// Any call sequence gets the same answers and the same hits,
        /// misses and evictions from two caches, each with its own hasher
        /// seed, as from the reference clock policy. Prefixes differ in
        /// their top bits too, which the shard key must keep apart.
        #[test]
        fn answers_and_counters_depend_on_the_call_sequence_alone(
            cap in 1usize..5,
            calls in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0u8..4, 0u32..64, 0u32..4),
                1..400,
            ),
        ) {
            let caches = [HotCache::with_shard_capacity(cap), HotCache::with_shard_capacity(cap)];
            let mut model: Vec<ModelShard> = (0..SHARDS).map(|_| ModelShard::default()).collect();
            let mut want = CacheCounters::default();
            for (id, &(put, k, low, high)) in calls.iter().enumerate() {
                let kind = [
                    CacheKind::BinLocate,
                    CacheKind::BinNearest,
                    CacheKind::LineLocate,
                    CacheKind::LineNearest,
                ][usize::from(k)];
                let prefix = high << 30 | low;
                let shard = &mut model[prefix as usize % SHARDS];
                let id = id as u64;
                if put {
                    for c in &caches {
                        let value = LocateRecord { lat_bits: id, ..rec(prefix) };
                        c.put(kind, prefix, CacheValue::Record(value));
                    }
                    if let Some(slot) = shard.slots.iter_mut().find(|s| (s.0, s.1) == (k, prefix)) {
                        *slot = (k, prefix, id, true);
                    } else if shard.slots.len() < cap {
                        shard.slots.push((k, prefix, id, false));
                    } else {
                        loop {
                            let i = shard.hand;
                            shard.hand = (i + 1) % shard.slots.len();
                            if shard.slots[i].3 {
                                shard.slots[i].3 = false;
                                continue;
                            }
                            shard.slots[i] = (k, prefix, id, false);
                            want.evictions += 1;
                            break;
                        }
                    }
                } else {
                    let expected = shard
                        .slots
                        .iter_mut()
                        .find(|s| (s.0, s.1) == (k, prefix))
                        .map(|s| {
                            s.3 = true;
                            s.2
                        });
                    if expected.is_some() {
                        want.hits += 1;
                    } else {
                        want.misses += 1;
                    }
                    for c in &caches {
                        let got = match c.get(kind, prefix) {
                            Some(CacheValue::Record(r)) => Some(r.lat_bits),
                            _ => None,
                        };
                        proptest::prop_assert_eq!(got, expected);
                    }
                }
            }
            for c in &caches {
                proptest::prop_assert_eq!(c.counters(), want);
            }
        }
    }
}
