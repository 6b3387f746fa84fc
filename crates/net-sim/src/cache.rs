//! Sharded memoization of the jitter-free base RTT.
//!
//! The base RTT of a host pair sums the one-way delays of its forward
//! and reverse router-level paths — the deterministic part of every ping
//! ([`RouteCache::base_rtt_ms`](crate::RouteCache::base_rtt_ms)).
//! [`BaseDelayCache`] memoizes the value per unordered endpoint pair
//! behind `Network::base_rtt`, which the traceroute's destination ping
//! reads. Bulk traffic does not come here: `Network::ping_min` and
//! campaign rows compute the same bits from the route cache's per-host
//! and per-PoP lanes, because they almost never measure a pair twice
//! (1.4% of the pings in a publish build of the paper world repeat a
//! host pair).
//!
//! Design notes:
//!
//! - **Unordered key.** `base_rtt(a, b) == base_rtt(b, a)` by construction
//!   (it is the sum of both directions), so keys are normalized to
//!   `(min, max)` and `a→b` and `b→a` share one entry.
//! - **Sharding.** The map is split across [`SHARDS`] `RwLock`ed shards
//!   indexed by a hash of the pair, so parallel workers contend only on
//!   insert and almost never on the read path (read-mostly after
//!   warm-up).
//! - **Determinism.** The cached value is a pure function of the key; if
//!   two threads race on a miss they compute and store identical values,
//!   so caching can never perturb a measurement.
//! - **Observability.** Hit/miss counters (relaxed atomics) make the
//!   speedup measurable; see [`CacheStats`].
//!
//! Only `std::sync` primitives are used, per the workspace's
//! zero-external-dependency rule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use world_sim::ids::HostId;

/// Number of independent shards (power of two; indexed by key hash).
pub const SHARDS: usize = 64;

/// Hit/miss counters of a [`BaseDelayCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored) the value.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, read-mostly memo table for base (jitter-free) RTTs, in
/// milliseconds, keyed by unordered host pair.
#[derive(Debug)]
pub struct BaseDelayCache {
    shards: Vec<RwLock<HashMap<(HostId, HostId), f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BaseDelayCache {
    fn default() -> BaseDelayCache {
        BaseDelayCache::new()
    }
}

impl BaseDelayCache {
    /// An empty cache.
    pub fn new() -> BaseDelayCache {
        BaseDelayCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn key(a: HostId, b: HostId) -> (HostId, HostId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    #[inline]
    fn shard(key: (HostId, HostId)) -> usize {
        // splitmix-style avalanche over the packed pair.
        let mut x = (key.0 .0 as u64) << 32 | key.1 .0 as u64;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x >> 58) as usize & (SHARDS - 1)
    }

    /// The memoized value for `(a, b)`, computing it with `compute` on a
    /// miss. `compute` must be a pure function of the pair.
    pub fn get_or_compute(&self, a: HostId, b: HostId, compute: impl FnOnce() -> f64) -> f64 {
        let key = BaseDelayCache::key(a, b);
        let shard = &self.shards[BaseDelayCache::shard(key)];
        if let Some(&v) = shard.read().expect("cache shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        shard.write().expect("cache shard poisoned").insert(key, v);
        v
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("cache shard poisoned").len())
                .sum(),
        }
    }

    /// Drops all entries and resets the counters (for cold-cache benches).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let c = BaseDelayCache::new();
        let mut computed = 0;
        let v1 = c.get_or_compute(HostId(1), HostId(2), || {
            computed += 1;
            42.5
        });
        let v2 = c.get_or_compute(HostId(1), HostId(2), || {
            computed += 1;
            f64::NAN // would poison the result if ever called
        });
        assert_eq!(v1, 42.5);
        assert_eq!(v2, 42.5);
        assert_eq!(computed, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_is_unordered() {
        let c = BaseDelayCache::new();
        c.get_or_compute(HostId(7), HostId(3), || 9.0);
        let v = c.get_or_compute(HostId(3), HostId(7), || unreachable!("must hit"));
        assert_eq!(v, 9.0);
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let c = BaseDelayCache::new();
        c.get_or_compute(HostId(1), HostId(2), || 1.0);
        c.clear();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn distinct_pairs_do_not_collide() {
        let c = BaseDelayCache::new();
        for i in 0..500u32 {
            c.get_or_compute(HostId(i), HostId(i + 1), || i as f64);
        }
        for i in 0..500u32 {
            let v = c.get_or_compute(HostId(i), HostId(i + 1), || unreachable!("must hit"));
            assert_eq!(v, i as f64);
        }
        assert_eq!(c.stats().entries, 500);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = BaseDelayCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..200u32 {
                        let v = c
                            .get_or_compute(HostId(i % 50), HostId(i % 50 + 1), || (i % 50) as f64);
                        assert_eq!(v, (i % 50) as f64);
                    }
                });
            }
        });
        assert_eq!(c.stats().entries, 50);
    }
}
